"""Fast self-test of the benchmark code.

Runs a tiny pass of every workload, untraced and traced, and checks that
each end-to-end and per-layer metric of BENCHMARK.json is printed by name
with its unit, that the result line is well formed, and that no op failed.

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


def check(workload: str, trace: int) -> list[str]:
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                           "--fast", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr[-1500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"ops failed: {result['failed']} of {result['attempted']}")
    if not any(ln.startswith("failed_frac = 0.0 ratio") for ln in lines):
        problems.append("failed_frac is not printed as 0")
    if not any(ln.startswith("env {") for ln in lines):
        problems.append("no environment record")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in expected}:
        problems.append("metric names differ from BENCHMARK.json")
    for m in expected:
        got = result["metrics"].get(m["name"], {})
        printed = [ln for ln in lines if ln.startswith(m["name"] + " = ")]
        if got.get("unit") != m["unit"] or not printed \
                or not printed[0].endswith(" " + m["unit"]):
            problems.append(f"{m['name']} not printed with unit {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']} value {got.get('value')!r} is not a number")
    return problems


def main() -> int:
    failures = 0
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problems = check(w, trace)
            failures += bool(problems)
            print(f"{w} trace={trace}: " + ("ok" if not problems else "; ".join(problems)),
                  flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
