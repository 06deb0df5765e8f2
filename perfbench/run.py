"""Benchmark of basicindex: end-to-end metrics per workload, per-layer metrics traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one by one
    python3 perfbench/selftest.py                             # fast self-test

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
set-up time (median of fresh interpreters that import basicindex and load
the workload's inputs), median and tail op latency, ops per second over the
run's passes, and peak RSS.  ``--trace 1`` runs one pass untraced and one
traced in the same process and reports the per-layer metrics; for cli_mix
both passes call ``cli.main`` in-process, since spans are recorded only in
this process.  The difference between the two pass times is the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Generated inputs
and span dumps go to ``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NPROC = len(os.sched_getaffinity(0))
# One client and no concurrency, BLAS included: on a shared 2-core machine a
# second BLAS thread made short ops bimodal and whole runs less steady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["PYTHONPATH"] = str(SRC)  # children import the checkout's source

SETUP_REPS = 3
TAIL_ABOVE = 10  # the tail percentile keeps at least this many samples above it
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import basicindex.cli; "
                "print(time.perf_counter() - t, len(sys.modules))")


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over the package sources; identifies the code where git cannot."""
    h = hashlib.sha256()
    for p in sorted((SRC / "basicindex").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def env_record(seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "blas_threads": int(BLAS_THREADS), "nproc": NPROC, "cpu": cpu, "seed": seed,
            "commit": commit(), "src_sha256": source_digest()}


def child(args: list[str]) -> tuple[float, str]:
    """Run a fresh interpreter to completion: (wall seconds, stdout)."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=150)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited {done.returncode}: {done.stderr[-2000:]}")
    return wall, done.stdout


def tail(latencies: list[float]) -> tuple[float, str]:
    """Value at the highest percentile with TAIL_ABOVE samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_ABOVE:
        return xs[-1], f"max of {n} samples (fewer than {TAIL_ABOVE + 1}, no tail percentile)"
    k = n - TAIL_ABOVE - 1
    return xs[k], f"p{100.0 * (k + 1) / n:.1f} of {n} samples ({TAIL_ABOVE} above it)"


def run_ops(ops, rec=None) -> tuple[list[float], list[str]]:
    """Run ops one after another: (latencies, names of failed ops)."""
    from workloads import timed

    latencies, failed = [], []
    for op in ops:
        if rec is None:
            dt, ok, err = timed(op.run)
        else:
            rec.tag = op.tag
            with rec.span("op"):
                dt, ok, err = timed(op.run)
        latencies.append(dt)
        print(f"op {dt!r} s {'ok' if ok else 'FAILED'} {op.name}")
        if not ok:
            failed.append(f"{op.name} {err}".strip())
    return latencies, failed


def report(metrics: dict, attempted: int, failed: list[str]) -> int:
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"failed_frac = {len(failed) / attempted!r} ratio ({len(failed)}/{attempted})")
    for f in failed:
        print(f"FAILED op: {f}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


def untraced(wl, seconds: int, fast: bool) -> int:
    setup = [child([str(ROOT / "perfbench" / "setup_child.py"), *wl.inputs])[0]
             for _ in range(SETUP_REPS)]
    state = wl.load()
    passes = 1 if fast else max(wl.min_passes, round(seconds / wl.nominal_pass_s))
    latencies, failed, attempted = [], [], 0
    t0 = time.perf_counter()
    for _ in range(passes):
        ops = wl.ops(state, False)
        lat, bad = run_ops(ops)
        latencies += lat
        failed += bad
        attempted += len(ops)
    wall = time.perf_counter() - t0
    rss_kb = wl.child_rss_kb() if wl.child_rss_kb else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_value, tail_note = tail(latencies)
    values = {"setup_s": statistics.median(setup),
              "op_s.p50": statistics.median(latencies),
              "op_s.tail": tail_value,
              "ops_per_s": attempted / wall,
              "peak_rss_mb": rss_kb / 1024.0}
    print(f"passes = {passes}; setup runs (s) = {setup}")
    print(f"op_s.tail is the {tail_note}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    return report(metrics, attempted, failed)


def layer_value(name: str, inclusive, own, tagged, counts):
    """Resolve a per-layer metric name against the recorded spans and counts."""
    if name in counts:
        return counts[name]
    if name.endswith("_calls"):
        return 0
    if name.endswith("_self_s"):
        return own.get(name[: -len("_self_s")], 0.0)
    if "_s." in name:
        base, tag = name.split("_s.", 1)
        return tagged.get((base, tag), 0.0)
    if name.endswith("_s"):
        return inclusive.get(name[: -len("_s")], 0.0)
    raise KeyError(f"no measurement for per-layer metric {name!r}")


def traced(wl, seed: int) -> int:
    from spans import Recorder

    probes = [child(["-c", IMPORT_PROBE])[1].split() for _ in range(SETUP_REPS)]
    counts_extra = {"cli.import_s": statistics.median(float(p[0]) for p in probes),
                    "cli.modules_loaded": int(probes[-1][1])}

    t0 = time.perf_counter()
    run_ops(wl.ops(wl.load(), True))
    wall_untraced = time.perf_counter() - t0

    rec = Recorder()
    rec.install()
    rec.dump_at_exit(WORK / f"spans-{wl.name}-seed{seed}.jsonl")
    t0 = time.perf_counter()
    with rec.span("setup"):
        state = wl.load()
    ops = wl.ops(state, True)
    _, failed = run_ops(ops, rec)
    wall_traced = time.perf_counter() - t0
    extra = wl.traced_extra(state) if wl.traced_extra else []
    failed += run_ops(extra, rec)[1]
    attempted = len(ops) + len(extra)
    rec.uninstall()

    inclusive, own, tagged = rec.totals()
    counts = {**rec.counts, **counts_extra}
    print(f"tracing overhead = {wall_traced - wall_untraced!r} s "
          f"(traced pass {wall_traced!r} s - untraced pass {wall_untraced!r} s; "
          f"{len(rec.spans)} spans)")
    print("absent (no longer in the package): " + (", ".join(rec.absent) or "none"))
    metrics = {m["name"]: {"value": layer_value(m["name"], inclusive, own, tagged, counts),
                           "unit": m["unit"]} for m in SPEC["per_layer"]}
    return report(metrics, attempted, failed)


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    code, summary = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--fast"] if args.fast else [])
        print(f"== {name}", flush=True)
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            code = done.returncode
            summary["correct"] = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return code


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fast", action="store_true",
                    help="a tiny pass of each workload, for the self-test")
    args = ap.parse_args(argv)
    if not (SRC / "basicindex" / "__init__.py").is_file():
        print(f"error: no basicindex sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    print("env " + json.dumps(env_record(args.seed)), flush=True)
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](work, np.random.default_rng(args.seed), args.fast)
        if args.trace:
            return traced(wl, args.seed)
        return untraced(wl, args.seconds, args.fast)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
