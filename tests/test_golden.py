import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import golden  # noqa: E402
from clidiff import report  # noqa: E402


def test_cli_output_matches_the_golden_snapshots():
    # rewrite with `python3 tools/golden.py`; a rewritten snapshot is a changed output
    argvs = golden.commands()
    stale = {p.name for p in golden.GOLDEN.glob("*.txt")} - {golden.path(a).name for a in argvs}
    problems = [f"{name}: no such command" for name in sorted(stale)]
    for argv in argvs:
        code, stdout = golden.run(argv)
        path = golden.path(argv)
        if not path.is_file():
            problems.append(f"{path.name}: missing")
        elif path.read_bytes() != golden.snapshot(argv, code, stdout).encode():
            old = golden.parse(path.read_bytes())
            lines = report((*old, ""), (code, stdout, ""), argv) or ["header differs"]
            problems += [f"{' '.join(argv)}: {line}" for line in lines]
    assert not problems, "\n".join(problems)
