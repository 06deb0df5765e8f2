"""Golden CLI snapshots: the command list, the in-process runner and the writer.

Usage: python3 tools/golden.py

Rewrites ``tests/golden/``: one file per command, holding a header line
with the command and its exit code, then its stdout.  The commands are
``validate``, ``index`` and ``model-check`` (text and JSON) on every corpus
scenario, ``spectrum`` (text and JSON) on every corpus closure,
``run-corpus`` and ``list-examples``, each run in-process through
``basicindex.cli.main``.

Before writing, the commands run in two child interpreters, one under
1-thread and one under 2-thread BLAS; any output that differs between them
is printed and nothing is written (exit 1).  The thread count is set only
in the children's environment.  ``tests/test_golden.py`` regenerates the
snapshots in-process and compares bytes.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def commands() -> list[list[str]]:
    import basicindex as bi

    corpus = bi.corpus_names()
    out = []
    for fmt in ([], ["--format", "json"]):
        for name in corpus:
            out += [[cmd, name, *fmt] for cmd in ("validate", "index", "model-check")]
            out += [["spectrum", name, "--closure", d.name, *fmt]
                    for d in bi.load_corpus_scenario(name).closures]
    return out + [["run-corpus"], ["list-examples"]]


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process command; stderr is dropped."""
    from basicindex.cli import main

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def path(argv: list[str]) -> Path:
    return GOLDEN / ("-".join(a.lstrip("-") for a in argv) + ".txt")


def snapshot(argv: list[str], code: int, stdout: str) -> str:
    return f"# basicindex {' '.join(argv)} -> exit {code}\n{stdout}"


def parse(data: bytes) -> tuple[int, str]:
    """Exit code and stdout of a snapshot file's bytes."""
    header, _, stdout = data.decode().partition("\n")
    return int(header.rsplit(" ", 1)[1]), stdout


def _child_runs(threads: int) -> list[list]:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, str(threads)),
               PYTHONPATH=os.pathsep.join([str(ROOT / "tools"), str(ROOT / "src")]))
    probe = "import json, golden; print(json.dumps([golden.run(a) for a in golden.commands()]))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=600)
    return json.loads(done.stdout)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    argvs = commands()
    one, two = _child_runs(1), _child_runs(2)
    unstable = [" ".join(a) for a, x, y in zip(argvs, one, two) if x != y]
    if unstable:
        print("output differs between 1 and 2 BLAS threads; nothing written:", *unstable,
              sep="\n  ", file=sys.stderr)
        return 1
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    for argv, (code, stdout) in zip(argvs, one):
        path(argv).write_bytes(snapshot(argv, code, stdout).encode())
    print(f"wrote {len(argvs)} snapshots to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(__doc__.strip().splitlines()[2])
    sys.exit(main())
