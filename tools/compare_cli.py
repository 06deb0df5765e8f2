"""Compare the command-line output of a git revision with the working tree's.

Usage: python3 tools/compare_cli.py <rev>

Runs one fixed list of ``python -m basicindex.cli`` commands on a temporary
checkout of ``<rev>`` (its ``src/``, extracted with ``git archive``) and on
the working tree, each under 1-thread BLAS, and compares stdout, stderr and
exit code byte for byte.  The list is ``validate``, ``index`` and
``model-check`` (text and JSON) on every input, ``spectrum --numerical``
(text and JSON) on every corpus closure, ``spectrum --count 1024`` and
``spectrum --numerical`` (JSON) on the scaling m = 8 file, ``localize`` (text
and JSON) on every corpus scenario with a circle model, ``run-corpus`` and
``list-examples``.
The inputs are the bundled corpus and the ``perfbench/gen.py`` rotated
m = 3, 6, 7 and scaling m = 6, 8 files, each generated from seed 7 into a
temporary directory; ``gen.py`` is imported and nothing under ``perfbench/``
is written.

Prints the identical runs, then each differing run with its first differing
line, and for JSON each moved key (list indices shown as ``[]``) with its
largest relative move.  Exits 0 when every run is identical, 1 otherwise.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROTATED_M, SCALING_M, SEED = (3, 6, 7), (6, 8), 7
RUN_TIMEOUT_S = 600


def _commands(work: Path) -> list[list[str]]:
    """The command list, after writing the generated inputs into work."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np

    import basicindex as bi
    import gen

    files = [gen.write_json(gen.rotated_scenario(m, np.random.default_rng(SEED)),
                            work / f"rotated_m{m}.json") for m in ROTATED_M]
    files += [gen.write_json(gen.scaling_scenario(m, 0, np.random.default_rng(SEED)),
                             work / f"scaling_m{m}_0.json") for m in SCALING_M]
    corpus = bi.corpus_names()
    commands = []
    for fmt in ([], ["--format", "json"]):
        for scenario in [*corpus, *map(str, files)]:
            commands += [[cmd, scenario, *fmt] for cmd in ("validate", "index", "model-check")]
        for name in corpus:
            model = bi.load_corpus_scenario(name)
            commands += [["spectrum", name, "--closure", d.name, "--numerical", *fmt]
                         for d in model.closures]
            if model.circle_model is not None:
                commands.append(["localize", name, *fmt])
    # the model spectrum where it has the most blocks: 256 on the scaling m = 8 file
    large, closure = str(files[-1]), bi.load_scenario(files[-1]).closures[0].name
    commands += [["spectrum", large, "--closure", closure, *extra, "--format", "json"]
                 for extra in (["--count", "1024"], ["--numerical"])]
    return commands + [["run-corpus"], ["list-examples"]]


def _checkout(rev: str, into: Path) -> Path:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def _run(src: Path, argv: list[str], cwd: Path) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "basicindex.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def _moves(a, b, path: str, out: dict[str, float]) -> None:
    """Largest relative move of each key of two JSON trees (inf: not comparable)."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            _moves(a[k], b[k], f"{path}.{k}" if path else k, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _moves(x, y, path + "[]", out)
    elif {type(a), type(b)} <= {int, float} and a != b:
        out[path] = max(out.get(path, 0.0), abs(a - b) / max(abs(a), abs(b)))
    elif a != b:
        out[path] = math.inf


def _first_difference(name: str, old: str, new: str) -> str:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for n, (x, y) in enumerate(zip(old_lines, new_lines), 1):
        if x != y:
            return f"{name} line {n}: {x!r} -> {y!r}"
    return f"{name}: {len(old_lines)} -> {len(new_lines)} lines"


def _report(old: tuple[int, str, str], new: tuple[int, str, str], argv: list[str]) -> list[str]:
    lines = []
    if old[0] != new[0]:
        lines.append(f"exit code {old[0]} -> {new[0]}")
    for name, x, y in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if x == y:
            continue
        moved: dict[str, float] = {}
        if name == "stdout" and "json" in argv:
            try:
                _moves(json.loads(x), json.loads(y), "", moved)
            except json.JSONDecodeError:  # a failed run prints no JSON
                moved = {}
        if moved:
            lines += [f"{name} {key}: largest relative move {rel:.3g}"
                      for key, rel in sorted(moved.items())]
        else:
            lines.append(_first_difference(name, x, y))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare_cli_") as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        old_src = _checkout(argv[0], tmp / "rev")
        commands = _commands(tmp / "inputs")
        same, differ = [], []
        for cmd in commands:
            old = _run(old_src, cmd, tmp)
            new = _run(ROOT / "src", cmd, tmp)
            label = " ".join(Path(a).name if "/" in a else a for a in cmd)
            (same if old == new else differ).append((label, _report(old, new, cmd)))
    print(f"{len(same)} of {len(commands)} runs identical:")
    for label, _ in same:
        print(f"  {label}")
    print(f"{len(differ)} differ:")
    for label, lines in differ:
        print(f"  {label}")
        for line in lines:
            print(f"    {line}")
    return 0 if not differ else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
