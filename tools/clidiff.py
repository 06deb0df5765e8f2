"""Byte comparison of two runs of one CLI command.

``report`` names what moved between an old and a new run: the exit code,
the first differing line of each output stream, and for JSON stdout each
moved key (list indices shown as ``[]``) with its largest relative move.
``tools/compare_cli.py`` and the golden snapshot test share it.
"""

from __future__ import annotations

import json
import math


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


def report(old: tuple[int, str, str], new: tuple[int, str, str], argv: list[str]) -> list[str]:
    """What differs between two (exit code, stdout, stderr) runs of argv."""
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
