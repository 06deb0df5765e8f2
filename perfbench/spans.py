"""Span recorder for the traced benchmark run.

The recorder rebinds public functions of basicindex in the running process.
A name that a module imported with ``from .x import name`` is a separate
binding, so every ``basicindex`` module (the package namespace included)
that holds the same function object is rebound, not only the defining one.
A name that no longer exists is listed as absent instead of failing.

Each span keeps its parent, so self time is a span's duration minus the
time its direct child spans cover.  Spans stay in memory and are written as
JSON lines when the process exits.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import resources
from pathlib import Path


def _scenario_file_bytes(counts, args, kwargs):
    counts["scenario.bytes"] += Path(args[0] if args else kwargs["path"]).stat().st_size


def _corpus_bytes(counts, args, kwargs):
    name = args[0] if args else kwargs["name"]
    res = resources.files("basicindex") / "corpus" / f"{name}.json"
    if res.is_file():
        counts["scenario.bytes"] += len(res.read_bytes())


def _eig_work(counts, args, kwargs):
    n = len(args[0] if args else kwargs["mat"])
    counts["linalg.eig_work_n3"] += n ** 3


def _banded_work(counts, args, kwargs):
    rows_plus_band, rows = (args[0] if args else kwargs["a_band"]).shape
    counts["localization.modes_solved"] += rows
    counts["localization.banded_work"] += rows * rows_plus_band ** 2


# computed counts that the probes below add to; reported as 0 when never called
COUNTERS = ("scenario.bytes", "linalg.eig_work_n3", "localization.modes_solved",
            "localization.banded_work")

# (module, attribute, span name, probe that adds computed counts from the arguments)
TARGETS = [
    ("basicindex.cli", "main", "cli.main", None),
    ("basicindex.scenario", "load_scenario", "scenario.load", _scenario_file_bytes),
    ("basicindex.scenario", "load_corpus_scenario", "scenario.load", _corpus_bytes),
    ("basicindex.cliff", "exterior_module", "cliff.exterior_module", None),
    ("basicindex.local_index", "validate_closure", "local_index.validate_closure", None),
    ("basicindex.local_index", "graded_restrictions", "local_index.graded_restrictions", None),
    ("basicindex.local_index", "local_index", "local_index.local_index", None),
    ("basicindex.local_index", "global_index", "local_index.global_index", None),
    ("basicindex.linalg", "joint_eig", "linalg.joint_eig", None),
    ("basicindex.linalg", "hermitian_eig", "linalg.hermitian_eig", _eig_work),
    ("basicindex.linalg", "subspace_intersection", "linalg.subspace_intersection", None),
    ("basicindex.linalg", "nullspace", "linalg.nullspace", None),
    ("basicindex.holonomy", "invariant_dim_in", "holonomy.invariant_dim_in", None),
    ("basicindex.holonomy", "check_equivariance", "holonomy.check_equivariance", None),
    ("basicindex.model_operator", "model_cross_check", "model_operator.model_cross_check", None),
    ("basicindex.model_operator", "invariant_kernel", "model_operator.invariant_kernel", None),
    ("basicindex.model_operator", "eigentuple_blocks", "model_operator.eigentuple_blocks", None),
    ("basicindex.model_operator", "oscillator_1d_oracle", "model_operator.oscillator_1d_oracle",
     None),
    ("basicindex.localization", "convergence_report", "localization.convergence_report", None),
    ("basicindex.localization", "low_spectrum", "localization.low_spectrum", None),
    ("basicindex.localization", "graded_low_spectrum", "localization.graded_low_spectrum", None),
    ("basicindex.localization", "find_zeros", "localization.find_zeros", None),
    # scipy's banded solver, as bound by name in the localization module
    ("basicindex.localization", "eig_banded", "localization.eig_banded", _banded_work),
]


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int, dict.fromkeys(COUNTERS, 0))
        self.tag: str | None = None  # per-op label, used for the breakouts
        self.absent: list[str] = []
        self._bindings: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for modname, attr, span_name, probe in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(f"{modname}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(span_name, original, probe)
            for name, mod in list(sys.modules.items()):
                if (name == "basicindex" or name.startswith("basicindex.")) \
                        and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._bindings.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "parent": self.stack[-1] if self.stack else None,
                           "name": name, "tag": self.tag, "t0": time.perf_counter()})
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid]["t1"] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, span_name, fn, probe):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[span_name + "_calls"] += 1
            if probe is not None:
                probe(rec.counts, args, kwargs)
            sid = rec._open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(sid)

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one per op."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def totals(self) -> tuple[dict, dict, dict]:
        """Inclusive seconds per span name, self seconds per span name, and
        inclusive seconds per (span name, tag)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["t1"] - s["t0"]
        inclusive, own, tagged = defaultdict(float), defaultdict(float), defaultdict(float)
        for s in self.spans:
            dur = s["t1"] - s["t0"]
            inclusive[s["name"]] += dur
            own[s["name"]] += dur - child[s["id"]]
            tagged[(s["name"], s["tag"])] += dur
        return inclusive, own, tagged

    def dump_at_exit(self, path: Path) -> None:
        def dump():
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w") as fh:
                for s in self.spans:
                    fh.write(json.dumps(s) + "\n")

        atexit.register(dump)
