"""The three benchmark workloads, their inputs and the correctness gate of every op.

* ``cli_mix`` runs the real user interface: one client runs
  ``python -m basicindex.cli ...`` subprocesses one after another.  Most of a
  bundled op is interpreter start-up and import; the generated m = 7 file
  adds parsing and the non-trivial-holonomy branches of both routes.
* ``closure_scaling`` certifies exterior closures with trivial holonomy
  in-process, m = 6..8 (m = 2..5 and 9 in the traced run), so the dense
  2^m engine does nearly all the work.
* ``localize_sweep`` runs circle-lab convergence sweeps in-process; the
  banded eigensolver dominates, and the zero-free op reaches it through the
  growth branch: zero finding finds nothing and no graded solve runs.

An op fails when it raises, exits with another code than expected, returns
a wrong integer or fails a gate.  The program under test sees only the
generated inputs, never the seed.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import basicindex as bi
import basicindex.cli as bi_cli
import gen

ORACLE_TOL = 1e-5  # acceptance criterion 5
OP_TIMEOUT_S = 150.0


@dataclass
class Op:
    name: str
    run: Callable[[], bool]  # True when the op passes its gate; may raise
    tag: str | None = None  # label for the per-op breakouts of the traced run


@dataclass
class Workload:
    name: str
    inputs: list[str]  # set-up inputs, as ``corpus:<name>`` or ``file:<path>``
    load: Callable[[], object]  # builds or loads the inputs in this process
    ops: Callable[[object, bool], list[Op]]  # (loaded inputs, in-process?) -> one pass
    nominal_pass_s: float  # pass length on a 2-core Xeon, sets the pass count
    min_passes: int = 1
    child_rss_kb: Callable[[], int] | None = None  # peak RSS of op subprocesses
    # ops the traced run adds after its pass, outside the overhead comparison
    traced_extra: Callable[[object], list[Op]] | None = None


# --------------------------------------------------------------------- cli_mix

class CliRunner:
    """Runs CLI commands as subprocesses, or in-process through ``cli.main``.

    A subprocess is reaped with ``os.wait4`` so that its own peak RSS is known;
    a timer kills it if it outlives OP_TIMEOUT_S.
    """

    def __init__(self, work: Path, in_process: bool):
        self.work = work
        self.in_process = in_process
        self.peak_rss_kb = 0

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = bi_cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    code = exc.code if isinstance(exc.code, int) else 2
            return code, out.getvalue()
        out_path = self.work / "cli_stdout.txt"
        with out_path.open("wb") as out:
            proc = subprocess.Popen([sys.executable, "-m", "basicindex.cli", *argv],
                                    stdout=out, stderr=subprocess.DEVNULL)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text()


def _last_total(text: str) -> int:
    return int(text.strip().splitlines()[-1].rsplit("total: ", 1)[1])


def _cli_commands(golden: dict[str, int], generated: dict[str, Path], fast: bool
                  ) -> list[tuple[list[str], Callable[[int, str], bool]]]:
    """(argv, gate(exit code, stdout)) for every command of one pass."""

    def index_text(name, expected):
        return ["index", name], lambda c, o: c == 0 and _last_total(o) == expected

    def model_check(name, expected):
        def gate(c, o):
            doc = json.loads(o)
            return (c == 0 and doc["consistent"] and doc["kernel_total"] == expected
                    and doc["global_index"] == expected)
        return ["model-check", name, "--format", "json"], gate

    def list_gate(c, o):
        return c == 0 and [ln.split(":")[0] for ln in o.splitlines()] == sorted(golden)

    def corpus_gate(c, o):
        lines = o.strip().splitlines()
        rows = dict(ln.split(": index ") for ln in lines[:-1])
        return (c == 0 and lines[-1] == f"{len(golden)}/{len(golden)} scenarios pass"
                and all(rows[n].split()[0] == str(g) for n, g in golden.items()))

    def spectrum_gate(c, o):
        doc = json.loads(o)
        return (c == 0 and len(doc["eigenvalues"]) == 8
                and doc["oracle"]["max_deviation"] < ORACLE_TOL)

    def localize_gate(c, o):
        doc = json.loads(o)
        return (c == 0 and doc["monotone_tail"] is True and doc["rate_bound_ok"] is True
                and all(r["spectral_index"] == 0 for r in doc["rows"]))

    files = [str(p) for p in generated.values()]
    if fast:
        return [(["list-examples"], list_gate), index_text(files[0], 1), model_check(files[0], 1)]
    cmds = [(["list-examples"], list_gate), (["run-corpus"], corpus_gate)]
    cmds += [index_text(name, g) for name, g in golden.items()]
    cmds.append((["index", "cp2_signature_a", "--format", "json"],
                 lambda c, o: c == 0 and json.loads(o)["total"] == golden["cp2_signature_a"]))
    cmds.append((["validate", "cp2_signature_a"],
                 lambda c, o: c == 0 and o.rstrip().endswith("all closures valid")))
    cmds += [model_check(n, golden[n]) for n in ("sphere_suspension", "cp2_signature_a")]
    cmds.append((["spectrum", "carriere", "--closure", "t_quarter", "--count", "8",
                  "--numerical", "--format", "json"], spectrum_gate))
    cmds.append((["localize", "cosine_localization", "--format", "json"], localize_gate))
    for f in files:
        cmds += [index_text(f, 1), model_check(f, 1)]
    return cmds


def _check_generated(path: Path) -> None:
    """Validate a generated file and compute both routes before any timing."""
    model = bi.load_scenario(path)
    for d in model.closures:
        report = bi.validate_closure(d)
        if not report.passed:
            raise RuntimeError(f"{path.name}: generated closure fails validation\n"
                               + report.summary())
        kp, km = bi.invariant_kernel(d)  # raises unless it equals the intersection route
        if kp - km != 1:
            raise RuntimeError(f"{path.name}: index {kp - km}, expected 1")


def cli_mix(work: Path, rng: np.random.Generator, fast: bool) -> Workload:
    generated = {}
    for m in ((3,) if fast else (6, 7)):
        path = gen.write_json(gen.rotated_scenario(m, rng), work / f"rotated_m{m}.json")
        _check_generated(path)
        generated[m] = path
    golden = {n: bi.load_corpus_scenario(n).expected_index for n in bi.corpus_names()}
    commands = _cli_commands(golden, generated, fast)
    runner: dict[bool, CliRunner] = {}

    def ops(_, in_process):
        run = runner.setdefault(in_process, CliRunner(work, in_process))
        order = list(commands)
        rng.shuffle(order)
        return [Op(" ".join(a), lambda a=a, g=g: g(*run(a))) for a, g in order]

    return Workload("cli_mix", [f"corpus:{n}" for n in golden]
                    + [f"file:{p}" for p in generated.values()],
                    load=lambda: None, ops=ops, nominal_pass_s=44.0,
                    child_rss_kb=lambda: runner[False].peak_rss_kb)


# ------------------------------------------------------------- closure_scaling

# Closures certified by model_cross_check per m in one pass.  On a shared
# 2-core Xeon VM the CPU speed moved between levels up to ~1.8x apart that
# lasted seconds, so the latency of a 10-80 ms op was multimodal and a median
# over such ops jumped with the share of time a run spent at each level.  A
# ~1.4 s m = 7 op averages over the levels: the median sits mid-way through
# the six m = 7 ops.  With eight samples no percentile has ten above it, so
# the tail is the maximum, the m = 8 op.
SCALING_COUNTS = {6: 1, 7: 6, 8: 1}
SCALING_COUNTS_FAST = {2: 1, 3: 1}
# The rest of the family runs in the traced run only, after its pass: m = 2..5
# by model_cross_check, and m = 9 by local_index alone (at ~20-30 s that op
# does not fit the untraced runs' time budget).
TRACED_COUNTS, TRACED_COUNTS_FAST = {2: 1, 3: 1, 4: 1, 5: 1}, {5: 1}
LOCAL_INDEX_M, LOCAL_INDEX_M_FAST = 9, 4


def closure_scaling(work: Path, rng: np.random.Generator, fast: bool) -> Workload:
    def write(counts):
        return [gen.write_json(gen.scaling_scenario(m, k, rng), work / f"scaling_m{m}_{k}.json")
                for m, n in counts.items() for k in range(n)]

    paths = write(SCALING_COUNTS_FAST if fast else SCALING_COUNTS)
    small_paths = write(TRACED_COUNTS_FAST if fast else TRACED_COUNTS)
    top = LOCAL_INDEX_M_FAST if fast else LOCAL_INDEX_M
    top_path = gen.write_json(gen.scaling_scenario(top, 0, rng), work / f"scaling_m{top}_0.json")

    def cross_check(model) -> bool:
        rep = bi.model_cross_check(model)
        return rep.consistent and rep.kernel_total == 1 and rep.global_index == 1

    def cross_check_ops(models):
        return [Op(m.name, lambda m=m: cross_check(m), tag=f"m{m.closures[0].module.m}")
                for m in models]

    def ops(models, _):
        order = list(models)
        rng.shuffle(order)
        return cross_check_ops(order)

    def traced_extra(_):
        top_model = bi.load_scenario(top_path)
        return cross_check_ops([bi.load_scenario(p) for p in small_paths]) + [
            Op(top_model.name, lambda: bi.local_index(top_model.closures[0])[0] == 1,
               tag=f"m{top}")]

    return Workload("closure_scaling", [f"file:{p}" for p in paths],
                    load=lambda: [bi.load_scenario(p) for p in paths], ops=ops,
                    nominal_pass_s=19.0, traced_extra=traced_extra)


# -------------------------------------------------------------- localize_sweep

SWEEPS = {  # op -> (scenario, s values, base modes); j_max is the CLI default 4
    "carriere": ("carriere", [10.0, 100.0, 1000.0], 128),
    "carriere_long": ("carriere", [10.0, 100.0, 1000.0, 3000.0], 256),
    "cosine": ("cosine_localization", [10.0, 100.0, 1000.0, 10000.0], 256),
    "zero_free": ("zero_free", [10.0, 100.0, 1000.0, 10000.0], 256),
}
SWEEPS_FAST = {
    "cosine": ("cosine_localization", [10.0, 100.0, 1000.0], 128),
    "zero_free": ("zero_free", [10.0, 100.0, 1000.0], 128),
}
J_MAX = 4


def localize_sweep(work: Path, rng: np.random.Generator, fast: bool) -> Workload:
    sweeps = SWEEPS_FAST if fast else SWEEPS
    zero_free = gen.write_json(gen.zero_free_scenario(rng), work / "zero_free.json")
    corpus = sorted({scen for scen, _, _ in sweeps.values() if scen != "zero_free"})

    def load():
        models = {n: bi.load_corpus_scenario(n).circle_model for n in corpus}
        models["zero_free"] = bi.load_scenario(zero_free).circle_model
        return models

    def sweep(models, name) -> bool:
        scen, s_list, modes = sweeps[name]
        rep = bi.convergence_report(models[scen], s_list, J_MAX, modes)
        if scen == "zero_free":
            return rep.growth_ok is True and rep.model_levels is None
        return (rep.monotone_tail is True and rep.rate_bound_ok is True
                and all(r.spectral_index == 0 for r in rep.rows))

    def ops(models, _):
        order = list(sweeps)
        rng.shuffle(order)
        return [Op(n, lambda n=n: sweep(models, n), tag=n) for n in order]

    # four passes give 16 samples, so the tail percentile is defined
    return Workload("localize_sweep", [f"corpus:{n}" for n in corpus] + [f"file:{zero_free}"],
                    load=load, ops=ops, nominal_pass_s=8.3, min_passes=1 if fast else 4)


WORKLOADS = {"cli_mix": cli_mix, "closure_scaling": closure_scaling,
             "localize_sweep": localize_sweep}


def timed(fn: Callable[[], bool]) -> tuple[float, bool, str]:
    """Run one op: (seconds, passed, error text)."""
    t0 = time.perf_counter()
    try:
        ok, err = bool(fn()), ""
    except Exception as exc:  # an op that raises is a failed op, not a crash
        ok, err = False, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, ok, err
