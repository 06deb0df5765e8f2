"""Command-line interface.

Exit codes: 0 success, 1 computational mismatch or failed check,
2 input error (unreadable file, schema violation, dimension mismatch, bad
numeric flag).
Text output prints numbers with 12 significant digits; JSON output carries
each float in full (its Python repr), so its last digits can depend on the
BLAS thread count.
The environment variable BASICINDEX_TOL (a finite positive decimal value)
overrides the default structural tolerance of 1e-9.
The circle lab (localization) is imported only by localize and by loading
a scenario with a circle_model section.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .holonomy import NotInvariantError
from .linalg import DegenerateEigenvalueError, LinalgError
from .local_index import (
    DEFAULT_TOL,
    ClosureValidationError,
    ScenarioModel,
    global_index,
    local_index,
    validate_closure,
)
from .model_operator import (
    RouteConsistencyError,
    analytic_spectrum,
    model_cross_check,
    oracle_deviations,
)
from .scenario import (
    ScenarioFormatError,
    corpus_names,
    load_corpus_scenario,
    load_scenario,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
MAX_COUNT = 1024  # spectrum --count: the level streams' heaps grow with count times m

COMPUTE_ERRORS = (ClosureValidationError, LinalgError, DegenerateEigenvalueError,
                  NotInvariantError, RouteConsistencyError)


def _compute_errors() -> tuple[type[Exception], ...]:
    """The errors main reports as a failed check: COMPUTE_ERRORS, and the circle
    lab's once this run has imported it (it raised none before)."""
    lab = sys.modules.get("basicindex.localization")
    if lab is None:
        return COMPUTE_ERRORS
    return (*COMPUTE_ERRORS, lab.CircleModelError, lab.DiscretizationError)


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal value: {text!r}") from None
    if not (math.isfinite(x) and x > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite positive value, got {text!r}")
    return x


def _s_sweep(text: str) -> list[float]:
    values = [_positive_float(x) for x in text.split(",")]
    if len(values) < 3 or any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(
            f"expected at least 3 increasing comma-separated values, got {text!r}")
    return values


def _bounded_int(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {n}")
        if high is not None and n > high:
            raise argparse.ArgumentTypeError(f"expected an integer <= {high}, got {n}")
        return n
    return parse


def _modes(text: str) -> int:
    """--modes, bounded so that one grid doubling fits the circle lab's cap."""
    from .localization import MAX_MODES, MIN_MODES

    return _bounded_int(MIN_MODES, MAX_MODES // 2)(text)


def default_tol() -> float:
    raw = os.environ.get("BASICINDEX_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return _positive_float(raw)
    except argparse.ArgumentTypeError as exc:
        raise ScenarioFormatError("BASICINDEX_TOL", str(exc)) from None


def fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    # text output is printed incrementally by each command


def _load(path: str) -> ScenarioModel:
    if "/" not in path and not path.endswith(".json") and path in corpus_names():
        return load_corpus_scenario(path)
    return load_scenario(path)


def cmd_validate(args) -> int:
    model = _load(args.scenario)
    tol = args.tol
    all_pass = True
    payload = {"scenario": model.name, "closures": []}
    for d in model.closures:
        report = validate_closure(d, tol)
        all_pass = all_pass and report.passed
        payload["closures"].append({
            "name": d.name,
            "passed": report.passed,
            "checks": [{"name": c.name, "severity": c.severity, "passed": c.passed,
                        "max_violation": c.max_violation, "note": c.note}
                       for c in report.checks],
        })
        if args.format == "text":
            print(report.summary())
    payload["all_passed"] = all_pass
    _emit(payload, args)
    if args.format == "text":
        print(f"scenario {model.name}: " + ("all closures valid" if all_pass
                                            else "validation FAILED"))
    return EXIT_OK if all_pass else EXIT_MISMATCH


def cmd_index(args) -> int:
    model = _load(args.scenario)
    tol = args.tol
    total = 0
    payload = {"scenario": model.name, "closures": [], "total": None}
    lines = []
    for d in model.closures:
        ind, detail = local_index(d, tol)
        total += ind
        lines.append(f"{d.name}: {ind}")
        payload["closures"].append({
            "name": d.name,
            "index": ind,
            "plus": {"dim_intersection": detail.plus.dim_intersection,
                     "dim_invariant": detail.plus.dim_invariant,
                     "eigentuples": detail.plus.eigentuples.tolist()},
            "minus": {"dim_intersection": detail.minus.dim_intersection,
                      "dim_invariant": detail.minus.dim_invariant,
                      "eigentuples": detail.minus.eigentuples.tolist()},
        })
    payload["total"] = total
    payload["expected"] = model.expected_index
    _emit(payload, args)
    if args.format == "text":
        print(", ".join(lines + [f"total: {total}"]) if lines else f"total: {total}")
    if model.expected_index is not None and total != model.expected_index:
        print(f"MISMATCH: expected {model.expected_index}, computed {total}",
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_spectrum(args) -> int:
    model = _load(args.scenario)
    matches = [d for d in model.closures if d.name == args.closure]
    if not matches:
        raise ScenarioFormatError(args.closure, "no closure with this name "
                                  f"(have: {', '.join(d.name for d in model.closures)})")
    d = matches[0]
    spec = analytic_spectrum(d, args.count, args.tol)
    payload = {
        "closure": d.name,
        "eigenvalues": spec.eigenvalues.tolist(),
        "kernel_dim_plus": spec.kernel_dim_plus,
        "kernel_dim_minus": spec.kernel_dim_minus,
        "eigentuples": [{"grading": b.grading, "eigentuple": list(b.eigentuple),
                         "multiplicity": b.multiplicity} for b in spec.blocks],
    }
    if args.format == "text":
        print(f"closure {d.name}: model spectrum ("
              f"kernel dims {spec.kernel_dim_plus}, {spec.kernel_dim_minus})")
        print("  levels: " + ", ".join(fmt(x) for x in spec.eigenvalues))
    if args.numerical:
        devs = oracle_deviations(spec.blocks, 5)
        worst = max([0.0, *devs])
        rows = [{"eigentuple": list(b.eigentuple), "deviation": dev}
                for b, dev in zip(spec.blocks, devs)]
        payload["oracle"] = {"rows": rows, "max_deviation": worst}
        if args.format == "text":
            for row in rows:
                print(f"  tuple ({', '.join(fmt(x) for x in row['eigentuple'])}): "
                      f"oracle deviation {row['deviation']:.3e}")
            print(f"  max oracle deviation: {worst:.3e}")
    _emit(payload, args)
    return EXIT_OK


def cmd_model_check(args) -> int:
    model = _load(args.scenario)
    report = model_cross_check(model, args.tol)
    payload = {
        "scenario": model.name,
        "entries": [{"closure": e.closure, "kernel_dims": list(e.kernel_dims),
                     "kernel_index": e.kernel_index, "local_index": e.local_index}
                    for e in report.entries],
        "kernel_total": report.kernel_total,
        "global_index": report.global_index,
        "consistent": report.consistent,
    }
    _emit(payload, args)
    if args.format == "text":
        print(f"scenario {model.name}: model kernel vs index formula")
        print(report.summary())
    return EXIT_OK


def cmd_localize(args) -> int:
    from .localization import convergence_report

    model = _load(args.scenario)
    if model.circle_model is None:
        raise ScenarioFormatError(args.scenario, "scenario has no circle_model section")
    # Lanczos solves ceil(jmax / 2) values of one grading block, half the base grid's rows
    most = model.circle_model.fiber_dim * (2 * args.modes + 1) - 4
    if args.jmax > most:
        raise ScenarioFormatError("--jmax", f"{args.jmax} exceeds {most}, the most eigenvalues "
                                  f"--modes {args.modes} resolves")
    report = convergence_report(model.circle_model, args.s, args.jmax, args.modes)
    payload = {
        "rows": [{"s": r.s, "modes": r.n_modes, "eigenvalues": r.eigenvalues.tolist(),
                  "gap": r.gap, "spectral_index": r.spectral_index,
                  "kernel_plus": r.kernel_plus, "kernel_minus": r.kernel_minus}
                 for r in report.rows],
        "fitted_constant": report.fitted_constant,
        "monotone_tail": report.monotone_tail,
        "rate_bound_ok": report.rate_bound_ok,
        "growth_constant": report.growth_constant,
        "growth_ok": report.growth_ok,
    }
    _emit(payload, args)
    if args.format == "text":
        print(report.table())
    ok = ((report.monotone_tail is None or report.monotone_tail)
          and (report.rate_bound_ok is None or report.rate_bound_ok)
          and (report.growth_ok is None or report.growth_ok))
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_list_examples(args) -> int:
    for name in corpus_names():
        model = load_corpus_scenario(name)
        expected = "" if model.expected_index is None else f" (expected index {model.expected_index})"
        lab = ", circle model" if model.circle_model is not None else ""
        print(f"{name}: {len(model.closures)} closures{expected}{lab}")
    return EXIT_OK


def cmd_run_corpus(args) -> int:
    names = corpus_names()
    failures = 0
    for name in names:
        model = load_corpus_scenario(name)
        total = global_index(model, args.tol)
        status = "ok"
        if model.expected_index is not None and total != model.expected_index:
            status = f"MISMATCH (expected {model.expected_index})"
            failures += 1
        print(f"{name}: index {total} {status}")
    print(f"{len(names) - failures}/{len(names)} scenarios pass")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basicindex",
        description="Localized index computations for perturbed transversal "
                    "Dirac-type operators")
    parser.add_argument("--tol", type=_positive_float, default=None,
                        help="structural tolerance (default 1e-9 or BASICINDEX_TOL)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("scenario")
        return p

    add("validate", cmd_validate, "run every closure's validation checks")
    add("index", cmd_index, "per-closure local indices and the global sum")
    p = add("spectrum", cmd_spectrum, "analytic model spectrum at one closure")
    p.add_argument("--closure", required=True)
    p.add_argument("--count", type=_bounded_int(1, MAX_COUNT), default=12)
    p.add_argument("--numerical", action="store_true",
                   help="also compare against the 1D finite-difference oracle")
    add("model-check", cmd_model_check, "model kernel dims vs the index formula")
    p = add("localize", cmd_localize, "spectral localization sweep of the circle model")
    p.add_argument("--s", type=_s_sweep, default="10,100,1000",
                   help="comma-separated list of at least 3 increasing positive s values")
    p.add_argument("--modes", type=_modes, default=128)
    p.add_argument("--jmax", type=_bounded_int(1), default=4)
    sub.add_parser("list-examples", help="enumerate bundled scenarios") \
        .set_defaults(fn=cmd_list_examples, format="text")
    p = sub.add_parser("run-corpus", help="run all bundled scenarios against "
                                          "their expected indices")
    p.set_defaults(fn=cmd_run_corpus, format="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tol is None:
        try:
            args.tol = default_tol()
        except ScenarioFormatError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.fn(args)
    except ScenarioFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _compute_errors() as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
