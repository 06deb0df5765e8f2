"""List the public functions of basicindex that no command-line run reaches.

Usage: python3 tools/reachability.py

Runs ``tools/compare_cli.py``'s command list in-process through
``basicindex.cli.main`` under ``sys.setprofile``, recording every Python
function that starts.  It then prints each public (non-underscore) function,
method or property of a public class in ``src/basicindex/`` that none of the
commands reached, with its reason when it is in EXCEPTIONS.  Exits 1 when an
unreached name is missing from EXCEPTIONS, and when an EXCEPTIONS entry is
reached after all or no longer exists; 0 otherwise.
"""

from __future__ import annotations

import importlib
import inspect
import io
import pkgutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import compare_cli

PERFBENCH = "read by perfbench/, whose benchmark inputs and checks use it"
# perfbench/ also reads derived_exterior_action and CrossCheckReport.consistent, which the
# commands reach, and the SweepRow field spectral_index, which is no function
EXCEPTIONS = {
    "cliff.clifford_hat": PERFBENCH + " (gen.py)",
    "cliff.exterior_rep": PERFBENCH + " (gen.py)",
    "scenario.scenario_to_dict": PERFBENCH + " (gen.py)",
    "model_operator.invariant_kernel": PERFBENCH + " (workloads.py)",
    "holonomy.derive_component_action": "only inputs whose holonomy has components "
                                        "derived from the exterior algebra reach it",
    "linalg.Subspace.full": "only nullspace of a matrix with no entries reaches it",
}


def _public_functions() -> dict[str, object]:
    """Qualified name -> code object of every public function, method and property."""
    import basicindex

    found = {}
    for info in pkgutil.iter_modules(basicindex.__path__):
        module = importlib.import_module(f"basicindex.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = member.fget if isinstance(member, property) else \
                        getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        found[f"{info.name}.{name}.{attr}"] = fn.__code__
    return found


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability_") as tmp:
        commands = compare_cli._commands(Path(tmp))
        from basicindex.cli import main as cli_main

        public = _public_functions()
        reached = set()

        def record(frame, event, arg):
            if event == "call":
                reached.add(frame.f_code)

        for argv in commands:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                sys.setprofile(record)
                try:
                    cli_main(argv)
                finally:
                    sys.setprofile(None)
    unreached = sorted(name for name, code in public.items() if code not in reached)
    print(f"{len(commands)} commands; {len(unreached)} of {len(public)} public functions "
          f"not reached:")
    unexplained = []
    for name in unreached:
        print(f"  {name}: {EXCEPTIONS.get(name, 'NOT IN EXCEPTIONS')}")
        if name not in EXCEPTIONS:
            unexplained.append(name)
    stale = sorted(set(EXCEPTIONS) - set(unreached))
    for name in stale:
        print(f"  {name}: in EXCEPTIONS but reached or gone")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(__doc__.strip().splitlines()[2])
    sys.exit(main())
