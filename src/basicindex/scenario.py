"""Scenario file ingestion and the bundled example corpus.

Scenarios are JSON documents; complex entries are two-element arrays
[re, im], matrices are row-major arrays of row arrays.  Schema errors name
the offending key path; NaN and +/-Infinity, which Python's json accepts,
are schema errors, and so is a boolean wherever a number is due.  Loading
is side-effect free.  Exterior modules and hat_linear perturbations stay in
monomial form (dense when read), and derive-from-exterior holonomy actions
are built as matrices.
"""

from __future__ import annotations

import gc
import json
import math
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .cliff import CliffordModule, _letters, explicit_module, exterior_module
from .holonomy import (
    HolonomyGroup,
    derive_component_action,
    derive_infinitesimal_action,
)
from .linalg import _Monomial
from .local_index import ClosureDatum, ScenarioModel

if TYPE_CHECKING:  # the circle lab is imported only to parse a circle_model section
    from .localization import CircleModel, FourierMatrixFunction

Array = np.ndarray


class ScenarioFormatError(ValueError):
    """Schema violation; the message carries the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _is_int(val) -> bool:
    """An integer, not a bool (json.loads gives true/false as bool, an int subclass)."""
    return isinstance(val, int) and not isinstance(val, bool)


def _want(obj: dict, key: str, kind, path: str):
    if key not in obj:
        raise ScenarioFormatError(f"{path}.{key}", "missing required key")
    val = obj[key]
    if not isinstance(val, kind) or (kind is int and not _is_int(val)):
        raise ScenarioFormatError(f"{path}.{key}", f"expected {kind.__name__}, "
                                                   f"got {type(val).__name__}")
    return val


def _finite(val: int | float, path: str) -> float:
    try:
        x = float(val)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioFormatError(path, f"expected a finite number, got {val!r}")
    return x


_NUMBER_TYPES = {int, float}  # the number types json.loads returns; true/false are not numbers


def _complex_entry(val, path: str) -> complex:
    if type(val) in _NUMBER_TYPES:
        return complex(_finite(val, path))
    if type(val) is list and len(val) == 2 and all(type(x) in _NUMBER_TYPES for x in val):
        return complex(_finite(val[0], f"{path}[0]"), _finite(val[1], f"{path}[1]"))
    raise ScenarioFormatError(path, "expected a number or a two-element [re, im] array")


def _bulk_complex_matrix(rows: list) -> Array | None:
    """The matrix of the equal-length rows in one pass, or None to parse entry by entry.

    Type scans admit only numbers and two-number [re, im] pairs, a number x
    standing for the pair (x, 0); one np.fromiter then fills the interleaved
    real and imaginary parts, and finiteness is checked at once.  The result
    is bitwise the per-entry result.  Every entry that _complex_entry would
    reject (an unknown type, a boolean, a bad pair, a non-finite value, an
    integer beyond the float range) makes this return None, so schema errors
    keep their exact message and key path.
    """
    entries = list(chain.from_iterable(rows))
    kinds = set(map(type, entries))
    if not kinds or not kinds <= _NUMBER_TYPES | {list}:
        return None
    if kinds != {list}:
        entries = [x if type(x) is list else (x, 0) for x in entries]
    if set(map(len, entries)) != {2}:
        return None
    stream = list(chain.from_iterable(entries))
    if not set(map(type, stream)) <= _NUMBER_TYPES:
        return None
    try:
        parts = np.fromiter(stream, dtype=float, count=len(stream))
    except OverflowError:  # an integer literal beyond the float range
        return None
    mat = parts.view(complex).reshape(len(rows), -1)
    return mat if np.isfinite(mat).all() else None


def _complex_matrix(val, path: str, shape: tuple[int, int] | None = None) -> Array:
    if not isinstance(val, list) or not val or not all(isinstance(r, list) for r in val):
        raise ScenarioFormatError(path, "expected an array of row arrays")
    ncols = len(val[0])
    for i, row in enumerate(val):
        if len(row) != ncols:
            raise ScenarioFormatError(f"{path}[{i}]", f"expected {ncols} columns, got {len(row)}")
    mat = _bulk_complex_matrix(val)
    if mat is None:
        mat = np.array([[_complex_entry(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
                        for i, row in enumerate(val)])
    if shape is not None and mat.shape != shape:
        raise ScenarioFormatError(path, f"expected shape {shape}, got {mat.shape}")
    return mat


def _real_matrix(val, path: str, shape: tuple[int, int] | None = None) -> Array:
    mat = _complex_matrix(val, path, shape)
    if np.any(mat.imag != 0.0):
        raise ScenarioFormatError(path, "expected a real matrix")
    return mat.real


def _parse_module(obj: dict, m: int, path: str) -> CliffordModule:
    kind = _want(obj, "kind", str, path)
    if kind == "exterior":
        grading = _want(obj, "grading", str, path)
        if grading not in ("parity", "chirality"):
            raise ScenarioFormatError(f"{path}.grading",
                                      f"unknown grading kind {grading!r}")
        ambient = obj.get("ambient_dim", m)
        if not _is_int(ambient) or ambient < m:
            raise ScenarioFormatError(f"{path}.ambient_dim",
                                      f"expected an integer >= normal_dim = {m}")
        axes = obj.get("generator_axes", list(range(1, m + 1)))
        if (not isinstance(axes, list) or len(axes) != m
                or not all(_is_int(a) for a in axes)):
            raise ScenarioFormatError(f"{path}.generator_axes",
                                      f"expected {m} integer letters")
        try:
            return exterior_module(m, grading=grading, ambient_m=ambient,
                                   generator_axes=tuple(axes))
        except ValueError as exc:
            raise ScenarioFormatError(path, str(exc)) from exc
    if kind == "explicit":
        c_raw = _want(obj, "c", list, path)
        if len(c_raw) != m:
            raise ScenarioFormatError(f"{path}.c", f"expected {m} matrices, got {len(c_raw)}")
        c = [_complex_matrix(entry, f"{path}.c[{j}]") for j, entry in enumerate(c_raw)]
        dim = c[0].shape[0]
        for j, cj in enumerate(c):
            if cj.shape != (dim, dim):
                raise ScenarioFormatError(f"{path}.c[{j}]",
                                          f"expected shape {(dim, dim)}, got {cj.shape}")
        grading = _complex_matrix(_want(obj, "grading", list, path),
                                  f"{path}.grading", (dim, dim))
        return explicit_module(c, grading)
    raise ScenarioFormatError(f"{path}.kind", f"unknown module kind {kind!r}")


def _parse_perturbation(obj: dict, module: CliffordModule, path: str
                        ) -> tuple[Array, ...] | _Monomial:
    kind = _want(obj, "kind", str, path)
    m, dim = module.m, module.dim
    if kind == "explicit":
        z_raw = _want(obj, "Z", list, path)
        if len(z_raw) != m:
            raise ScenarioFormatError(f"{path}.Z", f"expected {m} matrices, got {len(z_raw)}")
        return tuple(_complex_matrix(entry, f"{path}.Z[{j}]", (dim, dim))
                     for j, entry in enumerate(z_raw))
    if kind == "hat_linear":
        if module.exterior is None:
            raise ScenarioFormatError(path, "hat_linear needs an exterior module; "
                                            "use an explicit perturbation")
        coeffs = _want(obj, "coefficients", list, path)
        if len(coeffs) != m:
            raise ScenarioFormatError(f"{path}.coefficients",
                                      f"expected {m} entries, got {len(coeffs)}")
        ambient = module.exterior.ambient_m
        axes, signs, factors = [], [], []
        for j, entry in enumerate(coeffs):
            epath = f"{path}.coefficients[{j}]"
            if not isinstance(entry, list) or len(entry) not in (2, 3):
                raise ScenarioFormatError(epath, "expected [scale, axis] or [scale, axis, form]")
            scale, axis = entry[0], entry[1]
            form = entry[2] if len(entry) == 3 else "hat"
            if not isinstance(scale, (int, float)) or isinstance(scale, bool):
                raise ScenarioFormatError(f"{epath}[0]", "expected a real scale")
            scale = _finite(scale, f"{epath}[0]")
            if not _is_int(axis) or not 1 <= axis <= ambient:
                raise ScenarioFormatError(f"{epath}[1]", f"expected a letter in 1..{ambient}")
            if form not in ("hat", "ic"):
                raise ScenarioFormatError(f"{epath}[2]",
                                          f"unknown constructor form {form!r} "
                                          "(expected 'hat' or 'ic')")
            axes.append(axis)  # Z_j = scale chat(e_axis), or scale i c(e_axis)
            signs.append(1 if form == "hat" else -1)
            factors.append(scale if form == "hat" else scale * 1j)
        z = _letters(ambient, axes, signs)
        return _Monomial(z.cols, np.array(factors, dtype=complex)[:, None] * z.vals)
    raise ScenarioFormatError(f"{path}.kind", f"unknown perturbation kind {kind!r}")


def _derived(action, module: CliffordModule, slice_mat: Array, path: str) -> Array:
    """The module matrix derived from one slice matrix; a slice matrix that is not
    orthogonal (components) or not skew (infinitesimal) is a schema error."""
    try:
        return action(module, slice_mat)
    except ValueError as exc:
        raise ScenarioFormatError(path, str(exc)) from exc


def _parse_holonomy(obj: dict, module: CliffordModule, m: int, path: str) -> HolonomyGroup:
    if "kind" in obj:
        if obj["kind"] != "trivial":
            raise ScenarioFormatError(f"{path}.kind", f"unknown holonomy kind {obj['kind']!r} "
                                                      "(expected 'trivial')")
        for key in ("infinitesimal", "components", "module_action"):
            if key in obj:
                raise ScenarioFormatError(f"{path}.{key}", "a 'trivial' holonomy takes no "
                                                           "generators or module action")
        return HolonomyGroup.trivial_group(m)
    inf_raw = obj.get("infinitesimal", [])
    comp_raw = obj.get("components", [])
    if not isinstance(inf_raw, list) or not isinstance(comp_raw, list):
        raise ScenarioFormatError(path, "infinitesimal/components must be arrays")
    action = obj.get("module_action", "derive-from-exterior")
    inf_slices = [_real_matrix(x, f"{path}.infinitesimal[{i}]", (m, m))
                  for i, x in enumerate(inf_raw)]
    comp_slices = [_real_matrix(x, f"{path}.components[{i}]", (m, m))
                   for i, x in enumerate(comp_raw)]
    if action == "derive-from-exterior":
        if module.exterior is None:
            raise ScenarioFormatError(f"{path}.module_action",
                                      "derive-from-exterior needs an exterior module")
        inf = [(x, _derived(derive_infinitesimal_action, module, x,
                            f"{path}.infinitesimal[{i}]")) for i, x in enumerate(inf_slices)]
        comp = [(g, _derived(derive_component_action, module, g,
                             f"{path}.components[{i}]")) for i, g in enumerate(comp_slices)]
    elif isinstance(action, dict):
        dim = module.dim
        # a key may be left out only for an empty generator list; present, it is an array
        inf_mats = _want(action, "infinitesimal", list, f"{path}.module_action") \
            if inf_slices or "infinitesimal" in action else []
        comp_mats = _want(action, "components", list, f"{path}.module_action") \
            if comp_slices or "components" in action else []
        if len(inf_mats) != len(inf_slices) or len(comp_mats) != len(comp_slices):
            raise ScenarioFormatError(f"{path}.module_action",
                                      "module matrices must match the generator lists")
        inf = [(x, _complex_matrix(mat, f"{path}.module_action.infinitesimal[{i}]", (dim, dim)))
               for i, (x, mat) in enumerate(zip(inf_slices, inf_mats))]
        comp = [(g, _complex_matrix(mat, f"{path}.module_action.components[{i}]", (dim, dim)))
                for i, (g, mat) in enumerate(zip(comp_slices, comp_mats))]
    else:
        raise ScenarioFormatError(f"{path}.module_action",
                                  "expected 'derive-from-exterior' or a matrices object")
    return HolonomyGroup(m=m, infinitesimal=tuple(inf), components=tuple(comp))


def _parse_fourier(obj: dict, dim: int, path: str) -> FourierMatrixFunction:
    from .localization import FourierMatrixFunction

    terms = obj.get("terms", [])
    if not isinstance(terms, list):
        raise ScenarioFormatError(f"{path}.terms", "expected an array of term objects")
    cos_terms: dict[int, Array] = {}
    sin_terms: dict[int, Array] = {}
    for i, term in enumerate(terms):
        tpath = f"{path}.terms[{i}]"
        if not isinstance(term, dict):
            raise ScenarioFormatError(tpath, "expected an object")
        k = _want(term, "harmonic", int, tpath)
        if k < 0:
            raise ScenarioFormatError(f"{tpath}.harmonic", "expected a harmonic >= 0")
        if "cos" in term:
            mat = _complex_matrix(term["cos"], f"{tpath}.cos", (dim, dim))
            cos_terms[k] = cos_terms.get(k, 0) + mat
        if "sin" in term:
            mat = _complex_matrix(term["sin"], f"{tpath}.sin", (dim, dim))
            sin_terms[k] = sin_terms.get(k, 0) + mat
        if "cos" not in term and "sin" not in term:
            raise ScenarioFormatError(tpath, "term needs a 'cos' or 'sin' matrix")
    return FourierMatrixFunction.real_terms(dim, cos_terms, sin_terms)


def _parse_circle_model(obj: dict, path: str) -> CircleModel:
    from .localization import CircleModel

    fiber = _want(obj, "fiber_dim", int, path)
    symbol = _complex_matrix(_want(obj, "symbol", list, path), f"{path}.symbol", (fiber, fiber))
    grading = _complex_matrix(_want(obj, "grading", list, path), f"{path}.grading",
                              (fiber, fiber))
    drift = _parse_fourier(_want(obj, "drift", dict, path) if "drift" in obj else {}, fiber,
                           f"{path}.drift")
    pert = _parse_fourier(_want(obj, "perturbation", dict, path), fiber,
                          f"{path}.perturbation")
    return CircleModel(fiber_dim=fiber, symbol=symbol, grading=grading,
                       drift=drift, perturbation=pert)


def scenario_from_dict(doc: dict, origin: str = "scenario") -> ScenarioModel:
    """Construct a ScenarioModel from parsed JSON, checking the schema."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError(origin, "top level must be an object")
    name = _want(doc, "name", str, origin)
    q = _want(doc, "codimension", int, origin)
    closures_raw = _want(doc, "closures", list, origin)
    expected = doc.get("expected_index")
    if expected is not None and not _is_int(expected):
        raise ScenarioFormatError(f"{origin}.expected_index", "expected an integer")
    closures = []
    for i, cobj in enumerate(closures_raw):
        cpath = f"{origin}.closures[{i}]"
        if not isinstance(cobj, dict):
            raise ScenarioFormatError(cpath, "expected an object")
        cname = _want(cobj, "name", str, cpath)
        m = _want(cobj, "normal_dim", int, cpath)
        if m < 1:
            raise ScenarioFormatError(f"{cpath}.normal_dim", "expected a positive integer")
        if m > q:
            raise ScenarioFormatError(
                f"{cpath}.normal_dim",
                f"closure {cname!r} has normal_dim {m} > codimension {q}")
        module = _parse_module(_want(cobj, "module", dict, cpath), m, f"{cpath}.module")
        z = _parse_perturbation(_want(cobj, "perturbation", dict, cpath), module,
                                f"{cpath}.perturbation")
        hol = _parse_holonomy(_want(cobj, "holonomy", dict, cpath), module, m,
                              f"{cpath}.holonomy")
        closures.append(ClosureDatum(name=cname, module=module, z=z, holonomy=hol))
    circle = None
    if "circle_model" in doc:
        circle = _parse_circle_model(_want(doc, "circle_model", dict, origin),
                                     f"{origin}.circle_model")
    return ScenarioModel(name=name, codimension=q, closures=tuple(closures),
                         expected_index=expected, circle_model=circle)


def _decode(text: str, where: str, origin: str) -> ScenarioModel:
    """Parse scenario text with the cyclic garbage collector paused.

    A parsed JSON tree holds no reference cycles, so the pause delays no
    collection; without it the collector walks the growing tree again and
    again while a large file decodes.  The caller's collector state is
    restored on every exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(
                where, f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError:
            raise ScenarioFormatError(where, "parse error: arrays or objects nested "
                                             "too deeply") from None
        return scenario_from_dict(doc, origin=origin)
    finally:
        if enabled:
            gc.enable()


def load_scenario(path: str | Path) -> ScenarioModel:
    """Load and materialize a scenario file; loading has no side effects."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioFormatError(str(path), f"cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(str(path), f"cannot decode file as text: {exc}") from exc
    return _decode(text, str(path), path.name)


def _encode_complex(x: complex) -> object:
    if x.imag == 0.0:
        return x.real
    return [x.real, x.imag]


def _encode_matrix(mat: Array) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[_encode_complex(complex(x)) for x in row] for row in mat]


def _encode_fourier(f: FourierMatrixFunction) -> dict:
    terms = []
    done: set[int] = set()
    table = dict(f.coeffs)
    for k, mat in f.coeffs:
        if abs(k) in done:
            continue
        done.add(abs(k))
        if k == 0:
            terms.append({"harmonic": 0, "cos": _encode_matrix(mat)})
            continue
        pos, neg = table.get(abs(k)), table.get(-abs(k))
        pos = np.zeros((f.dim, f.dim), dtype=complex) if pos is None else pos
        neg = np.zeros((f.dim, f.dim), dtype=complex) if neg is None else neg
        term: dict = {"harmonic": abs(k)}
        cosm = pos + neg
        sinm = 1j * (pos - neg)
        if np.linalg.norm(cosm) > 0:
            term["cos"] = _encode_matrix(cosm)
        if np.linalg.norm(sinm) > 0:
            term["sin"] = _encode_matrix(sinm)
        terms.append(term)
    return {"terms": terms}


def scenario_to_dict(s: ScenarioModel) -> dict:
    """Serialize a model back to the file schema (derived matrices are emitted
    explicitly, so a round trip reproduces an equal model)."""
    doc: dict = {"name": s.name, "codimension": s.codimension, "closures": []}
    if s.expected_index is not None:
        doc["expected_index"] = s.expected_index
    for d in s.closures:
        cobj: dict = {
            "name": d.name,
            "normal_dim": d.module.m,
            "module": {
                "kind": "explicit",
                "c": [_encode_matrix(cj) for cj in d.module.c],
                "grading": _encode_matrix(d.module.grading),
            },
            "perturbation": {"kind": "explicit",
                             "Z": [_encode_matrix(zj) for zj in d.z]},
        }
        if d.holonomy.trivial:
            cobj["holonomy"] = {"kind": "trivial"}
        else:
            cobj["holonomy"] = {
                "infinitesimal": [_encode_matrix(x) for x, _ in d.holonomy.infinitesimal],
                "components": [_encode_matrix(g) for g, _ in d.holonomy.components],
                "module_action": {
                    "infinitesimal": [_encode_matrix(dx) for _, dx in d.holonomy.infinitesimal],
                    "components": [_encode_matrix(r) for _, r in d.holonomy.components],
                },
            }
        doc["closures"].append(cobj)
    if s.circle_model is not None:
        cm = s.circle_model
        doc["circle_model"] = {
            "fiber_dim": cm.fiber_dim,
            "symbol": _encode_matrix(cm.symbol),
            "grading": _encode_matrix(cm.grading),
            "drift": _encode_fourier(cm.drift),
            "perturbation": _encode_fourier(cm.perturbation),
        }
    return doc


def corpus_names() -> list[str]:
    """Names of the bundled example scenarios."""
    pkg = resources.files("basicindex") / "corpus"
    return sorted(p.name.removesuffix(".json") for p in pkg.iterdir()
                  if p.name.endswith(".json"))


def load_corpus_scenario(name: str) -> ScenarioModel:
    """Load a bundled scenario by name (see corpus_names)."""
    pkg = resources.files("basicindex") / "corpus" / f"{name}.json"
    try:
        text = pkg.read_text()
    except FileNotFoundError as exc:
        raise ScenarioFormatError(name, f"no bundled scenario named {name!r}") from exc
    origin = f"corpus/{name}.json"
    return _decode(text, origin, origin)
