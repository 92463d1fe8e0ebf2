"""Dyadic grids, coefficient triangles, and the second-difference transform.

A path sampled at the ``2**J + 1`` dyadic points of level ``J`` maps to a
triangular family of coefficients

    c[j][k-1] = 2**(j/2) * (2*f((k - 1/2)/2**j) - f((k - 1)/2**j) - f(k/2**j))

for levels ``j = 0..J-1`` and positions ``k = 1..2**j``, together with the
boundary pair ``mu0 = f(0)`` and ``mu1 = f(1) - f(0)``.  The inverse map is
midpoint refinement: each level-``j`` cell midpoint receives the average of
its endpoints plus ``2**(-j/2) * c / 2``.

Positions are 1-based in the mathematics and 0-based in storage; the only
mapping is ``storage index = k - 1``, used consistently everywhere.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, checked_value, read_json_object

#: Largest grid level accepted anywhere (2**30 + 1 values is the memory bound,
#: and k / 2**30 is exactly representable in binary floating point).
MAX_GRID_LEVEL = 30


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DyadicPathValues:
    """Path values at each point of ``dyadic_grid(J)``."""

    J: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if not (0 <= self.J <= MAX_GRID_LEVEL):
            raise ParameterError("J", f"level must be in [0, {MAX_GRID_LEVEL}]")
        if len(self.values) != (1 << self.J) + 1:
            raise ParameterError("values", "path must hold 2**J + 1 values")
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("values", "path values must be finite")


@dataclass(frozen=True)
class CoefficientTriangle:
    """Boundary pair plus jagged per-level coefficient arrays.

    ``levels[j]`` holds the ``2**j`` coefficients of level ``j`` for
    ``j = 0..J``, stored contiguously so per-level reductions are a single
    pass.
    """

    J: int
    mu0: float
    mu1: float
    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu0", float(self.mu0))
        object.__setattr__(self, "mu1", float(self.mu1))
        object.__setattr__(
            self, "levels", tuple(_frozen_array(lev) for lev in self.levels)
        )
        if not (0 <= self.J <= MAX_GRID_LEVEL):
            raise ParameterError("J", f"level must be in [0, {MAX_GRID_LEVEL}]")
        if len(self.levels) != self.J + 1:
            raise ParameterError("levels", "triangle must hold levels 0..J")
        for j, lev in enumerate(self.levels):
            if len(lev) != (1 << j):
                raise ParameterError("levels", f"level {j} must hold 2**{j} entries")
            if not np.all(np.isfinite(lev)):
                raise ParameterError("levels", f"level {j} has non-finite entries")
        if not (np.isfinite(self.mu0) and np.isfinite(self.mu1)):
            raise ParameterError("mu0/mu1", "boundary coefficients must be finite")


def dyadic_grid(J: int) -> np.ndarray:
    """The read-only points ``k / 2**J``, ``k = 0..2**J``, of level ``J`` on [0, 1]."""
    if not (0 <= J <= MAX_GRID_LEVEL):
        raise ParameterError("J", f"level must be in [0, {MAX_GRID_LEVEL}] (got {J})")
    return _frozen_array(np.arange((1 << J) + 1, dtype=np.float64) / (1 << J))


def extract_coefficients(path: DyadicPathValues) -> CoefficientTriangle:
    """Second-difference coefficients of a level-``J`` path.

    The finest usable second difference takes midpoints from level ``J``,
    so the result has max level ``J - 1``.  Requires ``J >= 1``.
    """
    if path.J < 1:
        raise ParameterError("path", "need level >= 1 to form second differences")
    v = path.values
    mu0 = float(v[0])
    mu1 = float(v[-1] - v[0])
    levels = []
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(path.J):
            step = 1 << (path.J - j)
            left = v[0:-1:step]
            right = v[step::step]
            mid = v[step // 2 :: step]
            levels.append((2.0 ** (0.5 * j)) * (2.0 * mid - left - right))
    if not (np.isfinite(mu1) and all(np.all(np.isfinite(lev)) for lev in levels)):
        raise ParameterError("path", "its coefficients overflow float64")
    return CoefficientTriangle(J=path.J - 1, mu0=mu0, mu1=mu1, levels=tuple(levels))


def reconstruct_path(coeffs: CoefficientTriangle) -> DyadicPathValues:
    """Invert :func:`extract_coefficients` by midpoint refinement.

    A triangle of max level ``J`` rebuilds a path of level ``J + 1``; the
    endpoints carry ``mu0`` and ``mu0 + mu1`` and each level-``j`` cell
    midpoint gets ``(f(left) + f(right)) / 2 + 2**(-j/2) * c / 2``.
    """
    J_out = coeffs.J + 1
    n = 1 << J_out
    v = np.zeros(n + 1, dtype=np.float64)
    v[0] = coeffs.mu0
    v[-1] = coeffs.mu0 + coeffs.mu1
    for j in range(coeffs.J + 1):
        step = 1 << (J_out - j)
        half = step // 2
        known = v[0::step]
        v[half::step] = (known[:-1] + known[1:]) / 2.0 + (
            2.0 ** (-0.5 * j) / 2.0
        ) * coeffs.levels[j]
    return DyadicPathValues(J=J_out, values=v)


def scale_triangle(coeffs: CoefficientTriangle, c: float) -> CoefficientTriangle:
    """Multiply every stored coefficient (boundary pair included) by ``c``."""
    c = float(c)
    return CoefficientTriangle(
        J=coeffs.J,
        mu0=c * coeffs.mu0,
        mu1=c * coeffs.mu1,
        levels=tuple(c * lev for lev in coeffs.levels),
    )


# ---------------------------------------------------------------------------
# Serialization.  JSON uses Python's shortest-repr floats, so a dump/load
# round trip is bit exact.  ``write_json`` and ``write_csv`` write every JSON
# document and CSV table of the package.
# ---------------------------------------------------------------------------


def write_json(path, doc) -> None:
    """Write ``doc`` (arrays as lists) with sorted keys, two-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=np.ndarray.tolist)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write a header and rows; floats are written in shortest repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def triangle_to_dict(coeffs: CoefficientTriangle) -> dict:
    return {
        "J": coeffs.J,
        "mu0": coeffs.mu0,
        "mu1": coeffs.mu1,
        "levels": [[float(x) for x in lev] for lev in coeffs.levels],
    }


#: The fields, and their types, of what ``save_triangle_json`` and
#: ``save_path_json`` write (``simulate-bm`` adds the last three path fields).
_TRIANGLE_FIELDS = {"J": int, "mu0": float, "mu1": float, "levels": list, "metadata": dict}
_PATH_FIELDS = {"J": int, "values": list, "kind": str, "seed": int, "triangle": dict}


def _fields(data, types: dict, required: tuple) -> dict:
    """The fields of document ``data``, each of its type in ``types``."""
    if not isinstance(data, dict):
        raise ParameterError("document", f"must be a JSON object (got {type(data).__name__})")
    for key in data:
        if key not in types:
            raise ParameterError(key, "unknown field")
    for key in required:
        if key not in data:
            raise ParameterError(key, "missing field")
    return {key: checked_value(key, value, types[key]) for key, value in data.items()}


def _numbers(key: str, values) -> np.ndarray:
    values = checked_value(key, values, list)
    return np.array([checked_value(key, value, float) for value in values], dtype=np.float64)


def triangle_from_dict(data: dict) -> CoefficientTriangle:
    """The triangle of a document; any error is a ``ParameterError`` keyed ``coeffs``."""
    try:
        doc = _fields(data, _TRIANGLE_FIELDS, required=("J", "mu0", "mu1", "levels"))
        levels = tuple(_numbers("levels", lev) for lev in doc["levels"])
        return CoefficientTriangle(J=doc["J"], mu0=doc["mu0"], mu1=doc["mu1"], levels=levels)
    except ParameterError as exc:
        raise ParameterError("coeffs", str(exc)) from exc


def save_triangle_json(coeffs, path, metadata: dict | None = None) -> None:
    doc = triangle_to_dict(coeffs)
    if metadata is not None:
        doc["metadata"] = metadata
    write_json(path, doc)


def load_triangle_json(path):
    """Read a triangle file, returning ``(triangle, metadata_or_None)``."""
    doc = read_json_object(path, "coeffs")
    return triangle_from_dict(doc), doc.get("metadata")


def path_to_dict(path_values: DyadicPathValues) -> dict:
    return {"J": path_values.J, "values": [float(x) for x in path_values.values]}


def path_from_dict(data: dict) -> DyadicPathValues:
    """The path of a document; any error is a ``ParameterError`` keyed ``path``."""
    try:
        doc = _fields(data, _PATH_FIELDS, required=("J", "values"))
        return DyadicPathValues(J=doc["J"], values=_numbers("values", doc["values"]))
    except ParameterError as exc:
        raise ParameterError("path", str(exc)) from exc


def save_path_json(path_values, path, extra: dict | None = None) -> None:
    write_json(path, {**path_to_dict(path_values), **(extra or {})})


def load_path_json(path) -> DyadicPathValues:
    return path_from_dict(read_json_object(path, "path"))
