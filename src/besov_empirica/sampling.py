"""Deterministic, replicable random sampling.

Streams are keyed by a ``(master_seed, stream_index, substream_label)``
triple fed to a counter-based generator (Philox) through numpy's
seed-sequence hashing, so distinct triples give statistically independent
streams and the same triple reproduces the same draws regardless of how
many worker processes consume them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TiesError

#: Substream labels used by the experiment runners.
UNIFORM_STREAM = 0
GAUSSIAN_STREAM = 1

_U64 = 1 << 64
_MANTISSA = 1 << 53


@dataclass(frozen=True)
class SeedSpec:
    """Addressable random stream: master seed, replicate id, substream tag."""

    master_seed: int
    stream_index: int = 0
    substream_label: int = 0

    def __post_init__(self):
        for key in ("master_seed", "stream_index", "substream_label"):
            value = getattr(self, key)
            if not isinstance(value, (int, np.integer)) or not 0 <= value < _U64:
                raise ParameterError(key, f"must be an unsigned 64-bit integer (got {value!r})")


def make_generator(seed: SeedSpec) -> np.random.Generator:
    """Fresh counter-based generator for one stream; creation is pure."""
    ss = np.random.SeedSequence(
        entropy=int(seed.master_seed),
        spawn_key=(int(seed.stream_index), int(seed.substream_label)),
    )
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted uniform order statistics, strictly inside (0, 1) and tie-free."""

    n: int
    sorted_values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.sorted_values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "sorted_values", values)
        if self.n != len(values):
            raise ParameterError("n", "sample size must match the value count")
        # Ties indicate a degenerate generator, so they raise rather than
        # being perturbed away.
        if np.any(values[1:] == values[:-1]):
            raise TiesError(f"tied observations in a sample of size {self.n}")


def order_statistics(values) -> EmpiricalSample:
    """Sort raw draws into an accepted sample, aborting on ties or range."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size and (arr[0] <= 0.0 or arr[-1] >= 1.0):
        raise ParameterError("values", "sample values must lie strictly inside (0, 1)")
    return EmpiricalSample(n=int(arr.size), sorted_values=arr)


def sample_uniform(n: int, seed: SeedSpec) -> EmpiricalSample:
    """``n`` uniforms on the open interval (0, 1), sorted.

    Draws sit on the lattice ``k / 2**53`` with ``k`` in ``[1, 2**53 - 1]``,
    which excludes both endpoints by construction.
    """
    if n < 2:
        raise ParameterError("n", f"need at least 2 observations (got {n})")
    rng = make_generator(seed)
    raw = rng.integers(1, _MANTISSA, size=n).astype(np.float64) / _MANTISSA
    return order_statistics(raw)


def sample_gaussian(n: int, seed: SeedSpec) -> np.ndarray:
    """``n`` i.i.d. standard normal deviates for the given stream."""
    if n < 1:
        raise ParameterError("n", f"need at least 1 draw (got {n})")
    return make_generator(seed).standard_normal(n)
