"""Deterministic, replicable random sampling.

Streams are keyed by a ``(master_seed, stream_index, substream_label)``
triple fed to a counter-based generator (Philox) through numpy's
seed-sequence hashing, so distinct triples give statistically independent
streams and the same triple reproduces the same draws regardless of how
many worker processes consume them.

``make_generator``, ``sample_uniform`` and ``sample_gaussian`` build one
stream at a time and are the reference.  The chunk kernels draw a run of
consecutive streams at once: ``stream_keys`` derives every stream's Philox
key with numpy's ``SeedSequence`` hash written out in vectorized uint32
arithmetic (the master seed's share of the hash runs once).
``uniform_samples`` takes each stream's raw 64-bit words from one of two
sources, chosen by the stream length ``n``: below ``SHORT_STREAM_WORDS``,
``philox_words`` runs the ten Philox4x64 rounds on every counter block of
the chunk at once in uint64 arithmetic; from there on,
``stream_generators`` re-keys one ``Philox``/``Generator`` pair per stream
and reads ``random_raw``, whose C rounds cost less per word than numpy's
arithmetic once a stream's Python overhead is spread over enough words.
Either way, ``lemire_lattice`` maps the whole chunk's words to lattice
integers at once, rebuilding the bounded-integer step of
``Generator.integers``: numpy's 64-bit Lemire bound and its rejection
threshold.  A row holding a word numpy would reject (odds about ``2**-53``
a word) is drawn again by the reference.  The chunk stays lattice
integers, the finest grid the empirical kernels bin on.  These paths lean
on four numpy internals (the ``SeedSequence`` algorithm, the ``Philox`` state layout,
the Philox4x64-10 round constants with the counter and buffer order, and
the Lemire bound); ``tests/test_sampling.py`` pins all four to the
reference, so a numpy change that moves them fails the tests instead of
moving a report, and ``check_streams`` checks them on the running numpy
before a verification run's first draw.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TiesError

#: Substream labels used by the experiment runners.
UNIFORM_STREAM = 0
GAUSSIAN_STREAM = 1

_U64 = 1 << 64
#: Uniform draws are integers ``k`` in ``[1, 2**53)`` standing for ``k / 2**53``.
LATTICE_BITS = 53
_MANTISSA = 1 << LATTICE_BITS
# ``Generator.integers(1, _MANTISSA)`` rejects a raw word when the low word
# of its Lemire product is below this.
_LEMIRE_THRESHOLD = (_U64 - _MANTISSA + 1) % (_MANTISSA - 1)

# numpy's SeedSequence hash (``numpy/random/bit_generator.pyx``) on 32-bit
# words: its pool size and hash constants.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# numpy's Philox4x64-10 (``numpy/random/src/philox/philox.h``): the round
# multipliers of counter words 0 and 2, and the Weyl increments of key
# words 1 and 0 (``philox_words`` keeps the key in that order).
_PHILOX_ROUNDS = 10
_PHILOX_MULT = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_BUMP = np.array([[0xBB67AE8584CAA73B], [0x9E3779B97F4A7C15]], dtype=np.uint64)
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
# Counter blocks ``philox_words`` computes per pass: its round temporaries
# stay near 1 MiB, and in cache, whatever the chunk size.
_PHILOX_PASS_BLOCKS = 1 << 12
#: ``uniform_samples`` computes a stream of fewer words than this with
#: ``philox_words`` and a longer one with ``stream_generators``.  On a 2-vCPU
#: VM the two cost the same per stream near 28 words at 100 streams a chunk
#: and between 48 and 100 at 1,000, so neither chunk size is slower below it.
SHORT_STREAM_WORDS = 24


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


def _words(value: int) -> list:
    """Little-endian 32-bit words of ``value``, at least one."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


# ``_hashmix`` and ``_mix`` take Python ints or uint32 arrays alike.
def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """numpy's ``hashmix``: the hashed word and the next hash constant."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _mix_in(pool: list, hash_const: int, words: list) -> np.ndarray:
    """Mix the spawn key's ``words`` into a copy of ``pool`` and return
    ``generate_state(2, np.uint64)`` of the result: one key a row."""
    pool = list(pool)
    for word in words:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    hash_const = _INIT_B
    state = []
    for word in pool:
        value, hash_const = _hashmix(word, hash_const, _MULT_B)
        state.append(value.astype(np.uint64))
    shift = np.uint64(32)
    return np.stack([state[0] | state[1] << shift, state[2] | state[3] << shift], axis=1)


def stream_keys(master_seed: int, start: int, count: int, substream_label: int) -> np.ndarray:
    """Philox keys of streams ``start .. start + count - 1``, one ``uint64`` pair a row.

    Row ``i`` equals ``SeedSequence(master_seed, spawn_key=(start + i,
    substream_label)).generate_state(2, np.uint64)``, the key
    ``make_generator`` gives its ``Philox``.  The hash reads the master seed,
    zero-padded to the pool size, then the spawn key's words; only the
    stream index's words differ between rows, and an index at or above
    ``2**32`` has two words instead of one.
    """
    SeedSpec(master_seed, start, substream_label)
    SeedSpec(master_seed, start + max(count - 1, 0), substream_label)
    # The master seed's part of the hash is the same for every stream.
    run = _words(int(master_seed))
    hash_const = _INIT_A
    pool = []
    for word in run + [0] * (_POOL_SIZE - len(run)):
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)

    index = int(start) + np.arange(count, dtype=np.uint64)
    high = (index >> np.uint64(32)).astype(np.uint32)
    low = index.astype(np.uint32)
    label = _words(int(substream_label))
    keys = np.empty((count, 2), dtype=np.uint64)
    for rows, wide in ((high == 0, False), (high != 0, True)):
        if rows.any():
            words = [low[rows], high[rows]] if wide else [low[rows]]
            keys[rows] = _mix_in(pool, hash_const, words + label)
    return keys


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


def stream_generators(
    master_seed: int, start: int, count: int, substream_label: int
) -> Iterator[np.random.Generator]:
    """Yield one ``Generator`` per stream ``start .. start + count - 1``.

    The same ``Generator`` comes back each time, its ``Philox`` re-keyed to
    the next stream's ``stream_keys`` row with counter 0 and an empty
    buffer, the state a fresh one starts in: it draws what
    ``make_generator`` of that stream draws.  Both are built per call, never
    at import.
    """
    keys = stream_keys(master_seed, start, count, substream_label)
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys.tolist():
        state["state"]["key"] = key
        bit_generator.state = state
        yield rng


def philox_words(keys: np.ndarray, n: int) -> np.ndarray:
    """First ``n`` raw words of a fresh ``Philox`` for each row of ``keys``.

    Row ``i`` equals ``np.random.Philox(key=keys[i]).random_raw(n)``, as a
    ``(len(keys), n)`` uint64 array.  numpy bumps the counter before it
    fills its four-word buffer, so a stream's block ``b = 1, 2, ...`` is the
    Philox4x64-10 function of counter ``(b, 0, 0, 0)``, and ``random_raw``
    returns each block's words in order.  The rounds run on all blocks of a
    pass at once, in passes of at most ``_PHILOX_PASS_BLOCKS`` blocks.
    """
    count, blocks = len(keys), -(-n // 4)
    words = np.empty((count, blocks, 4), dtype=np.uint64)
    step = max(1, _PHILOX_PASS_BLOCKS // blocks)
    for first in range(0, count, step):
        _philox_blocks(keys[first:first + step], words[first:first + step])
    return words.reshape(count, 4 * blocks)[:, :n]


def _philox_blocks(keys: np.ndarray, out: np.ndarray) -> None:
    """Write Philox4x64-10 of counters ``(1..blocks, 0, 0, 0)`` under each key
    into ``out``, a ``(len(keys), blocks, 4)`` array.

    A round maps counter ``c`` under key ``k`` to ``(hi(M1 c2) ^ c1 ^ k0,
    lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))``, and the key takes its
    Weyl increment before every round but the first.  Word pairs are
    stacked as two rows of contiguous arrays, so one numpy call serves
    both: ``even`` holds ``(c0, c2)``, ``odd`` ``(c3, c1)`` and ``key``
    ``(k1, k0)``, which lines up ``hi`` with ``odd`` and ``key``, so only
    the write of the new ``even`` takes a reversed operand.  The constants
    are spread to full rows once, because numpy runs a same-shape
    contiguous operation several times faster than a broadcast or reversed
    one at chunk sizes.  The 128-bit product's high word comes exactly from
    32-bit halves, whose partial sums cannot overflow 64 bits.
    """
    blocks = out.shape[1]
    size = len(keys) * blocks
    key = np.repeat(keys[:, ::-1].T, blocks, axis=1)
    bump = np.repeat(_PHILOX_BUMP, size, axis=1)
    mult = np.repeat(_PHILOX_MULT, size, axis=1)
    mult_lo, mult_hi = mult & _LOW32, mult >> _SHIFT32
    even = np.zeros((2, size), dtype=np.uint64)
    even[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(keys))
    odd = np.zeros((2, size), dtype=np.uint64)
    for round_ in range(_PHILOX_ROUNDS):
        if round_:
            key += bump
        low, high = even & _LOW32, even >> _SHIFT32
        carry = mult_lo * high
        carry += (mult_lo * low) >> _SHIFT32
        middle = carry & _LOW32
        middle += mult_hi * low
        hi = mult_hi * high
        hi += carry >> _SHIFT32
        hi += middle >> _SHIFT32
        hi ^= odd
        odd = even * mult
        np.bitwise_xor(hi, key, out=even[::-1])
    for word, row in enumerate((even[0], odd[1], even[1], odd[0])):
        out[..., word] = row.reshape(-1, blocks)


def lemire_lattice(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(1, 2**53)`` of raw 64-bit ``words``, one word a draw.

    numpy's 64-bit Lemire bound with ``rng_excl = 2**53 - 1`` returns the
    high word of ``w * rng_excl`` plus the offset 1, and draws again when
    the low word is below ``(2**64 - 2**53 + 1) % rng_excl = 2048``.  With
    ``hi = w << 53`` (mod ``2**64``), ``w * (2**53 - 1) = (w >> 11) * 2**64 +
    hi - w``, so the high word is ``(w >> 11) - (hi < w)`` and the low word
    ``hi - w`` (mod ``2**64``).  Returns the int64 lattice values and a mask
    of the words numpy would have rejected.
    """
    hi = words << np.uint64(53)
    lattice = words >> np.uint64(11)
    lattice -= hi < words
    lattice += np.uint64(1)
    hi -= words
    return lattice.view(np.int64), hi < np.uint64(_LEMIRE_THRESHOLD)


def uniform_samples(n: int, master_seed: int, start: int, count: int) -> np.ndarray:
    """``sample_uniform`` of the uniform streams ``start .. start + count - 1``.

    Returns their sorted lattice integers ``k`` as a ``(count, n)`` int64
    matrix, one stream a row: row ``i`` times ``2**-53`` is
    ``sample_uniform(n, SeedSpec(master_seed, start + i,
    UNIFORM_STREAM)).sorted_values``.  Each stream's ``n`` raw Philox words
    fill one row of a ``(count, n)`` uint64 matrix: ``philox_words`` computes
    them for the whole chunk when ``n`` is below ``SHORT_STREAM_WORDS``, and
    ``stream_generators`` one stream at a time otherwise.  ``lemire_lattice``
    maps all of them to lattice integers at once.  A row holding a word that
    ``Generator.integers`` would reject (and draw again) is drawn again with
    ``make_generator``, the reference.  The rows are sorted in place and
    checked once, raising what ``order_statistics`` raises on a value
    outside ``(0, 1)`` or a tie.
    """
    if n < 2:
        raise ParameterError("n", f"need at least 2 observations (got {n})")
    if n < SHORT_STREAM_WORDS:
        words = philox_words(stream_keys(master_seed, start, count, UNIFORM_STREAM), n)
    else:
        words = np.empty((count, n), dtype=np.uint64)
        for rng, row in zip(stream_generators(master_seed, start, count, UNIFORM_STREAM), words):
            row[:] = rng.bit_generator.random_raw(n)
    lattice, rejected = lemire_lattice(words)
    for i in np.flatnonzero(rejected.any(axis=1)).tolist():
        rng = make_generator(SeedSpec(master_seed, start + i, UNIFORM_STREAM))
        lattice[i] = rng.integers(1, _MANTISSA, size=n)
    lattice.sort(axis=1)
    if lattice.size and (lattice[:, 0].min() <= 0 or lattice[:, -1].max() >= _MANTISSA):
        raise ParameterError("values", "sample values must lie strictly inside (0, 1)")
    if np.any(lattice[:, 1:] == lattice[:, :-1]):
        raise TiesError(f"tied observations in a sample of size {n}")
    return lattice


@functools.cache
def check_streams() -> None:
    """Raise ``ParameterError("numpy", ...)`` unless one ``uniform_samples`` row
    on each side of ``SHORT_STREAM_WORDS`` and the first normals of one
    ``stream_generators`` stream (index above ``2**32``: a two-word key)
    match the reference on the running numpy.  Cached once passed, so it
    runs once per process."""
    seed, index = 42, (1 << 32) + 7
    spec = SeedSpec(seed, 0, UNIFORM_STREAM)
    uniforms_match = all(
        np.array_equal(uniform_samples(n, seed, 0, 1)[0] / _MANTISSA,
                       sample_uniform(n, spec).sorted_values)
        for n in (SHORT_STREAM_WORDS - 1, SHORT_STREAM_WORDS)
    )
    normals = next(stream_generators(seed, index, 1, GAUSSIAN_STREAM)).standard_normal(4)
    expected = make_generator(SeedSpec(seed, index, GAUSSIAN_STREAM)).standard_normal(4)
    if not (uniforms_match and np.array_equal(normals, expected)):
        raise ParameterError(
            "numpy",
            f"numpy {np.__version__} moved the SeedSequence hash, the Philox state or rounds,"
            " or the Lemire bound that the batched draws rebuild; no report is written",
        )
