"""Seeded, reproducible shot sampling and estimator statistics.

Randomness is counter-based: every uniform draw is a pure function of
(root seed, stream id, shot index), so results never depend on evaluation
order, batching, or thread count.  The mixer is splitmix64, evaluated
vectorized on uint64 arrays.  Shots are tallied, never stored: a block
scores each outcome with one of a few weight levels, and a run counts the
shots that landed on each product of levels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    MAX_WORKING_ELEMENTS,
    ResourceLimitError,
    apply_passive,
    check_working_size,
    closed_pattern_count,
    closed_patterns,
    components_of,
)

__all__ = [
    "BlockSpec",
    "MAX_SHOTS",
    "MAX_WORKING_ELEMENTS",
    "check_working_size",
    "ensemble_combinations",
    "measurement_block",
    "passive_measurement",
    "estimator_statistics",
    "blocks_expectation",
    "draw_outcomes",
    "blocks_estimate",
    "shot_uniforms",
    "categorical_cdf",
    "draw_categorical",
    "derive_seed",
    "seed_root",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

# probabilities below this are treated as exact zeros before normalization
TINY_PROBABILITY = 1e-300

# shots are drawn this many shot indices at a time, so the uniforms, mixer
# temporaries and outcome indices of one chunk stay in cache
CHUNK_SHOTS = 1 << 16

# shot counts stay exact in the double-precision sums of the statistics up
# to 2^53 shots
MAX_SHOTS = 1 << 53


def seed_root(seed) -> int:
    """The 64-bit root of an integer seed."""
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One splitmix64 finalization round, in place on a uint64 array (a
    uint64 scalar is rebound), with one scratch array for the shifts;
    uint64 arithmetic wraps modulo 2^64."""
    shifted = np.empty_like(x)
    x += _GOLDEN
    x ^= np.right_shift(x, np.uint64(30), out=shifted)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=shifted)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=shifted)
    return x


def shot_uniforms(seed, stream: int, indices) -> np.ndarray:
    """Uniforms in [0, 1) addressed by (seed, stream, shot index).

    ``indices`` may be an int (count, meaning 0..count-1) or an array of
    shot indices.  The draw for a given address is the same no matter how
    the call is batched.
    """
    root = seed_root(seed)
    if np.isscalar(indices):
        indices = np.arange(int(indices), dtype=np.uint64)
    with np.errstate(over="ignore"):
        key = _splitmix64(np.uint64(root) ^ (_GOLDEN * np.uint64(stream & 0xFFFFFFFFFFFFFFFF)))
        bits = _GOLDEN * np.asarray(indices, dtype=np.uint64)  # a new array, mixed in place
        bits ^= key
        _splitmix64(bits)
    # top 53 bits -> double in [0, 1)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u *= 1.0 / 9007199254740992.0
    return u


def derive_seed(seed, label: int) -> int:
    """Child seed for an independent run/stream (e.g. repeated runs)."""
    with np.errstate(over="ignore"):
        out = _splitmix64(np.uint64(seed_root(seed)) ^ (_GOLDEN * np.uint64(label)))
    return int(out)


def _born_distributions(amplitudes: np.ndarray) -> np.ndarray:
    """Row-wise |amplitude|^2, normalised; probabilities below
    TINY_PROBABILITY are clamped to zero first to avoid denormal-float
    pathologies, and a row of zero norm is refused."""
    p = np.abs(amplitudes) ** 2
    p[p < TINY_PROBABILITY] = 0.0
    total = p.sum(axis=1, keepdims=True)
    if not np.all(total > 0.0):
        raise ValueError("cannot sample from a zero-norm state")
    return np.ascontiguousarray(p / total)


def categorical_cdf(probabilities: np.ndarray) -> np.ndarray:
    """Cumulative table for inverse-CDF sampling; last entry forced to 1."""
    cdf = np.cumsum(probabilities)
    cdf[-1] = 1.0
    return cdf


def draw_categorical(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Map uniforms to outcome indices via binary search on the table."""
    return np.searchsorted(cdf, uniforms, side="right")


@dataclass(frozen=True)
class BlockSpec:
    """One independent factor of an estimation run.

    ``distributions[i]`` is the flat outcome distribution when ensemble
    component i is prepared; outcome j contributes the shot weight
    ``levels[index[j]]``.  A block has few weight levels, so shots are
    tallied by level rather than stored.  Blocks are statistically
    independent, so shot weights multiply across blocks.
    """

    component_weights: np.ndarray
    distributions: tuple[np.ndarray, ...]
    levels: np.ndarray
    index: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.component_weights, dtype=np.float64)
        if w.size != len(self.distributions):
            raise ValueError("one distribution per ensemble component required")
        if np.any(w < 0):
            raise ValueError("component weights must be >= 0")
        if not abs(w.sum() - 1.0) <= 1e-9:
            raise ValueError("component weights must sum to 1")
        levels = np.asarray(self.levels, dtype=np.complex128).ravel()
        index = np.asarray(self.index, dtype=np.intp).ravel()
        if index.size and not 0 <= index.min() <= index.max() < levels.size:
            raise ValueError("level index out of range")
        object.__setattr__(self, "component_weights", w)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "index", index)

    @property
    def weights(self) -> np.ndarray:
        """The shot weight of each outcome."""
        return self.levels[self.index]


def ensemble_combinations(factors) -> list[tuple[float, list]]:
    """(weight, pure states) for every choice of one ensemble component per
    factor; the first factor varies slowest, and each weight is the product
    of the chosen component weights taken left to right from 1.0."""
    combos = [(1.0, [])]
    for factor in factors:
        combos = [
            (w * cw, states + [cs])
            for w, states in combos
            for cw, cs in components_of(factor)
        ]
    return combos


def measurement_block(component_weights, amplitudes, levels, index) -> BlockSpec:
    """Sampling block from measured amplitudes.

    ``amplitudes`` holds one row (or tensor) per ensemble combination, the
    amplitudes of the outcomes after the measurement transform, flattened
    in the order of ``index``, which gives each outcome's shot weight as a
    position in ``levels``.  Each row becomes its normalised outcome
    distribution.
    """
    index = np.asarray(index).ravel()
    amps = np.asarray(amplitudes).reshape(len(component_weights), -1)
    if amps.shape[1] != index.size:
        raise ValueError(
            f"{amps.shape[1]} outcome amplitudes per combination, {index.size} level indices"
        )
    return BlockSpec(np.asarray(component_weights, dtype=np.float64),
                     tuple(_born_distributions(amps)), levels, index)


def passive_measurement(combos, caps, groups, gates, joint_box=None):
    """Photon patterns and measured amplitudes, one row per ensemble
    combination, of a passive circuit that mixes the mode ``groups``.

    A combination (from ``ensemble_combinations``) has per-mode ``caps``;
    ``joint_box`` maps its pure states to their joint amplitude box, by
    default their tensor product.  After the size guard, every box is
    placed on its rows of the closed pattern set and the circuit is
    applied to all of them at once.
    """
    check_working_size(len(combos) + len(caps), closed_pattern_count(caps, groups))
    patterns = closed_patterns(caps, groups)
    joint_box = joint_box or (lambda states: functools.reduce(np.multiply.outer,
                                                              [s.amplitudes for s in states]))
    amps = np.zeros((len(patterns), len(combos)), dtype=np.complex128)
    in_box = np.logical_and.reduce([patterns[:, m] <= c for m, c in enumerate(caps)])
    amps[in_box] = np.stack([joint_box(states).ravel() for _, states in combos], axis=1)
    return patterns, apply_passive(amps, patterns, gates).T


def blocks_expectation(blocks) -> complex:
    """Exact estimator expectation: product over blocks of the
    component-weighted mean of (distribution . weights)."""
    total = 1.0 + 0.0j
    for block in blocks:
        value = 0.0 + 0.0j
        for cw, dist in zip(block.component_weights, block.distributions):
            value += cw * complex(np.dot(dist, block.weights))
        total *= value
    return total


def _inverse_cdf(distribution: np.ndarray, draws: float):
    """Function from uniforms to outcome indices of ``distribution``, equal
    to ``draw_categorical`` on its cumulative table.

    When the expected number of ``draws`` pays for it, a guide table
    (Chen & Asau 1974; Devroye 1986, III.2.4) of K buckets, K the smallest
    power of two >= 4 outcomes, holds for bucket b the counts
    lo = #{cdf <= b/K} and hi = #{cdf < (b+1)/K}.  A uniform in bucket b
    has outcome lo whenever lo == hi; otherwise it falls back to the binary
    search.  Both counts are exact, since cdf * K and u * K are exact for a
    power of two K, so the table changes no outcome.
    """
    cdf = categorical_cdf(distribution)
    k = 1 << (4 * cdf.size - 1).bit_length()
    if draws < 4 * (cdf.size + k):
        return functools.partial(draw_categorical, cdf)
    lo = np.cumsum(np.bincount(np.ceil(cdf * k).astype(np.intp), minlength=k)[:k])
    hi = np.cumsum(np.bincount(np.floor(cdf * k).astype(np.intp), minlength=k)[:k])
    guide = np.where(lo == hi, lo, -1)

    def draw(uniforms: np.ndarray) -> np.ndarray:
        idx = guide[(uniforms * k).astype(np.intp)]
        miss = idx < 0
        if miss.any():
            idx[miss] = draw_categorical(cdf, uniforms[miss])
        return idx

    return draw


def draw_outcomes(block: BlockSpec, b: int, shots: int, seed):
    """Outcome indices of ``shots`` shots of the block at position ``b`` of
    a run, yielded in consecutive chunks of CHUNK_SHOTS shots, so the
    working set of a chunk stays cache-sized.

    The ensemble component of shot s comes from stream 2b (not drawn for a
    single component) and its outcome from stream 2b+1, so the result is
    independent of batching and thread count.  Each component draws through
    an exact guide table once its expected draws pay for building it.
    """
    inverse = [_inverse_cdf(dist, shots * cw)
               for cw, dist in zip(block.component_weights, block.distributions)]
    comp_cdf = categorical_cdf(block.component_weights)
    for start in range(0, shots, CHUNK_SHOTS):
        indices = np.arange(start, min(start + CHUNK_SHOTS, shots), dtype=np.uint64)
        u = shot_uniforms(seed, 2 * b + 1, indices)
        if len(inverse) == 1:
            yield inverse[0](u)
            continue
        comp_idx = draw_categorical(comp_cdf, shot_uniforms(seed, 2 * b, indices))
        out_idx = np.empty(indices.size, dtype=np.int64)
        for i, draw in enumerate(inverse):
            sel = comp_idx == i
            if np.any(sel):
                out_idx[sel] = draw(u[sel])
        yield out_idx


def blocks_estimate(blocks, shots: int, seed):
    """Tally of the weights of ``shots`` shots, as ((values, counts),
    discarded): ``counts[i]`` shots scored ``values[i]``, a product of one
    weight level of each block, and ``discarded`` of them scored exactly
    zero because a detector threshold was exceeded.

    No shot weight is stored.  Before drawing, the products of the levels
    of the blocks so far are merged to their distinct values after each
    block, which gives every (code so far, outcome) pair its next code;
    each chunk of draws then maps its outcome indices, block by block, to
    one code per shot and adds their bincount to the counts.  Memory is
    the working set of one chunk; a count beyond MAX_SHOTS raises
    ``ResourceLimitError``; an empty block list is refused.
    """
    if not blocks:
        raise ValueError("blocks_estimate needs at least one block; the block list is empty")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise ResourceLimitError(
            f"{shots} shots need exact counts, which double-precision sums keep only "
            "up to MAX_SHOTS = 2^53 shots; reduce shots"
        )
    values = np.ones(1, dtype=np.complex128)
    next_code = []
    for block in blocks:
        values, merged = np.unique(np.multiply.outer(values, block.levels).ravel(),
                                   return_inverse=True)
        next_code.append(merged.reshape(-1, block.levels.size)[:, block.index])
    counts = np.zeros(values.size, dtype=np.int64)
    draws = [draw_outcomes(block, b, shots, seed) for b, block in enumerate(blocks)]
    for chunk in zip(*draws):
        code = 0
        for table, idx in zip(next_code, chunk):
            code = table[code, idx]
        counts += np.bincount(code, minlength=values.size)
        del chunk, idx, code  # before the next chunk is drawn
    return (values, counts), int(counts[values == 0].sum())


def _sqrt_ratio(p: int, d: int) -> float:
    """sqrt(p / d) for integers p >= 0 and d > 0, rounded once to the
    nearest double.

    The integer root of p/d scaled by 4^s has at least 55 bits, and an
    inexact root is rounded to odd, so converting it to a double rounds
    as the exact root would round.
    """
    s = max(0, (112 + d.bit_length() - p.bit_length()) // 2)
    scaled, rem = divmod(p << (2 * s), d)
    root = math.isqrt(scaled)
    if rem or root * root != scaled:
        root |= 1
    return math.ldexp(float(root), -s)


def estimator_statistics(values, counts) -> tuple[complex, float]:
    """Sample mean and standard error of a tally of shot weights:
    ``counts[i]`` shots of weight ``values[i]``.

    Sums over the tally are exact: each part of a weight is an integer
    over a power of two, so over the largest of them the sums are
    integers.  The mean divides the sum, rounded once, by the shot count
    as numpy's mean does, so integer weights give the bits of ``np.mean``
    over the shots.  The standard error of the real and of the imaginary
    part uses the n-1 sample standard deviation, each rounded once from
    its exact value, and the two are combined as their norm.  A single
    shot has no dispersion estimate; stderr is reported as NaN.
    """
    tally = [(v, int(c)) for v, c in zip(np.asarray(values, dtype=np.complex128).ravel().tolist(),
                                         counts) if c > 0]
    n = sum(c for _, c in tally)
    if n == 0:
        raise ValueError("no shots")
    moments = []
    for part in ([v.real for v, _ in tally], [v.imag for v, _ in tally]):
        ratios = [x.as_integer_ratio() for x in part]
        den = max(q for _, q in ratios)
        levels = [(p * (den // q), c) for (p, q), (_, c) in zip(ratios, tally)]
        moments.append((sum(c * a for a, c in levels), sum(c * a * a for a, c in levels), den))
    (re, _, re_den), (im, _, im_den) = moments
    mean = complex(np.complex128(complex(re / re_den, im / im_den)) / n)
    if n == 1:
        return mean, math.nan
    return mean, math.hypot(*(_sqrt_ratio(n * square - total * total, den * den * n * n * (n - 1))
                              for total, square, den in moments))
