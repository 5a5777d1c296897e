"""Seeded, reproducible shot sampling and estimator statistics.

Randomness is counter-based: every uniform draw is a pure function of
(root seed, stream id, shot index), so results never depend on evaluation
order, batching, or thread count.  The mixer is splitmix64, evaluated
vectorized on uint64 arrays.
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

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

# probabilities below this are treated as exact zeros before normalization
TINY_PROBABILITY = 1e-300

# shots are drawn this many shot indices at a time, so the uniforms, mixer
# temporaries and outcome indices of one chunk stay in cache
CHUNK_SHOTS = 1 << 16


def seed_root(seed) -> int:
    """The 64-bit root of an integer seed."""
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One splitmix64 finalization round on a uint64 array."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
    return z ^ (z >> np.uint64(31))


def shot_uniforms(seed, stream: int, indices) -> np.ndarray:
    """Uniforms in [0, 1) addressed by (seed, stream, shot index).

    ``indices`` may be an int (count, meaning 0..count-1) or an array of
    shot indices.  The draw for a given address is the same no matter how
    the call is batched.
    """
    root = seed_root(seed)
    if np.isscalar(indices):
        idx = np.arange(int(indices), dtype=np.uint64)
    else:
        idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        key = _splitmix64(np.uint64(root) ^ (_GOLDEN * np.uint64(stream & 0xFFFFFFFFFFFFFFFF)))
        bits = _splitmix64(key ^ (_GOLDEN * idx))
    # top 53 bits -> double in [0, 1)
    return (bits >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


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
    component i is prepared; ``weights`` maps outcome index to the shot
    weight contributed by this block.  Blocks are statistically
    independent, so per-shot weights multiply across blocks.
    """

    component_weights: np.ndarray
    distributions: tuple[np.ndarray, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.component_weights, dtype=np.float64)
        if w.size != len(self.distributions):
            raise ValueError("one distribution per ensemble component required")
        if not abs(w.sum() - 1.0) <= 1e-9:
            raise ValueError("component weights must sum to 1")
        object.__setattr__(self, "component_weights", w)


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


def measurement_block(component_weights, amplitudes, weights) -> BlockSpec:
    """Sampling block from measured amplitudes.

    ``amplitudes`` holds one row (or tensor) per ensemble combination, the
    amplitudes of the outcomes after the measurement transform, flattened
    in the order of ``weights``, the shot weight of each outcome.  Each row
    becomes its normalised outcome distribution.
    """
    weights = np.asarray(weights, dtype=np.complex128).ravel()
    amps = np.asarray(amplitudes).reshape(len(component_weights), -1)
    if amps.shape[1] != weights.size:
        raise ValueError(
            f"{amps.shape[1]} outcome amplitudes per combination, {weights.size} weights"
        )
    return BlockSpec(np.asarray(component_weights, dtype=np.float64),
                     tuple(_born_distributions(amps)), weights)


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
    a run, yielded as (first shot index, indices) in chunks of CHUNK_SHOTS
    shots, so the working set of a chunk stays cache-sized.

    The ensemble component of shot s comes from stream 2b (not drawn for a
    single component) and its outcome from stream 2b+1, so the result is
    independent of batching and thread count.  Each component draws through
    an exact guide table once its expected draws pay for building it.
    """
    inverse = [_inverse_cdf(dist, shots * cw)
               for cw, dist in zip(block.component_weights, block.distributions)]
    comp_cdf = categorical_cdf(block.component_weights)
    bounds = [*range(0, shots, CHUNK_SHOTS), shots]
    if shots > 1 and bounds[-1] - bounds[-2] == 1:
        # blocks_estimate multiplies each chunk in place, and numpy does that
        # for one element on a scalar path that rounds complex products
        # unlike the vector path of a longer array; a last lone shot joins
        # the chunk before it, so weights match a whole-array multiply
        del bounds[-2]
    for start, stop in zip(bounds, bounds[1:]):
        indices = np.arange(start, stop, dtype=np.uint64)
        u = shot_uniforms(seed, 2 * b + 1, indices)
        if len(inverse) == 1:
            yield start, inverse[0](u)
            continue
        comp_idx = draw_categorical(comp_cdf, shot_uniforms(seed, 2 * b, indices))
        out_idx = np.empty(indices.size, dtype=np.int64)
        for i, draw in enumerate(inverse):
            sel = comp_idx == i
            if np.any(sel):
                out_idx[sel] = draw(u[sel])
        yield start, out_idx


def blocks_estimate(blocks, shots: int, seed) -> tuple[np.ndarray, int]:
    """Per-shot weights for ``shots`` runs, plus the count of shots whose
    weight was forced to exactly zero by a detector threshold.

    Memory is 16 bytes per shot for the weights plus the fixed working set
    of one chunk of draws; weights that cannot be allocated raise
    ``ResourceLimitError``.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    try:
        weights = np.ones(shots, dtype=np.complex128)
    except (MemoryError, ValueError) as exc:
        # numpy raises ValueError for counts whose bytes overflow its size
        # type, from about 2^59 shots
        raise ResourceLimitError(
            f"{shots} shots need {16 * shots} bytes of per-shot weights, more than "
            "can be allocated; reduce shots"
        ) from exc
    for b, block in enumerate(blocks):
        for start, idx in draw_outcomes(block, b, shots, seed):
            weights[start:start + idx.size] *= block.weights[idx]
    discarded = int(np.count_nonzero(weights == 0))
    return weights, discarded


def estimator_statistics(weights) -> tuple[complex, float]:
    """Sample mean and standard error of a sequence of shot weights.

    The standard error uses the n-1 sample standard deviation, computed on
    real and imaginary parts separately and combined as the norm.  A single
    weight has no dispersion estimate; stderr is reported as NaN.
    """
    w = np.asarray(weights, dtype=np.complex128)
    n = w.size
    if n == 0:
        raise ValueError("no weights")
    mean = complex(w.mean())
    if n == 1:
        return mean, math.nan
    se_re = np.std(w.real, ddof=1) / math.sqrt(n)
    se_im = np.std(w.imag, ddof=1) / math.sqrt(n)
    return mean, float(math.hypot(se_re, se_im))
