"""Seeded, reproducible shot sampling and estimator statistics.

Randomness is counter-based: every uniform draw is a pure function of
(root seed, stream id, index), so results never depend on evaluation
order.  The mixer is splitmix64 on Python integers masked to 64 bits.
Shots are tallied, never drawn one by one: a block is the pair (levels, q),
the law of a shot's weight over a few levels, kept as Python lists; the
products of independent blocks' levels form one ``ShotLaw``, and a run
draws how many shots land on each product from the exact law of that
product, one binomial per product.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .fock import ResourceLimitError

__all__ = [
    "ShotLaw",
    "LAW_TOLERANCE",
    "MAX_SHOTS",
    "law_block",
    "estimator_statistics",
    "mean_and_spread",
    "level_law",
    "binomial",
    "blocks_estimate",
    "counter_uniform",
    "derive_seed",
    "seed_root",
]

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

# a level law computed from traces may leave the probability simplex by
# this much through rounding, and is clamped back; farther is refused
LAW_TOLERANCE = 1e-12

# shot counts stay exact in the double-precision sums of the statistics up
# to 2^53 shots
MAX_SHOTS = 1 << 53


def seed_root(seed) -> int:
    """The 64-bit root of an integer seed."""
    return int(seed) & _MASK


def _splitmix64(x: int) -> int:
    """One splitmix64 finalization round of a 64-bit integer."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(seed, label: int) -> int:
    """Child seed for an independent run or stream: the mixed root of
    ``seed`` keyed by ``label``."""
    return _splitmix64(seed_root(seed) ^ ((_GOLDEN * label) & _MASK))


def _keyed_uniform(key: int, index: int) -> float:
    """The uniform in [0, 1) at ``index`` of the stream keyed ``key``: the
    top 53 bits of the mixed index."""
    return (_splitmix64(key ^ ((_GOLDEN * index) & _MASK)) >> 11) * (1.0 / 9007199254740992.0)


def counter_uniform(seed, stream: int, index: int) -> float:
    """The uniform in [0, 1) addressed by (seed, stream, index)."""
    return _keyed_uniform(derive_seed(seed, stream), index)


def _sum(xs: list[float], lanes: int = 8) -> float:
    """The sum numpy's ``sum`` gives a float array of ``xs``, bit for bit:
    below 8 terms a running sum; up to 128 eight interleaved running sums,
    added pairwise, then the rest; beyond, the two halves' sums.  numpy
    adds the whole to its identity 0.0, so no sum is -0.0.  With ``lanes``
    4 it is one part of numpy's sum of a complex array, whose real and
    imaginary parts take turns in the eight running sums."""
    n = len(xs)
    if n > 16 * lanes:
        half = n // 2 - n // 2 % lanes
        return _sum(xs[:half], lanes) + _sum(xs[half:], lanes)
    end = n - n % lanes
    r = [functools.reduce(operator.add, xs[j:end:lanes]) for j in range(lanes)] if end else [0.0]
    while len(r) > 1:
        r = [r[k] + r[k + 1] for k in range(0, len(r), 2)]
    total = 0.0 + r[0]
    for x in xs[end:]:
        total += x
    return total


def _over_count(re: float, im: float, n: int) -> complex:
    """(re + i im) / n as numpy divides a complex by a real count."""
    rat, scl = 0.0 / n, 1.0 / n
    return complex((re + im * rat) * scl, (im - re * rat) * scl)


def mean_and_spread(values) -> tuple[complex, float]:
    """The mean of complex ``values`` and the n-1 sample standard deviations
    of their real and of their imaginary parts, combined as their norm,
    with the bits numpy's ``mean`` and ``std(ddof=1)`` give on an array of
    them.  A single value has no spread; it is reported as NaN."""
    n, parts = len(values), ([v.real for v in values], [v.imag for v in values])
    mean = _over_count(_sum(parts[0], 4), _sum(parts[1], 4), n)
    if n == 1:
        return mean, math.nan
    spreads = []
    for part in parts:
        centre = _sum(part) / n
        spreads.append(math.sqrt(_sum([(x - centre) * (x - centre) for x in part]) / (n - 1)))
    return mean, math.hypot(*spreads)


def law_block(levels, law) -> tuple[list[complex], list[float]]:
    """The block that scores ``levels[i]`` with probability ``law[i]``, as
    the pair (levels, q) of Python complexes and floats.

    A law computed from traces carries rounding.  A part below zero, an
    imaginary part or a sum off 1 by at most LAW_TOLERANCE is clamped: the
    real parts, cut at zero, are renormalised.  A law farther off (or not
    finite) is no probability law, and is refused with a ValueError.
    """
    law = [complex(p) for p in law]
    real = [p.real for p in law]
    total = _sum(real)
    off = max(abs(total - 1.0), -min(real), *(abs(p.imag) for p in law))
    if total != total or any(p.imag != p.imag for p in law):
        off = math.nan  # max may pass over a NaN, wherever it sits
    if not off <= LAW_TOLERANCE:
        raise ValueError(f"level law is off the probability simplex by {off:.3g}, "
                         f"beyond LAW_TOLERANCE = {LAW_TOLERANCE:g}")
    q = [max(x, 0.0) for x in real]
    total = _sum(q)
    return [complex(v) for v in levels], [x / total for x in q]


def level_law(blocks) -> tuple[list[complex], list[float]]:
    """The law of a shot's weight, as (values, q): a shot scores the
    distinct product ``values[i]`` of one weight level of each block with
    probability ``q[i]``.

    Block (levels, q_b) scores level l with probability q_b[l]; blocks are
    independent, so the products of the q_b, visited as numpy's outer
    product would list them and summed in that order onto the distinct
    products of the levels (sorted by real, then imaginary part, as
    ``np.unique`` sorts), are the law of the product.
    """
    values, law = [1 + 0j], [1.0]
    for levels, q in blocks:
        merged = {}
        for value, p in zip(values, law):
            for level, r in zip(levels, q, strict=True):
                key = value * level
                merged[key] = merged.get(key, 0.0) + p * r
        values = sorted(merged, key=lambda v: (v.real, v.imag))
        law = [merged[v] for v in values]
    return values, law


# a binomial with mean n p below this is drawn by inversion, else by BTRD,
# which needs n p >= 10
INVERSION_MEAN = 10.0

# fc(k) = ln k! - ((k + 1/2) ln(k + 1) - (k + 1) + ln(2 pi) / 2), k = 0..9
_STIRLING_TAIL = (0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
                  0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
                  0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
                  0.00833056343336287)


def _stirling_tail(k: int) -> float:
    """fc(k), the error of Stirling's series for ln k!: tabled below 10,
    else its first three terms."""
    if k < len(_STIRLING_TAIL):
        return _STIRLING_TAIL[k]
    s = 1.0 / ((k + 1.0) * (k + 1.0))
    return (1.0 / 12.0 - (1.0 / 360.0 - s / 1260.0) * s) / (k + 1.0)


def _attempts(seed, stream: int):
    """Uniform pairs in (0, 1]: attempt a of ``stream`` reads the counter
    addresses (seed, stream, 2a) and (seed, stream, 2a + 1)."""
    key = derive_seed(seed, stream)
    for index in itertools.count(0, 2):
        yield 1.0 - _keyed_uniform(key, index), 1.0 - _keyed_uniform(key, index + 1)


def _binomial_inversion(n: int, p: float, attempts) -> int:
    """Sequential search up the pmf from 0 for n p < INVERSION_MEAN; an
    attempt whose uniform rounding leaves above the whole mass is redrawn."""
    r = p / (1.0 - p)
    first = math.exp(n * math.log1p(-p))
    for u, _ in attempts:
        k, f = 0, first
        while u > f and f > 0.0:
            u -= f
            k += 1
            f *= r * (n - k + 1) / k
        if f > 0.0:
            return k


def _binomial_btrd(n: int, p: float, attempts) -> int:
    """Transformed rejection with decomposition (BTRD; Hormann, J. Statist.
    Comput. Simul. 46, 101, 1993) for n p >= 10 and p <= 1/2.

    The final acceptance compares ln f(k)/f(m), f the pmf and m its mode,
    with the large logarithms of the paper regrouped through ``log1p`` of
    the offset d = k - m, so the test keeps its accuracy for n up to 2^53.
    """
    q = 1.0 - p
    npq = n * p * q
    spq = math.sqrt(npq)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    num, den = p.as_integer_ratio()
    m = (n + 1) * num // den  # floor((n + 1) p), exactly
    r = p / q
    nr = (n + 1) * r
    for v, w in attempts:
        if v <= 0.86 * v_r:
            u = v / v_r - 0.43
            return math.floor((2.0 * a / (0.5 - abs(u)) + b) * u + c)
        if v >= v_r:
            u = w - 0.5
        else:
            u = v / v_r - 0.93
            u = math.copysign(0.5, u) - u
            v = w * v_r
        us = 0.5 - abs(u)
        if us <= 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v *= alpha / (a / (us * us) + b)
        d = k - m
        if abs(d) <= 15:
            # f(k)/f(m) by the pmf's ratio recurrence
            f = 1.0
            for i in range(m + 1, k + 1):
                f *= nr / i - r
            for i in range(k + 1, m + 1):
                v *= nr / i - r
            if v <= f:
                return k
            continue
        # squeeze on ln f(k)/f(m) around -d^2 / (2 n p q)
        v = math.log(v)
        rho = (abs(d) / npq) * (((abs(d) / 3.0 + 0.625) * abs(d) + 1.0 / 6.0) / npq + 0.5)
        t = -d * d / (2.0 * npq)
        if v < t - rho:
            return k
        if v > t + rho:
            continue
        nm, nk = n - m + 1, n - k + 1
        log_ratio = ((n + 1) * math.log1p(d / nk)
                     + (m + 0.5) * (math.log1p(-d / (k + 1)) + math.log1p(-d / nm))
                     + d * math.log(r * nk / (k + 1))
                     + _stirling_tail(m) + _stirling_tail(n - m)
                     - _stirling_tail(k) - _stirling_tail(n - k))
        if v <= log_ratio:
            return k


def binomial(n: int, p: float, seed, stream: int) -> int:
    """Exact Binomial(n, p) draw, a pure function of its arguments: its
    uniforms come from ``counter_uniform(seed, stream, .)``, two per attempt.

    p > 1/2 draws n - Binomial(n, 1 - p); n p below INVERSION_MEAN
    searches the pmf up from 0, larger means use BTRD.
    """
    if p > 0.5:
        return n - binomial(n, 1.0 - p, seed, stream)
    if n == 0 or p <= 0.0:
        return 0
    draw = _binomial_inversion if n * p < INVERSION_MEAN else _binomial_btrd
    return draw(n, p, _attempts(seed, stream))


class ShotLaw:
    """The ``level_law`` (values, q) of a list of (levels, q) blocks, built
    once for every run that draws from it.  ``conditionals[i]`` is the
    probability of code i given none of codes 0..i-1,
    q_i / (q_i + ... + q_last), for every code but the last; ``zero`` lists
    the codes of weight exactly 0, the discarded shots; ``parts`` splits the
    values into integers for ``estimator_statistics``.  An empty block list
    is refused.
    """

    __slots__ = ("values", "conditionals", "zero", "parts")

    def __init__(self, blocks):
        if not blocks:
            raise ValueError("a shot law needs at least one block; the block list is empty")
        self.values, q = level_law(blocks)
        tails = list(itertools.accumulate(reversed(q)))[::-1]
        self.conditionals = [min(1.0, max(0.0, p / tail)) if tail > 0.0 else 0.0
                             for p, tail in zip(q[:-1], tails)]
        self.zero = [i for i, v in enumerate(self.values) if v == 0]
        self.parts = _integer_parts(self.values)


def blocks_estimate(law: ShotLaw, shots: int, seed):
    """Tally of the weights of ``shots`` shots drawn from ``law``, as
    ((values, counts), discarded): ``counts[i]`` shots scored
    ``values[i]``, a product of one weight level of each block, and
    ``discarded`` of them scored exactly zero because a detector threshold
    was exceeded.

    The counts are one Multinomial(shots, q) draw from the law, made as
    conditional binomials in code order: code i takes Binomial(shots left,
    ``conditionals[i]``) with uniforms from stream i, and the last code
    takes the rest.  No shot is drawn.  A count beyond MAX_SHOTS raises
    ``ResourceLimitError``.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise ResourceLimitError(
            f"{shots} shots need exact counts, which double-precision sums keep only "
            "up to MAX_SHOTS = 2^53 shots; reduce shots"
        )
    counts, left = [], shots
    for i, p in enumerate(law.conditionals):
        drawn = binomial(left, p, seed, i)
        counts.append(drawn)
        left -= drawn
    counts.append(left)
    return (law.values, np.array(counts, dtype=np.int64)), sum(counts[i] for i in law.zero)


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


def _integer_parts(values: list[complex]) -> list[tuple[list[int], list[int], int]]:
    """The real and the imaginary parts of ``values`` as integer
    numerators over one denominator each, with the numerators' squares:
    every part is an integer over a power of two, so over the largest of
    them all are integers."""
    parts = []
    for part in ([v.real for v in values], [v.imag for v in values]):
        ratios = [x.as_integer_ratio() for x in part]
        den = max((q for _, q in ratios), default=1)
        nums = [p * (den // q) for p, q in ratios]
        parts.append((nums, [a * a for a in nums], den))
    return parts


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

    ``values`` may also be the ``ShotLaw`` the counts were drawn from,
    whose split of its values into integers every run reuses.
    """
    parts = values.parts if isinstance(values, ShotLaw) else _integer_parts(
        np.asarray(values, dtype=np.complex128).ravel().tolist())
    counts = counts.tolist() if isinstance(counts, np.ndarray) else [int(c) for c in counts]
    n = sum(counts)
    if n == 0:
        raise ValueError("no shots")
    moments = [(sum(map(operator.mul, nums, counts)), sum(map(operator.mul, squares, counts)), den)
               for nums, squares, den in parts]
    (re, _, re_den), (im, _, im_den) = moments
    mean = _over_count(re / re_den, im / im_den, n)
    if n == 1:
        return mean, math.nan
    spreads = []
    for total, square, den in moments:
        excess = n * square - total * total
        spreads.append(_sqrt_ratio(excess, den * den * n * n * (n - 1)) if excess else 0.0)
    return mean, math.hypot(*spreads)
