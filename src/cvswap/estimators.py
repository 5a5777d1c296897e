"""Cutoff-aware CV SWAP-test estimation.

The shot estimator measures each mode pair after the inverse 50:50
beamsplitter and weights a shot by the parity of the first register's
count when the pair total is within the detector threshold 2M (weight 0
otherwise, still counted in the denominator).  That parity is the SWAP
eigenvalue of the pair, and both commute with every pair total, so a
shot's law follows from the kept weight and the masked swap of the
prepared state; no beamsplitter is applied.  Both come per group of
registers the pairs connect, found in one pass that reads each cutoff
once: for two registers paired mode for mode with nothing cut (the
compiling cost, the DV test, a SWAP test with no threshold) from one
inner product per pair of ensemble components, for two single-mode
registers under a threshold that cuts (the paper's test) from running
sums over their levels in Python scalars, for any other group from one
tensor contraction, none with a padded box or a combination of ensemble
components.  Exact expectations, certified error bounds, reference
formulas and cutoff planners live alongside.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, repeat
from operator import itemgetter, mul

import numpy as np

from .fock import (FockState, MeasurementSpecError, MixedEnsemble, ResourceLimitError,
                   check_working_size, components_of)
from .sampling import ShotLaw, blocks_estimate, estimator_statistics, law_block, seed_root

__all__ = [
    "EstimatorResult",
    "CutoffPlan",
    "MAX_PLAN_ENERGY",
    "MeasurementSpecError",
    "estimate_blocks",
    "normalize_thresholds",
    "cv_swap_estimate",
    "swap2m_expectation",
    "swap2m_profile",
    "parity_overlap_estimate",
    "parity_overlap_expectation",
    "error_bound_global",
    "error_bound_local",
    "cutoff_for_squeezed",
    "cutoff_for_coherent_chernoff",
    "cutoff_for_coherent_normal",
    "cutoff_for_coherent_exact",
    "analytic_squeezed_overlap",
    "analytic_swap2m_squeezed",
    "normal_cdf",
]

class EstimatorResult:
    """Shot-estimator summary.

    ``discarded`` counts shots whose pair total exceeded a detector
    threshold; they contribute weight 0 but remain in the denominator.
    """

    __slots__ = ("mean", "stderr", "shots", "discarded", "seed")

    def __init__(self, mean: complex, stderr: float, shots: int, discarded: int, seed: int):
        if discarded > shots:
            raise ValueError("discarded shots cannot exceed total shots")
        if not math.isnan(stderr) and stderr < 0:
            raise ValueError("stderr must be >= 0")
        self.mean = mean
        self.stderr = stderr
        self.shots = shots
        self.discarded = discarded
        self.seed = seed

    def __eq__(self, other):
        if type(other) is not EstimatorResult:
            return NotImplemented
        return ((self.mean, self.stderr, self.shots, self.discarded, self.seed)
                == (other.mean, other.stderr, other.shots, other.discarded, other.seed))

    def to_dict(self) -> dict:
        return {
            "mean_re": self.mean.real,
            "mean_im": self.mean.imag,
            # a single shot has no dispersion estimate; keep documents
            # strict JSON by mapping NaN to null
            "stderr": None if math.isnan(self.stderr) else self.stderr,
            "shots": self.shots,
            "discarded": self.discarded,
            "seed": self.seed,
        }


class CutoffPlan:
    """Chosen detector threshold with its certified systematic-error bound.

    ``reference_m`` carries the closed-form sufficient threshold reported
    alongside the squeezed-family plan.
    """

    __slots__ = ("M", "bound", "method", "target_eps", "reference_m")

    def __init__(self, M: int, bound: float, method: str, target_eps: float,
                 reference_m: int | None = None):
        if M < 0:
            raise ValueError("threshold must be >= 0")
        self.M = M
        self.bound = bound
        self.method = method
        self.target_eps = target_eps
        self.reference_m = reference_m

    def to_dict(self) -> dict:
        doc = {
            "M": self.M,
            "bound": self.bound,
            "method": self.method,
            "target_eps": self.target_eps,
        }
        if self.reference_m is not None:
            doc["reference_m"] = self.reference_m
        return doc


# ---------------------------------------------------------------------------
# block assembly for parity estimators


def normalize_thresholds(m_per_pair, n_pairs: int) -> list[int | None]:
    """One detector threshold (or None) per pair from None, one int for
    every pair, or a per-pair sequence; every threshold must be >= 0."""
    if m_per_pair is None:
        out = [None] * n_pairs
    elif isinstance(m_per_pair, (int, np.integer)):
        out = [int(m_per_pair)] * n_pairs
    else:
        out = [None if m is None else int(m) for m in m_per_pair]
        if len(out) != n_pairs:
            raise MeasurementSpecError("one threshold per pair required")
    if any(m is not None and m < 0 for m in out):
        raise MeasurementSpecError("thresholds must be >= 0")
    return out


class _Group:
    __slots__ = ("factors", "local_pairs", "thresholds", "base_caps")

    def __init__(self, factors: list, local_pairs: list[tuple[int, int]],
                 thresholds: list[int | None], base_caps: list[int]):
        self.factors = factors  # FockState | MixedEnsemble, modes concatenated
        self.local_pairs = local_pairs
        self.thresholds = thresholds
        self.base_caps = base_caps


def _group_factors(factors: list, pairs, thresholds) -> list[_Group]:
    """Merge product factors connected through measurement pairs."""
    caps = [f.cutoff.per_mode_max for f in factors]
    owner = [i for i, c in enumerate(caps) for _ in c]  # each mode's factor
    total = len(owner)
    for a, b in pairs:
        for m in (a, b):
            if not 0 <= m < total:
                raise MeasurementSpecError(f"pair mode {m} outside the joint register")
    flat = [m for p in pairs for m in p]
    if len(set(flat)) != len(flat):
        raise MeasurementSpecError("measurement pairs must be disjoint")

    # path-halving union-find joining trees under the lower root: links point
    # down, and each group's root, its first factor, orders the groups
    root = list(range(len(factors)))
    for a, b in pairs:
        ra, rb = owner[a], owner[b]
        while ra != root[ra]:
            root[ra] = ra = root[root[ra]]
        while rb != root[rb]:
            root[rb] = rb = root[root[rb]]
        if ra > rb:
            ra, rb = rb, ra
        root[rb] = ra
    groups: dict[int, _Group] = {}
    local = []  # each mode's index in its group
    for i, (f, c) in enumerate(zip(factors, caps)):
        root[i] = r = root[root[i]]  # its lower link's root is final
        g = groups.get(r)
        if g is None:
            g = groups[r] = _Group([], [], [], [])
        g.factors.append(f)
        local.extend(range(len(g.base_caps), len(g.base_caps) + len(c)))
        g.base_caps.extend(c)
    for (a, b), thr in zip(pairs, thresholds):
        g = groups[root[owner[a]]]
        g.local_pairs.append((local[a], local[b]))
        g.thresholds.append(thr)
    return list(groups.values())


def _components(factor) -> tuple:
    """``components_of(factor)``, refusing a zero-norm component."""
    comps = components_of(factor)
    for _, s in comps:
        if s.norm_sq <= 0:
            raise ValueError("zero-norm component")
    return comps


def _pair_mask(rows: int, columns: int, thr: int) -> np.ndarray:
    """The 0/1 matrix of n_a + n_b <= 2 thr."""
    check_working_size(1, rows * columns)
    return np.less_equal.outer(np.arange(rows), np.arange(2 * thr, 2 * thr - columns, -1))


def _pair_expectation(group: _Group, kept: bool, swapped: bool) -> tuple[float | None, float | None]:
    """``_group_expectation`` for two single-mode registers joined by their
    one pair under a threshold that cuts, with no group total, from running
    sums in Python scalars.

    The kept weight is k = sum_n p_A[n] P_B[min(2M - n, top_B - 1)], with
    p a register's diagonal sum_i w_i |psi_i[n]|^2 / |psi_i|^2 over its top
    levels and P its running sum.  The masked swap is s = sum_ij w_i v_j /
    (|psi_i|^2 |phi_j|^2) Re sum_n x_ij[n] conj(X_ij[min(2M - n, cut - 1)]),
    with x_ij[n] = conj(psi_i[n]) phi_j[n] over the shorter cut and X its
    running sum, which is |X_ij[cut - 1]|^2 where the threshold keeps every
    pattern of the cut.  Each row n up to h = 2M - (length - 1) of the
    partner's sum meets all of it, and the rows past h read it in reverse.
    The work is O(rank_A rank_B cut), with no pair matrix.
    """
    (thr,) = group.thresholds
    budget = 2 * thr  # the largest pair total kept
    tops = [min(c, budget) + 1 for c in group.base_caps]
    registers = []
    for factor, top in zip(group.factors, tops):
        comps = _components(factor)
        check_working_size(2 * len(comps) + 2, top)  # amplitudes, conjugates, diagonal, sums
        lists = [s.amplitudes[:top].tolist() for _, s in comps]
        registers.append([(w / s.norm_sq, amps, list(map(complex.conjugate, amps)))
                          for (w, s), amps in zip(comps, lists)])
    k = s = None
    if kept:
        diagonals = []  # complex, with imaginary parts 0
        for comps in registers:
            rows = [map(mul, repeat(c), map(mul, amps, conj)) for c, amps, conj in comps]
            diagonals.append(list(rows[0] if len(rows) == 1 else map(sum, zip(*rows))))
        pa, pb = diagonals
        h, running = budget - len(pb) + 1, list(accumulate(pb))
        tail = sum(map(mul, pa[h + 1:], reversed(running[budget - len(pa) + 1:-1])))
        k = (sum(pa[:h + 1]) * running[-1] + tail).real
    if swapped:
        cut = min(tops)
        h, s = budget - cut + 1, 0.0
        for wa, psi, cpsi in registers[0]:
            cpsi, head = cpsi[:cut], psi[h + 1:cut]
            for wb, phi, cphi in registers[1]:
                if h >= cut - 1:  # every pattern of the cut is kept
                    t = sum(map(mul, cpsi, phi))
                    value = (t * t.conjugate()).real
                else:
                    x = list(accumulate(map(mul, cpsi, phi)))
                    tail = sum(map(mul, map(mul, head, cphi[h + 1:cut]), reversed(x[h:-1])))
                    value = (x[h] * x[-1].conjugate()).real + tail.real
                s += wa * wb * value
    return k, s


def _paired_expectation(group: _Group, kept: bool, swapped: bool) -> tuple[float | None, float | None]:
    """``_group_expectation`` for two registers paired mode for mode, where
    no threshold cuts and there is no group total, from one inner product
    per component pair.

    The kept weight k is the product of the ensemble-weight sums.  The
    masked swap is s = sum_ij w_i v_j |<psi_i|phi_j>|^2 / (|psi_i|^2
    |phi_j|^2), with phi_j's axes transposed into the order of the modes
    of A they pair with, and both registers cut to the box of the shorter
    cutoff of each pair, outside which rho[SWAP n; n] vanishes: one
    ``np.vdot`` per component pair, with no network and no labels.  A
    component is copied once where the cut or the transpose leaves it
    non-contiguous, so no pair copies it again.
    """
    (a, b), caps = group.factors, group.base_caps
    n = len(caps) // 2  # modes per register
    order, shape = [0] * n, [0] * n  # order[m]: B's mode paired with A's mode m
    for p, q in group.local_pairs:
        if p > q:
            p, q = q, p
        order[p], shape[p] = q - n, min(caps[p], caps[q]) + 1
    shape = tuple(shape)
    size, box = math.prod(shape), tuple(map(slice, shape))
    k, registers = 1.0, []
    for factor, axes in ((a, None), (b, None if order == sorted(order) else order)):
        comps = _components(factor)
        check_working_size(2 * len(comps), size)  # its ket and bra
        k *= sum(w for w, _ in comps)
        if swapped:
            views = []
            for w, s in comps:
                amps = s.amplitudes if axes is None else s.amplitudes.transpose(axes)
                if axes is not None or amps.shape != shape:
                    amps = np.ascontiguousarray(amps[box])
                views.append((w / s.norm_sq, amps))
            registers.append(views)
    s = None
    if swapped:
        s = 0.0
        for wa, psi in registers[0]:
            for wb, phi in registers[1]:
                t = complex(np.vdot(psi, phi))
                s += wa * wb * (t.real * t.real + t.imag * t.imag)
    return k if kept else None, s


def _contract(ops, size) -> float:
    """The value of a network of (order key, array, labels) operands, label
    l taking size[l] values, folded in key order into one accumulator per
    connected piece.  An operand joins the open pieces that hold one of its
    labels (several, joined one after another, merge into one), or starts
    its own piece from its array; a label is summed once no later operand
    carries it, and a piece that holds no label left is multiplied into the
    value as a scalar.  Each intermediate is checked against the
    working-space limit before it is allocated.  einsum takes labels below
    52: past them each step is renumbered, and one holding more refused."""
    ops.sort(key=itemgetter(0))
    last = {label: i for i, (_, _, labels) in enumerate(ops) for label in labels}
    value, pieces, owner = 1.0, {}, {}  # owner: the piece holding each open label
    for i, (_, array, labels) in enumerate(ops):
        joined = []
        for label in labels:
            p = owner.get(label)
            if p is not None and p not in joined:
                joined.append(p)
        if not joined:
            keep = [label for label in labels if last[label] > i]
            if len(keep) < len(labels):
                check_working_size(1, math.prod(map(size.__getitem__, keep)))
                array = array.sum(axis=tuple(k for k, label in enumerate(labels) if last[label] == i))
                labels = keep
        for n, p in enumerate(joined, 1):
            acc, held = pieces.pop(p)
            # what the pieces still to join share with the operand stays open
            later = {label for q in joined[n:] for label in pieces[q][1]} if n < len(joined) else ()
            keep = [label for label in dict.fromkeys(held + labels) if last[label] > i or label in later]
            check_working_size(1, math.prod(map(size.__getitem__, keep)))
            if len(size) > 52:
                ids = {label: k for k, label in enumerate(dict.fromkeys(held + labels))}
                if len(ids) > 52:
                    raise ResourceLimitError(
                        f"a contraction step over {len(ids)} modes, registers and running totals "
                        "is beyond einsum's 52 labels; measure fewer modes at once")
                array = np.einsum(acc, [ids[label] for label in held], array,
                                  [ids[label] for label in labels], [ids[label] for label in keep])
            else:
                array = np.einsum(acc, held, array, labels, keep)
            labels = keep
        if labels:
            pieces[i] = array, labels
            for label in labels:
                owner[label] = i
        else:
            value *= complex(array)
    return float(value.real)


def _group_expectation(group: _Group, total_threshold=None, kept=True,
                       swapped=True) -> tuple[float | None, float | None]:
    """(k, s) for one group: the kept weight k = tr(Pi rho) and the masked
    swap s = tr(Pi SWAP rho) = tr(prod_p SWAP_2M_p rho), where Pi keeps the
    patterns whose pair totals (and group total) are within their
    thresholds; ``kept`` False skips k, which no exact value needs, and
    ``swapped`` False skips s, which the cutoff bound does not read.

    With no group total, two registers paired mode for mode, where no
    pair threshold cuts (none, or 2M >= cap_a + cap_b), go to
    ``_paired_expectation``, and two single-mode registers under a
    threshold that cuts go to ``_pair_expectation``.  Any other group
    (three or more factors, a threshold that cuts a multi-mode pair, a
    spectator mode, a pair inside one factor, a group total) is one
    network with a label per mode (``_contract``).  For s a
    factor enters as its ket on the SWAP-relabelled labels and its bra on
    the plain ones, both carrying its component index scaled by
    sqrt(w_i / |psi_i|^2); for k as its diagonal.  A pair threshold cuts
    its modes to 2M + 1 levels and enters as the 0/1 matrix of
    n_a + n_b <= 2M unless it keeps every pattern; a group total cuts every
    mode to 2 m_total + 1 levels and enters as a running total that a step
    tensor per mode advances.  Where no threshold cuts a mode or adds a
    matrix, each diagonal sums to its factor's ensemble weight, so k is the
    product of those weights and builds no network.  For s each paired
    mode is cut to the shorter of its pair, outside which rho[SWAP n; n]
    vanishes.  The labels are the modes, one per factor of more than one
    component and, with a running total, one total per mode.
    """
    caps, pairs = group.base_caps, group.local_pairs
    if total_threshold is None and len(group.factors) == 2:
        for (a, b), thr in zip(pairs, group.thresholds):
            if thr is not None and 2 * thr < caps[a] + caps[b]:
                break
        else:  # nothing is cut: the kernel takes the group if every mode is paired across
            n = len(group.factors[0].cutoff.per_mode_max)
            if 2 * len(pairs) == len(caps) and all([(a < n) != (b < n) for a, b in pairs]):
                return _paired_expectation(group, kept, swapped)
        if len(caps) == 2:
            return _pair_expectation(group, kept, swapped)
    top = [c + 1 if total_threshold is None else min(c, 2 * total_threshold) + 1 for c in caps]
    partner, masks = list(range(len(caps))), []
    for (a, b), thr in zip(pairs, group.thresholds):
        partner[a], partner[b] = b, a
        if thr is not None:
            top[a], top[b] = min(top[a], 2 * thr + 1), min(top[b], 2 * thr + 1)
            if 2 * thr < top[a] + top[b] - 2:  # else every pattern is kept
                masks.append((a, b, thr))
    cut = [min(d, top[p]) for d, p in zip(top, partner)]
    totalled = total_threshold is not None and 2 * total_threshold < sum(top) - len(top)
    summed = kept and not masks and not totalled and all(d > c for d, c in zip(top, caps))
    diagonals, swaps, hi = [], [], 0
    for f, factor in enumerate(group.factors):
        comps = _components(factor)
        lo, hi = hi, hi + factor.modes  # the factor's modes
        check_working_size(2 * len(comps), math.prod(top[lo:hi]))  # its ket and bra
        if kept and not summed:
            box = tuple(map(slice, top[lo:hi]))
            diagonal = sum(w / s.norm_sq * abs(s.amplitudes[box]) ** 2 for w, s in comps)
            diagonals.append(((lo, 0), diagonal, [*range(lo, hi)]))
        if swapped:
            box = tuple(map(slice, cut[lo:hi]))
            kets = [s.amplitudes[box] * math.sqrt(w / s.norm_sq) for w, s in comps]
            ket, own = (np.array(kets), [len(caps) + f]) if len(kets) > 1 else (kets[0], [])
            swaps.append(((lo, 0), ket.conj(), [*own, *range(lo, hi)]))
            swaps.append(((min(partner[lo:hi]), 1), ket, [*own, *partner[lo:hi]]))
    for a, b, thr in masks:
        mask = _pair_mask(top[a], top[b], thr)
        for ops, dims in ((diagonals, top), (swaps, cut)):
            ops.append(((min(a, b), 2), mask[:dims[a], :dims[b]], [a, b]))
    if totalled:
        t = np.arange(2 * total_threshold + 1)
        running = len(caps) + len(group.factors) - 1  # running + m: the total of modes below m
        for m, d in enumerate(top):
            step = (t[:, None, None] + np.arange(d)[:, None] == t) * 1.0
            for ops, dims in ((diagonals, top), (swaps, cut)):
                ops.append(((m, 3), step[0, :dims[m]], [m, running + 1]) if m == 0 else
                           ((m, 3), step[:, :dims[m]], [running + m, m, running + m + 1]))
    size = [len(components_of(f)) for f in group.factors] + [2 * (total_threshold or 0) + 1] * len(caps)
    if summed:  # each diagonal would sum to its factor's ensemble weight
        k = math.prod(sum(w for w, _ in components_of(f)) for f in group.factors)
    else:
        k = _contract(diagonals, top + size) if kept else None
    return k, _contract(swaps, cut + size) if swapped else None


def _group_block(group: _Group, total_threshold=None) -> tuple[list[complex], list[float]]:
    """A group's shot law over the levels (0, 1, -1): a shot is discarded
    with probability 1 - k, and a kept shot's parity is the SWAP eigenvalue,
    +1 with probability (k + s) / 2 and -1 with (k - s) / 2."""
    k, s = _group_expectation(group, total_threshold)
    return law_block([0.0, 1.0, -1.0], [1.0 - k, (k + s) / 2.0, (k - s) / 2.0])


def _integer(value, rule: str) -> int:
    """A Python or numpy integer (not a bool) as an int, else refused."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise MeasurementSpecError(f"{rule}, not {type(value).__name__}")


def estimate_blocks(blocks, shots: int, seed) -> EstimatorResult | list[EstimatorResult]:
    """Shot estimate from independent measurement blocks: mean and standard
    error of the shot weight, from the tally of the draws, with the
    discarded-shot count.

    An integer ``seed`` gives one ``EstimatorResult``.  A flat sequence of
    integer seeds gives a list with one result per seed, in order, each
    equal to the single-seed call: every run draws its tally from one
    ``ShotLaw`` of the blocks, built once.  ``shots`` must be an integer
    >= 1.
    """
    shots = _integer(shots, "shots must be an integer")
    if shots < 1:
        raise MeasurementSpecError("shots must be >= 1")
    many = isinstance(seed, (list, tuple, range)) or (
        isinstance(seed, np.ndarray) and seed.ndim == 1)
    seeds = [_integer(s, "a seed must be an integer or a flat sequence of integers")
             for s in (seed if many else [seed])]
    law = ShotLaw(blocks)
    results = []
    for s in seeds:
        (_, counts), discarded = blocks_estimate(law, shots, s)
        mean, stderr = estimator_statistics(law, counts)
        results.append(EstimatorResult(mean, stderr, shots, discarded, seed_root(s)))
    return results if many else results[0]


# ---------------------------------------------------------------------------
# public estimators


def _require_single_mode(state, name: str) -> None:
    if state.modes != 1:
        raise MeasurementSpecError(f"{name} must be a single-mode state")


def cv_swap_estimate(state_a, state_b, m: int | None, shots: int,
                     seed) -> EstimatorResult | list[EstimatorResult]:
    """Shot estimate of tr(rho sigma) with detector threshold 2m.

    Applies the inverse 50:50 beamsplitter to the pair, samples a pattern
    (n, m'), and scores (-1)^n when n + m' <= 2m, else 0.  ``m`` None
    means no threshold: every shot scores its parity.
    """
    _require_single_mode(state_a, "state_a")
    _require_single_mode(state_b, "state_b")
    return parity_overlap_estimate([state_a, state_b], [(0, 1)], [m], shots, seed)


def _parity_groups(joint, pairs, m_per_pair, m_total) -> list[_Group]:
    factors = [joint] if isinstance(joint, (FockState, MixedEnsemble)) else list(joint)
    if not factors:
        raise MeasurementSpecError("overlap states list is empty")
    pairs = [tuple(p) for p in pairs]
    normalize_thresholds(m_total, 1)  # the group-total threshold obeys the same rule
    return _group_factors(factors, pairs, normalize_thresholds(m_per_pair, len(pairs)))


def parity_overlap_estimate(joint, pairs, m_per_pair, shots: int, seed,
                            m_total=None) -> EstimatorResult | list[EstimatorResult]:
    """Parallel SWAP-test estimate over disjoint mode pairs.

    ``joint`` is a FockState/MixedEnsemble or a sequence of them read as a
    tensor product (modes concatenated).  The shot weight is the parity of
    the summed first-of-pair counts, zeroed whenever any pair exceeds its
    threshold, or, with ``m_total``, whenever the total photon count of the
    factors a measurement connects exceeds 2 m_total.  Expectation equals
    tr(prod_p SWAP_2M_p . joint density).  Each group of factors that the
    pairs connect is one block.
    """
    blocks = [_group_block(g, m_total) for g in _parity_groups(joint, pairs, m_per_pair, m_total)]
    return estimate_blocks(blocks, shots, seed)


def parity_overlap_expectation(joint, pairs, m_per_pair, m_total=None) -> float:
    """Exact expectation of the parity estimator (no sampling): the product
    over groups of the masked swap s that the group's shot law reads."""
    value = 1.0
    for g in _parity_groups(joint, pairs, m_per_pair, m_total):
        value *= _group_expectation(g, m_total, kept=False)[1]
    return value


def _two_modes(joint) -> list:
    """The factors of a two-mode input: one two-mode joint register, or a
    pair [a, b] of single-mode registers read as their product."""
    factors = [joint] if isinstance(joint, (FockState, MixedEnsemble)) else list(joint)
    if [f.modes for f in factors] not in ([2], [1, 1]):
        raise MeasurementSpecError("joint must be a two-mode state or a pair of single-mode states")
    return factors


def swap2m_expectation(joint, m: int) -> float:
    """Exact tr(SWAP_2M rho) of a two-mode input (a joint register or a
    pair of single-mode ones): the SWAP observable kept on pair totals
    n + m' <= 2m, which equals sum_{n+m'<=2m} (-1)^n p(n, m') over the
    pattern distribution after the measurement beamsplitter."""
    return swap2m_profile(joint, [m])[0]


def swap2m_profile(joint, m_values) -> list[float]:
    """swap2m_expectation for several thresholds; one with 2m at or above
    the pair's photon budget keeps every pattern and adds no mask.  A pair
    of single-mode registers takes the two-register kernels and builds no
    joint register."""
    factors = _two_modes(joint)
    return [parity_overlap_expectation(factors, [(0, 1)], m) for m in m_values]


# ---------------------------------------------------------------------------
# systematic-error bounds


def error_bound_global(joint, m: int) -> float:
    """1 - q_2M: weight of the two-mode input (a joint register or a pair of
    single-mode ones) outside the total-photon <= 2M subspace, 1 - k of the
    pair's parity group; upper bound on the cutoff-induced systematic
    error."""
    (group,) = _parity_groups(_two_modes(joint), [(0, 1)], m, None)
    return max(0.0, 1.0 - _group_expectation(group, swapped=False)[0])


def error_bound_local(rho, sigma, m: int) -> float:
    """1 - q^rho_M q^sigma_M from each register's weight on n <= M; always
    dominates the global bound of the product state."""
    _require_single_mode(rho, "rho")
    _require_single_mode(sigma, "sigma")
    (m,) = normalize_thresholds(m, 1)
    kept = 1.0
    for register in (rho, sigma):
        kept *= sum(w / s.norm_sq * float(np.sum(abs(s.amplitudes[:m + 1]) ** 2))
                    for w, s in _components(register))
    return max(0.0, 1.0 - kept)


# ---------------------------------------------------------------------------
# analytic reference formulas (squeezed/anti-squeezed pair)


def analytic_squeezed_overlap(r: float) -> float:
    """|<psi|phi>|^2 for squeezed and anti-squeezed vacuum of strength r."""
    return 1.0 / math.cosh(2.0 * r)


def analytic_swap2m_squeezed(r: float, m: int) -> float:
    """Finite-threshold value (1 +/- tanh^{2(M+1)} r) / cosh 2r, sign by
    the parity of M."""
    sign = 1.0 if m % 2 == 0 else -1.0
    return (1.0 + sign * math.tanh(r) ** (2 * (m + 1))) / math.cosh(2.0 * r)


# ---------------------------------------------------------------------------
# normal distribution helpers


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# detector-cutoff planners


# the planners refuse inputs whose mean photon number per mode exceeds this:
# a pair of modes at cutoff 4095 already fills the 2^24-entry working space,
# so no state here holds such an energy, and the exact tail scan takes time
# in proportion to it
MAX_PLAN_ENERGY = 1e5


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise MeasurementSpecError("eps must lie in (0, 1)")
    return eps


def _check_energy(energy: float) -> float:
    energy = float(energy)
    if not energy > 0:
        raise MeasurementSpecError("energy must be > 0")
    if energy > MAX_PLAN_ENERGY:
        raise MeasurementSpecError(
            f"energy {energy:g} exceeds MAX_PLAN_ENERGY = {MAX_PLAN_ENERGY:g} photons per mode")
    return energy


def cutoff_for_squeezed(r: float, eps: float) -> CutoffPlan:
    """Smallest M with tanh^{2(M+1)} r <= eps (exact tail of the
    squeezed/anti-squeezed pair); also reports the large-r sufficient
    threshold ceil(e^{2r}/4 ln(1/eps) - 1).  The mean photon number
    sinh^2 r may not exceed MAX_PLAN_ENERGY."""
    if not r > 0:
        raise MeasurementSpecError("squeezing strength must be > 0")
    r_max = math.asinh(math.sqrt(MAX_PLAN_ENERGY))
    if r > r_max:
        raise MeasurementSpecError(
            f"squeezing strength {r:g} exceeds {r_max:.4f}, where sinh^2 r reaches "
            f"MAX_PLAN_ENERGY = {MAX_PLAN_ENERGY:g} photons per mode")
    eps = _check_eps(eps)
    log_t2 = 2.0 * math.log(math.tanh(r))
    m = max(0, math.ceil(math.log(eps) / log_t2 - 1.0))
    while m > 0 and math.tanh(r) ** (2 * m) <= eps:
        m -= 1
    while math.tanh(r) ** (2 * (m + 1)) > eps:
        m += 1
    reference = max(0, math.ceil(math.exp(2.0 * r) / 4.0 * -math.log(eps) - 1.0))
    return CutoffPlan(m, math.tanh(r) ** (2 * (m + 1)), "squeezed_closed_form", eps, reference)


def _chernoff_log_bound(energy: float, m: int) -> float:
    # log of (eE/M)^{2M} e^{-2E}, valid for M > E
    return 2.0 * m * (1.0 + math.log(energy) - math.log(m)) - 2.0 * energy


def cutoff_for_coherent_chernoff(energy: float, eps: float) -> CutoffPlan:
    """Candidate M = ceil(1.3 E + ln(1/eps)), bumped upward until the
    Poisson Chernoff tail bound (eE/M)^{2M} e^{-2E} drops below eps."""
    energy = _check_energy(energy)
    eps = _check_eps(eps)
    m = math.ceil(1.3 * energy - math.log(eps))
    while _chernoff_log_bound(energy, m) > math.log(eps):
        m += 1
    bound = math.exp(min(_chernoff_log_bound(energy, m), 0.0))
    return CutoffPlan(m, bound, "chernoff", eps)


def cutoff_for_coherent_normal(energy: float, eps: float) -> CutoffPlan:
    """M = ceil(E + sqrt(E) Phi^{-1}(sqrt(1-eps))) under the normal
    approximation to the Poisson marginals; refuses small energies where
    that approximation is not justified."""
    energy = _check_energy(energy)
    if energy < 25.0:
        raise MeasurementSpecError(
            "normal-quantile planning needs energy >= 25; use the Chernoff planner instead"
        )
    eps = _check_eps(eps)
    level = math.sqrt(1.0 - eps)
    if level == 1.0:
        raise RuntimeError(f"normal-quantile planning cannot resolve eps = {eps:g}: "
                           "sqrt(1 - eps) rounds to 1 in double precision")
    from statistics import NormalDist  # imports fractions and decimal; only this planner needs it

    m = max(0, math.ceil(energy + math.sqrt(energy) * NormalDist().inv_cdf(level)))
    bound = 1.0 - normal_cdf((m - energy) / math.sqrt(energy)) ** 2
    return CutoffPlan(m, min(max(bound, 0.0), 1.0), "normal_quantile", eps)


def cutoff_for_coherent_exact(energy: float, eps: float) -> CutoffPlan:
    """Smallest M with the exact Poisson(2E) tail above 2M at or below eps
    (the total photon count of an isoenergetic coherent pair).

    The tail is summed from its upper end down, smallest terms first, so
    it keeps its relative precision however small it is.  The terms run up
    from the mode to the first one below the smallest normal double; each
    later term shrinks by a factor 2E/(j + 1) < 1, which bounds the weight
    past them, and that bound is added to every tail.  An eps below the
    bound cannot be certified and is refused.
    """
    energy = _check_energy(energy)
    eps = _check_eps(eps)
    lam = 2.0 * energy
    mode = math.floor(lam)
    term = math.exp(-lam + mode * math.log(lam) - math.lgamma(mode + 1))
    upper = [term]  # upper[i] = pmf(mode + i)
    k = mode
    while term >= sys.float_info.min or k % 2:
        k += 1
        term *= lam / k
        upper.append(term)
    # P(X > k) <= pmf(k) sum_i (lam / (k + 1))^i, and pmf(k) is below the
    # smallest normal double
    tail = sys.float_info.min * lam / (k + 1 - lam)
    if tail > eps:
        raise RuntimeError(
            f"Poisson tail cannot be certified below {tail:.3g} in double precision, "
            f"above eps = {eps:g}")
    m, bound = k // 2, tail
    pmf = 0.0
    for j in range(k, 0, -1):
        # adding pmf(j) gives the tail above j - 1
        pmf = upper[j - mode] if j >= mode else pmf * (j + 1) / lam
        tail += pmf
        if j % 2 == 1:
            if tail > eps:
                break
            m, bound = (j - 1) // 2, tail
    return CutoffPlan(m, bound, "exact_tail", eps)
