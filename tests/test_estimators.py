import functools
import math
import time
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson

from cvswap import estimators as est, fock, protocols as proto
from cvswap.estimators import CutoffPlan, EstimatorResult
from cvswap.fock import CutoffSpec, FockState, MixedEnsemble
from cvswap.sampling import level_law

from conftest import (
    Beamsplitter,
    apply_beamsplitter,
    assert_same_law,
    ensemble_combinations,
    inner_product,
    measurement_block,
    pad,
    padded_group_expectation,
    quadratic_group_factors,
    random_ensemble,
    random_pure,
    run_circuit,
)


# ---------------------------------------------------------------------------
# result types


def test_estimator_result_validation():
    EstimatorResult(0.5 + 0j, 0.01, 100, 3, 7)
    with pytest.raises(ValueError):
        EstimatorResult(0.5 + 0j, -0.1, 100, 0, 7)
    with pytest.raises(ValueError):
        EstimatorResult(0.5 + 0j, 0.1, 100, 101, 7)


def test_estimator_results_compare_by_value():
    res = EstimatorResult(0.5 + 0.25j, 0.01, 100, 3, 7)
    assert res == EstimatorResult(0.5 + 0.25j, 0.01, 100, 3, 7)
    assert res != EstimatorResult(0.5 + 0.25j, 0.01, 100, 3, 8)
    assert res != (0.5 + 0.25j, 0.01, 100, 3, 7)


def test_cutoff_plan_validation():
    with pytest.raises(ValueError):
        CutoffPlan(-1, 0.1, "chernoff", 0.5)


def test_estimator_result_json_roundtrip():
    res = EstimatorResult(0.25 - 0.125j, 0.5, 10, 1, 42)
    doc = res.to_dict()
    assert doc == {
        "mean_re": 0.25,
        "mean_im": -0.125,
        "stderr": 0.5,
        "shots": 10,
        "discarded": 1,
        "seed": 42,
    }
    single = EstimatorResult(1.0 + 0j, math.nan, 1, 0, 3)
    assert single.to_dict()["stderr"] is None


def test_cutoff_plan_json_roundtrip():
    plan = est.cutoff_for_squeezed(1.0, 0.01)
    assert plan.to_dict() == {"M": plan.M, "bound": plan.bound, "method": plan.method,
                              "target_eps": 0.01, "reference_m": plan.reference_m}
    plain = est.cutoff_for_coherent_chernoff(2.0, 0.05)
    assert plain.reference_m is None and "reference_m" not in plain.to_dict()


# ---------------------------------------------------------------------------
# the shot estimator


def test_vacuum_pair_estimates_one():
    vac = fock.basis_state((0,), CutoffSpec((2,)))
    for m in (0, 1, 5):
        res = est.cv_swap_estimate(vac, vac, m, 300, 1)
        assert res.mean == 1.0 + 0j and res.stderr == 0.0 and res.discarded == 0


def test_zero_shots_rejected():
    vac = fock.basis_state((0,), CutoffSpec((2,)))
    with pytest.raises(ValueError):
        est.cv_swap_estimate(vac, vac, 1, 0, 1)


def test_squeezed_pair_sampled_mean():
    cut = CutoffSpec((30,))
    plus = fock.prepare("squeezed", cut, z=1.0)
    minus = fock.prepare("squeezed", cut, z=-1.0)
    res = est.cv_swap_estimate(plus, minus, 30, 100_000, 13)
    want = est.analytic_squeezed_overlap(1.0)
    assert abs(res.mean.real - want) <= 5 * res.stderr
    assert abs(res.mean.imag) == 0.0


def test_swap2m_matches_closed_form_at_finite_m():
    cut = CutoffSpec((40,))
    joint = fock.tensor(
        fock.prepare("squeezed", cut, z=1.0),
        fock.prepare("squeezed", cut, z=-1.0),
    )
    for m in range(0, 12):
        got = est.swap2m_expectation(joint, m)
        want = est.analytic_swap2m_squeezed(1.0, m)
        # limited by the preparation truncation of the squeezed inputs
        assert got == pytest.approx(want, abs=1e-5)


def test_swap2m_vacuum():
    joint = fock.basis_state((0, 0), CutoffSpec((3, 3)))
    assert est.swap2m_expectation(joint, 0) == pytest.approx(1.0, abs=1e-14)


def test_swap2m_equals_overlap_at_full_m(rng):
    cut = CutoffSpec((10,))
    for _ in range(15):
        a, b = random_pure(rng, 10), random_pure(rng, 10)
        want = abs(inner_product(a, b)) ** 2
        got = est.swap2m_expectation(fock.tensor(a, b), 10)
        assert got == pytest.approx(want, abs=1e-10)


def test_unbiasedness_by_enumeration(rng):
    # full enumeration of the sampled pattern distribution times the shot
    # weights reproduces swap2m_expectation
    a, b = random_pure(rng, 7), random_pure(rng, 7)
    for m in (1, 3, 7):
        groups = est._group_factors([a, b], [(0, 1)], [m])
        levels, q = est._group_block(groups[0])
        enumerated = float(np.dot(q, np.real(levels)))
        assert enumerated == pytest.approx(est.swap2m_expectation(fock.tensor(a, b), m), abs=1e-12)


def test_mixed_state_estimation(rng):
    rho = random_ensemble(rng, 5, 2)
    sigma = random_ensemble(rng, 5, 3)
    from conftest import density_matrix

    want = float(np.trace(density_matrix(rho) @ density_matrix(sigma)).real)
    got = est.parity_overlap_expectation([rho, sigma], [(0, 1)], 5)
    assert got == pytest.approx(want, abs=1e-10)
    res = est.cv_swap_estimate(rho, sigma, 5, 60_000, 3)
    assert abs(res.mean.real - want) <= 5 * res.stderr


def test_parity_single_pair_is_cv_path(rng):
    a, b = random_pure(rng, 6), random_pure(rng, 6)
    r1 = est.cv_swap_estimate(a, b, 6, 4000, 9)
    r2 = est.parity_overlap_estimate([a, b], [(0, 1)], 6, 4000, 9)
    assert r1 == r2


def test_parity_with_unequal_cutoffs(rng):
    # pads are asymmetric: the sampled enumeration, the operator route,
    # and the padded-distribution route must still agree
    a = random_pure(rng, 7)
    b = random_pure(rng, 3)
    joint = fock.tensor(a, pad(b, (7,)))
    for m in (1, 3, 5):
        overlap_route = est.swap2m_expectation(joint, m)
        operator_route = est.parity_overlap_expectation([a, b], [(0, 1)], m)
        groups = est._group_factors([a, b], [(0, 1)], [m])
        levels, q = est._group_block(groups[0])
        enumerated = float(np.dot(q, np.real(levels)))
        assert operator_route == pytest.approx(overlap_route, abs=1e-12)
        assert enumerated == pytest.approx(overlap_route, abs=1e-12)


def test_parity_dual_routes_on_entangled_joint(rng):
    # the masked-pair-swap expectation and the post-beamsplitter
    # distribution agree on entangled two-mode inputs, pure or mixed
    cut = CutoffSpec((6, 6))
    amps = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    amps /= np.linalg.norm(amps)
    joint = fock.FockState(cut, amps)
    ens = MixedEnsemble(((0.5, joint), (0.5, fock.basis_state((1, 1), cut))))
    for state in (joint, ens):
        for m in (1, 3, 6, 12):
            a = est.parity_overlap_expectation([state], [(0, 1)], m)
            [group] = est._group_factors([state], [(0, 1)], [m])
            levels, q = est._group_block(group)
            b = float(np.dot(q, np.real(levels)))
            assert a == pytest.approx(b, abs=1e-12)


def test_sampling_block_exact_at_large_pair_totals():
    # pair totals up to 200: the shot block's expectation must still be the
    # exact value, which needs unitary beamsplitter blocks at every total
    cut = CutoffSpec((100,))
    a = fock.prepare("squeezed", cut, z=1.2)
    b = fock.prepare("squeezed", cut, z=-1.2)
    [group] = est._group_factors([a, b], [(0, 1)], [100])
    block = est._group_block(group)
    exact = est.parity_overlap_expectation([a, b], [(0, 1)], 100)
    assert abs(np.dot(*level_law([block])) - exact) < 1e-10


def test_parity_rejects_overlapping_pairs(rng):
    a = random_pure(rng, 3, modes=2)
    b = random_pure(rng, 3, modes=2)
    with pytest.raises(ValueError):
        est.parity_overlap_estimate([a, b], [(0, 2), (0, 3)], None, 10, 0)


def test_estimator_determinism(rng):
    a, b = random_pure(rng, 6), random_pure(rng, 6)
    r1 = est.cv_swap_estimate(a, b, 4, 2000, 77)
    r2 = est.cv_swap_estimate(a, b, 4, 2000, 77)
    assert r1 == r2


def test_discarded_shots_counted(rng):
    # single photons meet a threshold of zero photons half the time
    cut = CutoffSpec((1,))
    one = fock.basis_state((1,), cut)
    res = est.cv_swap_estimate(one, one, 0, 20_000, 5)
    assert res.discarded > 0
    assert res.discarded <= res.shots
    assert abs(res.mean) <= 1.0 + 3.0 * res.stderr


def test_shot_weights_bounded(rng):
    a, b = random_pure(rng, 5), random_pure(rng, 5)
    groups = est._group_factors([a, b], [(0, 1)], [2])
    levels, _ = est._group_block(groups[0])
    assert np.all(np.abs(levels) <= 1.0 + 1e-15)


def _dense_sampling_block(group, total_threshold=None):
    """Oracle: each pair's cutoffs padded to the pair total, the dense
    beamsplitters, and weights on the padded grid."""
    caps = list(group.base_caps)
    for a, b in group.local_pairs:
        s = group.base_caps[a] + group.base_caps[b]
        caps[a] = max(caps[a], s)
        caps[b] = max(caps[b], s)
    shape = tuple(c + 1 for c in caps)
    combos = ensemble_combinations(group.factors)
    gates = [Beamsplitter(math.pi / 4.0, math.pi, a, b) for a, b in group.local_pairs]
    amps = np.stack([
        run_circuit(pad(functools.reduce(fock.tensor, states), caps), gates).amplitudes
        for _, states in combos
    ])
    counts = np.indices(shape).reshape(len(shape), -1)
    weights = np.ones(counts.shape[1])
    for (a, b), thr in zip(group.local_pairs, group.thresholds):
        if thr is not None:
            weights = weights * (counts[a] + counts[b] <= 2 * thr)
    if total_threshold is not None:
        weights = weights * (counts.sum(axis=0) <= 2 * total_threshold)
    for a, _ in group.local_pairs:
        weights = weights * np.where(counts[a] % 2 == 0, 1.0, -1.0)
    # every outcome is its own weight level
    return measurement_block([w for w, _ in combos], amps, weights, np.arange(weights.size)), shape


def _random_factor(rng, caps, rank):
    def pure():
        amps = rng.normal(size=[c + 1 for c in caps]) + 1j * rng.normal(size=[c + 1 for c in caps])
        return FockState(CutoffSpec(caps), amps / np.linalg.norm(amps))
    if rank == 1:
        return pure()
    w = rng.uniform(0.2, 0.8)
    return MixedEnsemble(((w, pure()), (1.0 - w, pure())))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_sampling_block_matches_padded_oracle(seed):
    # random layouts: one to three factors of one or two modes with unequal
    # cutoffs, rank 1 or 2, one or two pairs (the rest are spectators), and
    # per-pair and total thresholds
    rng = np.random.default_rng(seed)
    factors = [_random_factor(rng, tuple(int(c) for c in rng.integers(0, 4, size=rng.integers(1, 3))),
                              int(rng.integers(1, 3)))
               for _ in range(rng.integers(1, 4))]
    n_modes = sum(f.modes for f in factors)
    if n_modes < 2:
        factors.append(_random_factor(rng, (int(rng.integers(0, 4)),), 1))
        n_modes += 1
    order = [int(m) for m in rng.permutation(n_modes)]
    n_pairs = int(rng.integers(1, min(2, n_modes // 2) + 1))
    pairs = [(order[2 * k], order[2 * k + 1]) for k in range(n_pairs)]
    thresholds = [None if rng.random() < 0.4 else int(rng.integers(0, 5)) for _ in pairs]
    total = None if rng.random() < 0.5 else int(rng.integers(0, 7))
    for group in est._group_factors(factors, pairs, thresholds):
        oracle, _ = _dense_sampling_block(group, total)
        assert_same_law(est._group_block(group, total), oracle)


def _dense_signed_total_mass(joint):
    """Oracle: the pair padded to its total capacity and the dense beamsplitter."""
    c1, c2 = joint.cutoff.per_mode_max
    shape = (c1 + c2 + 1, c1 + c2 + 1)
    signs = np.where(np.arange(shape[0]) % 2 == 0, 1.0, -1.0)[:, None]
    totals = np.add.outer(np.arange(shape[0]), np.arange(shape[1])).ravel()
    g = np.zeros(2 * (c1 + c2) + 1)
    for w, pure in fock.components_of(joint):
        state = apply_beamsplitter(pad(pure, (c1 + c2, c1 + c2)),
                                   Beamsplitter(math.pi / 4.0, math.pi, 0, 1))
        p = np.abs(state.amplitudes) ** 2
        g += w * np.bincount(totals, weights=(p * signs).ravel(), minlength=g.size) / p.sum()
    return g


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_swap2m_profile_matches_padded_oracle(c1, c2, rank, seed):
    joint = _random_factor(np.random.default_rng(seed), (c1, c2), rank)
    m_values = list(range(c1 + c2 + 2))
    want = np.cumsum(_dense_signed_total_mass(joint))
    got = est.swap2m_profile(joint, m_values)
    assert np.max(np.abs(np.array(got) - want[np.minimum(2 * np.array(m_values), want.size - 1)])) < 1e-12


def _unnormalised_factor(rng, caps, rank):
    """A pure state on ``caps`` of random norm, or a mixture of ``rank`` of
    them: the contraction scales each component by its own norm."""
    def pure():
        shape = [c + 1 for c in caps]
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return FockState(CutoffSpec(caps), amps * rng.uniform(0.2, 3.0) / np.linalg.norm(amps))
    if rank == 1:
        return pure()
    w = rng.random(rank) + 0.1
    return MixedEnsemble(tuple((float(x), pure()) for x in w / w.sum()))


def _assert_group_expectation_is_the_padded_box(factors, pairs, thresholds, total):
    for group in est._group_factors(factors, pairs, thresholds):
        k, s = est._group_expectation(group, total)
        want_k, want_s = padded_group_expectation(group, total)
        assert abs(k - want_k) <= 1e-12 and abs(s - want_s) <= 1e-12
        assert est._group_expectation(group, total, kept=False) == (None, s)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_group_expectation_matches_the_padded_box(seed):
    # one to three factors of one or two modes with unequal cutoffs, rank 1
    # to 3 and random norms; pairs inside one factor and across factors,
    # the modes left over as spectators, per-pair thresholds and, half the
    # time, a group total
    rng = np.random.default_rng(seed)
    factors = [_unnormalised_factor(rng, tuple(int(c) for c in rng.integers(0, 5, size=rng.integers(1, 3))),
                                    int(rng.integers(1, 4)))
               for _ in range(rng.integers(1, 4))]
    while sum(f.modes for f in factors) < 2:
        factors.append(_unnormalised_factor(rng, (int(rng.integers(0, 5)),), int(rng.integers(1, 3))))
    order = [int(m) for m in rng.permutation(sum(f.modes for f in factors))]
    pairs = [(order[2 * k], order[2 * k + 1]) for k in range(int(rng.integers(1, len(order) // 2 + 1)))]
    thresholds = [None if rng.random() < 0.3 else int(rng.integers(0, 5)) for _ in pairs]
    total = None if rng.random() < 0.5 else int(rng.integers(0, 8))
    _assert_group_expectation_is_the_padded_box(factors, pairs, thresholds, total)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_grouping_matches_the_quadratic_relabelling(data):
    # random factor counts, mode counts and caps, pure factors and mixtures
    # of 1-3 components (whose cutoff is their first component's), and
    # random disjoint pair sets: the same groups, members, local pairs,
    # thresholds and caps, in the same order
    modes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=14), label="modes")
    factors = []
    for m in modes:
        cutoff = CutoffSpec(data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))
        ranks = data.draw(st.integers(0, 3), label="components")  # 0: a pure factor
        pure = [FockState(cutoff, np.ones(cutoff.shape)) for _ in range(max(ranks, 1))]
        factors.append(MixedEnsemble([(1.0 / ranks, s) for s in pure]) if ranks else pure[0])
    order = data.draw(st.permutations(range(sum(modes))), label="pairing")
    n_pairs = data.draw(st.integers(0, len(order) // 2), label="pairs")
    pairs = [(order[2 * p], order[2 * p + 1]) for p in range(n_pairs)]
    thresholds = data.draw(st.lists(st.none() | st.integers(0, 4), min_size=n_pairs,
                                    max_size=n_pairs), label="thresholds")
    index = {id(f): i for i, f in enumerate(factors)}
    got = [([index[id(f)] for f in g.factors], g.local_pairs, g.thresholds, g.base_caps)
           for g in est._group_factors(factors, pairs, thresholds)]
    assert got == quadratic_group_factors(factors, pairs, thresholds)


@pytest.mark.parametrize("caps, pairs, thresholds, total", [
    ([(3,), (5,)], [(0, 1)], [2], None),  # across factors, unequal cutoffs
    ([(4, 2)], [(1, 0)], [1], None),  # inside one factor
    ([(2, 3), (4,)], [(1, 2)], [None], 2),  # a spectator and a group total
    ([(2, 3), (3, 1)], [(0, 3), (2, 1)], [0, 3], 3),  # two factors joined twice
    ([(2,), (3, 2), (1,)], [(0, 2), (1, 3)], [1, None], None),  # a chain of three
])
def test_group_expectation_matches_the_padded_box_on_each_layout_kind(rng, caps, pairs, thresholds,
                                                                       total):
    factors = [_unnormalised_factor(rng, c, 1 + i % 3) for i, c in enumerate(caps)]
    _assert_group_expectation_is_the_padded_box(factors, pairs, thresholds, total)


def test_padded_box_comparison_sees_a_wrong_masked_swap(rng, monkeypatch):
    # the comparison above fails when the masked swap leaves out the swap
    # and the mask, though the kept weight is right
    factors = [_unnormalised_factor(rng, (3,), 2), _unnormalised_factor(rng, (4,), 1)]
    [group] = est._group_factors(factors, [(0, 1)], [2])
    unswapped = est._Group(group.factors, [], [], group.base_caps)
    monkeypatch.setattr(est, "_group_expectation", lambda g, total=None, kept=True: (
        padded_group_expectation(g, total)[0], padded_group_expectation(unswapped, total)[1]))
    with pytest.raises(AssertionError):
        _assert_group_expectation_is_the_padded_box(factors, [(0, 1)], [2], None)


def test_a_group_beyond_einsum_labels_is_a_resource_limit():
    # einsum takes 52 labels, so a contraction step that holds more is
    # refused: a register of 53 one-level modes, 26 pairs of them measured,
    # holds all 53 in the step that joins its bra to its ket
    vacuum = fock.basis_state((0,) * 53, CutoffSpec((0,) * 53))
    pairs = [(k, 26 + k) for k in range(26)]
    for run in (lambda: est.parity_overlap_expectation(vacuum, pairs, None),
                lambda: est.parity_overlap_estimate(vacuum, pairs, None, 10, 1)):
        with pytest.raises(fock.ResourceLimitError, match="a contraction step over 53 modes, "
                                                          "registers and running totals"):
            run()
    # two 13-mode registers with a group total that cuts name 26 modes and
    # 26 running totals, past 52 labels, but no step holds more than a few
    vacuum = fock.basis_state((0,) * 13, CutoffSpec((1,) * 13))
    states, pairs = [vacuum, vacuum], [(k, 13 + k) for k in range(13)]
    assert est.parity_overlap_expectation(states, pairs, None, 1) == 1.0
    assert est.parity_overlap_estimate(states, pairs, None, 10, 1, 1).mean == 1.0


def test_a_network_that_falls_apart_is_no_outer_product(rng, monkeypatch):
    # with no threshold a 4-mode register paired with two 2-mode registers
    # is a group of three factors, which the fold serves; its masked swap
    # is a product of two inner products, and each piece sums the 4-mode
    # register's labels as its partners join, so no step holds both sides'
    # eight labels, a loop over 4^8 terms
    states = [random_pure(rng, 3, modes=4), random_pure(rng, 3, modes=2), random_pure(rng, 3, modes=2)]
    einsum, steps = np.einsum, []

    def spy(*operands):
        steps.append(len({label for labels in operands[1::2] for label in labels}))
        return einsum(*operands)

    monkeypatch.setattr(np, "einsum", spy)
    est.parity_overlap_estimate(states, [(k, 4 + k) for k in range(4)], None, 10, 1)
    assert steps and max(steps) == 4


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_group_expectation_matches_the_padded_box_where_its_network_falls_apart(seed):
    # two or three factors of up to three modes, pure or rank-2 mixtures
    # (whose own label joins their bra and ket), paired across factors in
    # a random order, so the fold holds pieces that interleave in key
    # order and merge; no threshold, pair thresholds (some keeping every
    # pattern) or a group total.  A group that nothing cuts reads k as the
    # product of its factors' ensemble-weight sums
    rng = np.random.default_rng(seed)
    factors = [_unnormalised_factor(rng, tuple(int(c) for c in rng.integers(0, 3, size=rng.integers(1, 4))),
                                    1 if rng.random() < 0.7 else 2)
               for _ in range(rng.integers(2, 4))]
    order = [int(m) for m in rng.permutation(sum(f.modes for f in factors))]
    pairs = [(order[2 * k], order[2 * k + 1]) for k in range(int(rng.integers(1, len(order) // 2 + 1)))]
    kind = int(rng.integers(0, 3))
    thresholds = [None if kind == 0 or rng.random() < 0.3 else int(rng.integers(0, 4)) for _ in pairs]
    total = int(rng.integers(0, 7)) if kind == 2 else None
    for group in est._group_factors(factors, pairs, thresholds):
        k, s = est._group_expectation(group, total)
        want_k, want_s = padded_group_expectation(group, total)
        assert abs(k - want_k) <= 1e-12 and abs(s - want_s) <= 1e-12
        caps = group.base_caps
        if (all(t is None or 2 * t >= caps[a] + caps[b] for (a, b), t in zip(group.local_pairs, group.thresholds))
                and (total is None or 2 * total >= sum(caps))):
            assert k == math.prod(sum(w for w, _ in fock.components_of(f)) for f in group.factors)


def test_global_bound_contracts_only_the_kept_weight_network(monkeypatch):
    # the bound reads k alone: one network per call, and the bound the
    # group's full (k, s) gives
    cut = CutoffSpec((40,))
    pure = fock.tensor(fock.prepare("squeezed", cut, z=1.0), fock.prepare("squeezed", cut, z=-1.0))
    other = fock.tensor(fock.prepare("coherent", cut, alpha=0.8), fock.prepare("squeezed", cut, z=0.5))
    contract, networks = est._contract, []

    def spy(ops, size):
        networks.append(ops)
        return contract(ops, size)

    for joint in (pure, MixedEnsemble(((0.3, pure), (0.7, other)))):
        for m in (0, 3, 6, 19):
            (group,) = est._parity_groups(joint, [(0, 1)], m, None)
            want = max(0.0, 1.0 - est._group_expectation(group)[0])
            networks.clear()
            monkeypatch.setattr(est, "_contract", spy)
            got = est.error_bound_global(joint, m)
            monkeypatch.setattr(est, "_contract", contract)
            assert len(networks) == 1 and abs(got - want) <= 1e-15


def _pair_threshold(rng, kind, caps):
    """A pair threshold of the drawn kind for registers cut at ``caps``:
    none, 0, one that cuts the longer register only, one at or past the
    photon budget, or any that cuts both."""
    low, high = sorted(caps)
    if kind == "none":
        return None
    if kind == "zero":
        return 0
    if kind == "one side":  # low <= 2M < high
        return int(rng.integers((low + 1) // 2, (high + 1) // 2)) if high > low + 1 else low // 2
    if kind == "budget":
        return (low + high + 1) // 2 + int(rng.integers(0, 3))
    return int(rng.integers(0, (low + 1) // 2 + 1))


class _EinsumSpy:
    """Counts np.einsum calls while installed."""

    def __init__(self, monkeypatch):
        self.calls, einsum = 0, np.einsum

        def spy(*operands, **kwargs):
            self.calls += 1
            return einsum(*operands, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["none", "zero", "one side", "budget", "both"]))
def test_two_register_kernel_matches_the_padded_box(seed, kind):
    # pure states and rank-1 to 3 mixtures of random norms on two single
    # modes of unequal cutoffs, paired either way round: the kernels' (k, s)
    # (running sums where the threshold cuts, one inner product per
    # component pair where it does not) is the padded box's at 1e-12, each
    # part alone is the same number, no einsum runs, and where nothing cuts
    # k is exactly the product of the ensemble-weight sums
    rng = np.random.default_rng(seed)
    caps = [int(c) for c in rng.integers(0, 12, size=2)]
    factors = [_unnormalised_factor(rng, (c,), int(rng.integers(1, 4))) for c in caps]
    thr = _pair_threshold(rng, kind, caps)
    pair = (0, 1) if rng.random() < 0.5 else (1, 0)
    [group] = est._group_factors(factors, [pair], [thr])
    with pytest.MonkeyPatch.context() as monkeypatch:
        spy = _EinsumSpy(monkeypatch)
        k, s = est._group_expectation(group)
        assert est._group_expectation(group, kept=False) == (None, s)
        assert est._group_expectation(group, swapped=False) == (k, None)
    assert spy.calls == 0
    want_k, want_s = padded_group_expectation(group)
    assert abs(k - want_k) <= 1e-12 and abs(s - want_s) <= 1e-12
    if thr is None or 2 * thr >= sum(caps):
        assert k == math.prod(sum(w for w, _ in fock.components_of(f)) for f in factors)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_paired_kernel_matches_the_padded_box(data):
    # two registers of one to three modes with unequal cutoffs per mode,
    # paired mode for mode in a random order, each pair written either way
    # round; pure states or rank-1 to 3 mixtures of random norms; no pair
    # threshold, or one at or past its pair's budget.  The kernel's (k, s)
    # is the padded box's at 1e-12, each part alone is the same number, no
    # einsum runs, and k is exactly the product of the ensemble-weight sums
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    modes = data.draw(st.integers(1, 3), label="modes")
    caps = [data.draw(st.lists(st.integers(0, 4), min_size=modes, max_size=modes), label=side)
            for side in "AB"]
    order = data.draw(st.permutations(range(modes)), label="pairing")
    flips = data.draw(st.lists(st.booleans(), min_size=modes, max_size=modes), label="flips")
    budgets = [caps[0][m] + caps[1][order[m]] for m in range(modes)]
    thresholds = [data.draw(st.none() | st.integers((b + 1) // 2, (b + 1) // 2 + 2), label="threshold")
                  for b in budgets]
    rng = np.random.default_rng(seed)
    factors = [_unnormalised_factor(rng, tuple(c), int(rng.integers(1, 4))) for c in caps]
    pairs = [(modes + order[m], m) if flip else (m, modes + order[m]) for m, flip in enumerate(flips)]
    [group] = est._group_factors(factors, pairs, thresholds)
    with pytest.MonkeyPatch.context() as monkeypatch:
        spy = _EinsumSpy(monkeypatch)
        k, s = est._group_expectation(group)
        assert est._group_expectation(group, kept=False) == (None, s)
        assert est._group_expectation(group, swapped=False) == (k, None)
    assert spy.calls == 0
    want_k, want_s = padded_group_expectation(group)
    assert abs(k - want_k) <= 1e-12 and abs(s - want_s) <= 1e-12
    assert k == math.prod(sum(w for w, _ in fock.components_of(f)) for f in factors)


def _product_joint(a, b):
    """The product state of ``a`` and ``b`` as one two-mode register, with
    a component for each pair of their components."""
    comps = [(w * v, fock.tensor(x, y)) for w, x in fock.components_of(a) for v, y in fock.components_of(b)]
    return comps[0][1] if len(comps) == 1 else MixedEnsemble(comps)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_global_bound_and_profile_of_a_product_are_the_two_register_kernel(seed):
    # error_bound_global, swap2m_profile and swap2m_expectation take a
    # two-mode joint register or the pair [a, b] of its single-mode
    # registers; on a product state both forms read the kernels' k and s
    # of the two registers at 1e-12, at every threshold up to past the
    # budget
    rng = np.random.default_rng(seed)
    caps = [int(c) for c in rng.integers(0, 9, size=2)]
    a, b = (_random_factor(rng, (c,), int(rng.integers(1, 3))) for c in caps)
    joint = _product_joint(a, b)
    m_values = list(range(sum(caps) // 2 + 2))
    profiles = [est.swap2m_profile(form, m_values) for form in (joint, [a, b])]
    for n, m in enumerate(m_values):
        [group] = est._group_factors([a, b], [(0, 1)], [m])
        k, s = est._group_expectation(group)
        for form, profile in zip((joint, [a, b]), profiles):
            assert abs(est.error_bound_global(form, m) - max(0.0, 1.0 - k)) <= 1e-12
            assert abs(profile[n] - s) <= 1e-12
            assert abs(est.swap2m_expectation(form, m) - s) <= 1e-12
        assert est.error_bound_global([a, b], m) == max(0.0, 1.0 - k)
        assert est.parity_overlap_expectation([a, b], [(0, 1)], m) == s == profiles[1][n]


def test_global_bound_of_a_large_product_pair_is_not_refused():
    # the squeezed pair at cutoff 6000 as two registers: a joint register
    # would hold 6001^2 entries, past the working-space limit, but the pair
    # reaches the running-sum kernel, whose lists hold 6001 levels each
    cut = CutoffSpec((6000,))
    pair = [fock.prepare("squeezed", cut, z=1.0), fock.prepare("squeezed", cut, z=-1.0)]
    with pytest.raises(fock.ResourceLimitError):
        fock.tensor(*pair)
    bound = est.error_bound_global(pair, 3000)
    assert 0.0 <= bound <= 1e-12
    for m in (2, 5, 9):
        assert est.error_bound_global(pair, m) == pytest.approx(math.tanh(1.0) ** (2 * (m + 1)), abs=1e-12)


def test_two_mode_inputs_refuse_other_layouts(rng):
    # a list holding one two-mode register is that register; any other
    # layout than two modes in one register or one mode in each of two is
    # refused
    one, two = random_pure(rng, 3), random_pure(rng, 3, modes=2)
    assert est.error_bound_global([two], 1) == est.error_bound_global(two, 1)
    assert est.swap2m_profile([two], [1]) == est.swap2m_profile(two, [1])
    for joint in (one, [one], [one, one, one], [two, one]):
        for run in (est.error_bound_global, est.swap2m_expectation,
                    lambda state, m: est.swap2m_profile(state, [m])):
            with pytest.raises(ValueError, match="a two-mode state or a pair of single-mode states"):
                run(joint, 1)


def test_two_register_kernel_refuses_a_zero_norm_component(rng):
    zero = FockState(CutoffSpec((4,)), np.zeros(5))
    mixed = MixedEnsemble(((0.5, random_pure(rng, 4)), (0.5, zero)))
    for states in ([zero, random_pure(rng, 3)], [random_pure(rng, 6), mixed]):
        for m in (None, 1, 9):
            with pytest.raises(ValueError, match="zero-norm component"):
                est.parity_overlap_expectation(states, [(0, 1)], m)
            with pytest.raises(ValueError, match="zero-norm component"):
                est.parity_overlap_estimate(states, [(0, 1)], m, 10, 1)


def test_only_other_groups_reach_the_contraction(rng, monkeypatch):
    # a pair of single-mode registers, and two multi-mode registers paired
    # mode for mode with nothing cut, on the shot path or the exact one,
    # reach neither _contract nor einsum; three factors, a two-mode factor,
    # a group total, a threshold that cuts a multi-mode pair or a spectator
    # mode still reach both
    contract, networks = est._contract, []

    def spy(ops, size):
        networks.append(len(ops))
        return contract(ops, size)

    monkeypatch.setattr(est, "_contract", spy)
    einsum = _EinsumSpy(monkeypatch)
    a, b, c = random_pure(rng, 5), random_ensemble(rng, 4, 2), random_pure(rng, 3)
    x, y = random_pure(rng, 3, modes=2), _unnormalised_factor(rng, (2, 4), 2)
    est.parity_overlap_estimate([a, b], [(0, 1)], 2, 10, 1)
    est.parity_overlap_expectation([b, a], [(1, 0)], None)
    est.parity_overlap_estimate([x, y], [(0, 3), (2, 1)], None, 10, 1)
    est.parity_overlap_expectation([x, y], [(0, 2), (1, 3)], [None, 9])
    assert networks == [] and einsum.calls == 0
    for states, pairs, m, m_total in (([a, random_pure(rng, 2, modes=2), c], [(0, 1), (2, 3)], 2, None),
                                      ([fock.tensor(a, c)], [(0, 1)], 2, None),
                                      ([a, b], [(0, 1)], 2, 3),
                                      ([a, b], [(0, 1)], None, 30),
                                      ([x, y], [(0, 2), (1, 3)], [None, 1], None),
                                      ([x, y], [(0, 2)], None, None)):
        calls = einsum.calls
        networks.clear()
        est.parity_overlap_expectation(states, pairs, m, m_total)
        assert networks and einsum.calls > calls


def test_negative_thresholds_refused(rng):
    a, b = random_pure(rng, 3), random_pure(rng, 3)
    for m, m_total in ((-1, None), ([2, -1], None), (None, -1)):
        pairs = [(0, 1)] if not isinstance(m, list) else [(0, 2), (1, 3)]
        states = [a, b] if len(pairs) == 1 else [a, a, b, b]
        with pytest.raises(ValueError, match="thresholds must be >= 0"):
            est.parity_overlap_estimate(states, pairs, m, 100, 1, m_total)
        with pytest.raises(ValueError, match="thresholds must be >= 0"):
            est.parity_overlap_expectation(states, pairs, m, m_total)
    copies = [random_pure(rng, 2, modes=2), random_pure(rng, 2, modes=2)]
    with pytest.raises(ValueError):
        proto.two_copy_test(copies, 100, 1, -1)
    with pytest.raises(ValueError):
        proto.two_copy_expectation(copies, -1)
    terms = proto.compile_terms([random_pure(rng, 2, modes=2)], [], [], [-1])
    with pytest.raises(ValueError):
        proto.compile_cost(terms, 100, 1)
    with pytest.raises(ValueError):
        proto.compile_cost_expectation(terms)


# ---------------------------------------------------------------------------
# bounds


def test_error_bound_global_squeezed_pair():
    cut = CutoffSpec((60,))
    joint = fock.tensor(
        fock.prepare("squeezed", cut, z=1.0),
        fock.prepare("squeezed", cut, z=-1.0),
    )
    for m in (2, 5, 9):
        got = est.error_bound_global(joint, m)
        assert got == pytest.approx(math.tanh(1.0) ** (2 * (m + 1)), abs=1e-7)


def test_error_bound_vacuum_zero():
    vac2 = fock.basis_state((0, 0), CutoffSpec((3, 3)))
    assert est.error_bound_global(vac2, 0) == 0.0
    vac1 = fock.basis_state((0,), CutoffSpec((3,)))
    assert est.error_bound_local(vac1, vac1, 0) == 0.0


def test_error_bound_local_coherent():
    energy = 1.5
    cut = CutoffSpec((30,))
    coh = fock.prepare("coherent", cut, alpha=math.sqrt(energy))
    for m in (1, 3):
        cdf = sum(math.exp(-energy) * energy ** k / math.factorial(k) for k in range(m + 1))
        assert est.error_bound_local(coh, coh, m) == pytest.approx(1 - cdf ** 2, abs=1e-10)


def test_bound_sandwich(rng):
    for _ in range(20):
        a, b = random_pure(rng, 8), random_pure(rng, 8)
        joint = fock.tensor(a, b)
        overlap = abs(inner_product(a, b)) ** 2
        for m in (1, 3, 6):
            approx = est.swap2m_expectation(joint, m)
            g = est.error_bound_global(joint, m)
            l = est.error_bound_local(a, b, m)
            assert abs(overlap - approx) <= g + 1e-12
            assert g <= l + 1e-12


def _product_ensemble(a, b):
    """The two-mode ensemble of a (x) b for single-mode pure or mixed a, b."""
    return MixedEnsemble(tuple((wa * wb, fock.tensor(sa, sb)) for wa, sa in fock.components_of(a)
                               for wb, sb in fock.components_of(b)))


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3), st.integers(0, 8), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_global_bound_is_the_dense_kept_weight_and_never_negative(c0, c1, rank, m, product, seed):
    # 1 - k rounds below 0 when k rounds above 1; the bound is clamped to 0
    rng = np.random.default_rng(seed)
    if product:
        a, b = _unnormalised_factor(rng, (c0,), rank), _unnormalised_factor(rng, (c1,), rank)
        joint = _product_ensemble(a, b)
    else:
        joint = _unnormalised_factor(rng, (c0, c1), rank)
    p = sum(w / s.norm_sq * np.abs(s.amplitudes) ** 2 for w, s in fock.components_of(joint))
    kept = np.add.outer(np.arange(c0 + 1), np.arange(c1 + 1)) <= 2 * m
    bound = est.error_bound_global(joint, m)
    assert abs(bound - (1.0 - p[kept].sum())) <= 1e-12
    assert 0.0 <= bound <= 1.0
    full = est.parity_overlap_expectation(joint, [(0, 1)], None)
    assert abs(full - est.parity_overlap_expectation(joint, [(0, 1)], m)) <= bound + 1e-12
    if product:
        local = est.error_bound_local(a, b, m)
        assert 0.0 <= local <= 1.0 and local >= bound - 1e-12


def test_eq17_parity_structure():
    limit = est.analytic_squeezed_overlap(0.9)
    for m in range(3, 12):
        value = est.analytic_swap2m_squeezed(0.9, m)
        if m % 2 == 0:
            assert value > limit
        else:
            assert value < limit
    assert est.analytic_swap2m_squeezed(0.0, 4) == 1.0
    assert est.analytic_squeezed_overlap(1.0) == pytest.approx(1 / math.cosh(2.0), abs=1e-15)


# ---------------------------------------------------------------------------
# planners


def test_squeezed_planner_minimal():
    plan = est.cutoff_for_squeezed(1.0, 0.01)
    assert math.tanh(1.0) ** (2 * (plan.M + 1)) <= 0.01
    assert plan.M == 0 or math.tanh(1.0) ** (2 * plan.M) > 0.01
    assert plan.method == "squeezed_closed_form"
    assert plan.bound <= plan.target_eps


def test_squeezed_planner_bound_monotone():
    values = [math.tanh(1.3) ** (2 * (m + 1)) for m in range(20)]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("r", [1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_squeezed_planner_reference_dominates(r, eps):
    plan = est.cutoff_for_squeezed(r, eps)
    assert plan.reference_m >= plan.M


def test_chernoff_planner_example():
    plan = est.cutoff_for_coherent_chernoff(1.0, 0.1)
    assert plan.M == math.ceil(1.3 + math.log(10.0)) == 4
    assert plan.bound <= 0.1
    assert plan.method == "chernoff"


def test_chernoff_bound_decreasing_in_m():
    energy = 3.0
    values = [est._chernoff_log_bound(energy, m) for m in range(4, 30)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_chernoff_candidate_never_increments():
    # spot grid here; the full claim is exercised in the acceptance suite
    for energy in (1, 7, 40, 100):
        for eps in (1e-1, 1e-3, 1e-6):
            plan = est.cutoff_for_coherent_chernoff(energy, eps)
            assert plan.M == math.ceil(1.3 * energy + math.log(1.0 / eps))
            assert plan.bound <= eps


def test_normal_planner_refuses_small_energy():
    with pytest.raises(ValueError):
        est.cutoff_for_coherent_normal(10.0, 0.01)


def test_normal_planner_bound():
    plan = est.cutoff_for_coherent_normal(100.0, 0.01)
    assert plan.method == "normal_quantile"
    assert 1.0 - est.normal_cdf((plan.M - 100.0) / 10.0) ** 2 <= 0.01
    assert plan.bound <= 0.01


def test_normal_planner_clamps_near_one():
    plan = est.cutoff_for_coherent_normal(25.0, 1.0 - 1e-12)
    assert plan.M >= 0


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
def test_normal_planner_asymptotic_envelope(eps):
    for energy in (25.0, 100.0, 400.0):
        formula = energy + math.sqrt(energy) * NormalDist().inv_cdf(math.sqrt(1 - eps))
        envelope = energy + math.sqrt(math.pi * energy / 8.0) * math.log(2.0 / eps)
        assert formula <= envelope


def test_exact_tail_planner():
    plan = est.cutoff_for_coherent_exact(10.0, 1e-3)
    assert plan.method == "exact_tail"
    assert plan.bound <= 1e-3
    assert 1.0 - poisson.cdf(2 * plan.M, 20.0) <= 1e-3
    if plan.M > 0:
        assert 1.0 - poisson.cdf(2 * (plan.M - 1), 20.0) > 1e-3


def test_exact_tail_planner_refuses_eps_below_its_resolution_at_once():
    # the tail is summed from its upper end, so at the largest energy it
    # resolves 1e-14, where a cumulative sum stopped moving 5e-10 short of
    # 1; only an eps below the weight past the last normal term is refused
    start = time.perf_counter()
    plan = est.cutoff_for_coherent_exact(est.MAX_PLAN_ENERGY, 1e-14)
    assert plan.bound <= 1e-14
    with pytest.raises(RuntimeError, match="tail cannot be certified below 2.62e-307"):
        est.cutoff_for_coherent_exact(est.MAX_PLAN_ENERGY, 1e-307)
    assert time.perf_counter() - start < 1.0


def test_exact_tail_planner_matches_mpmath_tails():
    # against the regularised incomplete gamma function at 40 digits: the
    # smallest M whose tail P(X > 2M), X ~ Poisson(2E), is within eps, and
    # that tail as the bound; 1 - cdf gave 1163 at eps = 1e-12 and could
    # not resolve 1e-13 at E = 1000
    import mpmath

    with mpmath.workdps(40):
        for energy, eps in [(1000.0, 1e-12), (1000.0, 1e-13), (0.3, 0.5), (36.0, 1e-4),
                            (2.5, 1e-200), (500.0, 0.999)]:
            plan = est.cutoff_for_coherent_exact(energy, eps)
            tail = lambda m: mpmath.gammainc(2 * m + 1, 0, 2 * energy, regularized=True)
            assert tail(plan.M) <= eps
            assert plan.M == 0 or tail(plan.M - 1) > eps
            assert plan.bound == pytest.approx(float(tail(plan.M)), rel=1e-10)
        assert est.cutoff_for_coherent_exact(1000.0, 1e-12).M == 1162


def test_weak_tail_bound_is_weaker():
    # the dismissed bound 1 - e^{-E/M} dominates the exact Poisson tail of
    # the pair total for M > E, so planning with it would be wasteful
    for energy in (2.0, 5.0, 10.0):
        for m in range(int(energy) + 1, int(energy) + 12):
            weak = 1.0 - math.exp(-energy / m)
            exact = 1.0 - poisson.cdf(2 * m, 2 * energy)
            assert exact <= weak
