import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvswap import dv, estimators as est, fock, protocols as proto, sampling
from cvswap.fock import CutoffSpec, MixedEnsemble
from cvswap.sampling import derive_seed, law_block, level_law

from conftest import (
    Beamsplitter,
    apply_beamsplitter,
    apply_two_mode_dense,
    assert_same_law,
    bell_change,
    component_block,
    count_calls,
    dense_two_copy_expectation,
    density_matrix,
    dft_matrix,
    drawn_blocks,
    ensemble_combinations,
    expm_gates,
    inner_product,
    invert_circuit,
    measurement_block,
    mesh_perm_block,
    padded_circuit,
    padded_group_expectation,
    padded_on_a,
    pad,
    purification_of,
    random_ensemble,
    random_pure,
    rectangular_decompose,
    relabeled_stack,
    run_circuit,
    squared_eigenvalue_sum,
    swap_modes,
)


# ---------------------------------------------------------------------------
# PERM test


def test_perm_identical_pure_state(rng):
    psi = random_pure(rng, 4)
    for n in (2, 3):
        value = proto.perm_expectation([psi] * n)
        assert value.real == pytest.approx(1.0, abs=1e-10)
        assert abs(value.imag) < 1e-10


def test_perm_l2_bitwise_matches_cv(rng):
    a, b = random_pure(rng, 5), random_pure(rng, 5)
    r_perm = proto.perm_test([a, b], 3000, 12)
    r_cv = est.cv_swap_estimate(a, b, 5, 3000, 12)
    assert r_perm == r_cv


@pytest.mark.parametrize("n_registers", [3, 4])
def test_perm_exact_matches_density_power(rng, n_registers):
    rho = random_ensemble(rng, 5, 3)
    got = proto.perm_expectation([rho] * n_registers)
    mat = density_matrix(rho)
    want = np.trace(np.linalg.matrix_power(mat, n_registers))
    assert got == pytest.approx(want, abs=1e-10)


def test_perm_exact_ordered_product(rng):
    states = [random_ensemble(rng, 3, 2) for _ in range(3)]
    got = proto.perm_expectation(states)
    mats = [density_matrix(s) for s in states]
    want = np.trace(mats[0] @ mats[1] @ mats[2])
    assert got == pytest.approx(want, abs=1e-10)


def test_perm_cyclic_invariance(rng):
    states = [random_ensemble(rng, 3, 2) for _ in range(3)]
    base = proto.perm_expectation(states)
    rotated = proto.perm_expectation(states[1:] + states[:1])
    assert base == pytest.approx(rotated, abs=1e-10)


def test_perm_sampled_within_five_stderr(rng):
    rho = random_ensemble(rng, 5, 3)
    exact = proto.perm_expectation([rho] * 3)
    res = proto.perm_test([rho] * 3, 100_000, 17)
    assert abs(res.mean - exact) <= 5 * res.stderr
    assert abs(res.mean.imag - exact.imag) <= 5 * res.stderr


def test_perm_imaginary_part_vanishes_for_identical_inputs(rng):
    rho = random_ensemble(rng, 4, 2)
    exact = proto.perm_expectation([rho] * 3)
    assert abs(exact.imag) < 1e-10
    res = proto.perm_test([rho] * 3, 50_000, 23)
    assert abs(res.mean.imag) <= 5 * res.stderr


def test_perm_rejects_bad_inputs(rng):
    with pytest.raises(ValueError):
        proto.perm_test([random_pure(rng, 3)], 10, 0)
    with pytest.raises(ValueError):
        proto.perm_test([random_pure(rng, 3), random_pure(rng, 4)], 10, 0)


def _dense_perm_block(states) -> tuple[list, list]:
    """Oracle: every ensemble combination tensored, padded per mode to the
    joint photon capacity and run through the dense mesh."""
    n, cap = len(states), states[0].cutoff.per_mode_max[0]
    caps = (n * cap,) * n
    gates = invert_circuit(rectangular_decompose(dft_matrix(n)))
    combos = [(1.0, [])]
    for s in states:
        combos = [(w * cw, parts + [cs]) for w, parts in combos for cw, cs in fock.components_of(s)]
    comp_w, dists = [], []
    for w, parts in combos:
        joint = parts[0]
        for part in parts[1:]:
            joint = fock.tensor(joint, part)
        p = np.abs(run_circuit(pad(joint, caps), gates).amplitudes.ravel()) ** 2
        comp_w.append(w)
        dists.append(p / p.sum())
    counts = np.indices(tuple(c + 1 for c in caps)).reshape(n, -1)
    phase = (np.arange(n)[:, None] * counts).sum(axis=0) % n
    weights = np.exp(2j * math.pi * np.arange(n) / n)[phase]
    # every outcome is its own weight level
    return component_block(np.asarray(comp_w), dists, weights)


@settings(deadline=None, max_examples=25)
@given(st.integers(3, 4), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_perm_simplex_block_matches_dense_mesh(n_registers, cap, rank, seed):
    rng = np.random.default_rng(seed)
    states = [random_ensemble(rng, cap, rank) for _ in range(n_registers)]
    block = proto._perm_block(states)
    # the symmetry law and the mesh on the photon-number simplex both
    # match the mesh on the dense padded box
    dense = _dense_perm_block(states)
    assert_same_law(block, dense)
    assert_same_law(mesh_perm_block(states), dense)
    exact = proto.perm_expectation(states)
    assert abs(exact - np.dot(*level_law([block]))) < 1e-10


def test_perm_six_registers_at_cap_three(rng):
    # C(24, 6) = 134,596 simplex amplitudes; the dense padding would need 19^6
    cut = CutoffSpec((3,))
    states = [fock.prepare("vacuum", cut)] + [
        fock.prepare("coherent", cut, alpha=complex(a)) for a in (0.3, 0.2j, -0.25, 0.1 + 0.1j, 0.15)
    ]
    exact = proto.perm_expectation(states)
    mats = [density_matrix(s) for s in states]
    want = np.trace(np.linalg.multi_dot(mats))
    assert exact == pytest.approx(want, abs=1e-12)
    assert abs(np.dot(*level_law([proto._perm_block(states)])) - exact) < 1e-10


# a common cutoff and one ensemble rank per register, up to two more than
# the cutoff's levels, so that registers read as component rows and
# registers read as density matrices mix
_CAP_AND_RANKS = st.integers(0, 8).flatmap(
    lambda cap: st.tuples(st.just(cap), st.lists(st.integers(1, cap + 3), min_size=2, max_size=6)))


@settings(deadline=None, max_examples=60)
@given(_CAP_AND_RANKS, st.integers(0, 2**32 - 1))
@example((2, [1, 5, 2, 4]), 11)
@example((0, [3, 1, 2]), 12)
def test_perm_value_and_law_match_the_density_matrix_product(cap_and_ranks, seed):
    cap, ranks = cap_and_ranks
    rng = np.random.default_rng(seed)
    states = [random_ensemble(rng, cap, rank) for rank in ranks]
    want = np.trace(np.linalg.multi_dot([density_matrix(s) for s in states]))
    assert abs(proto.perm_expectation(states) - want) < 1e-12
    assert abs(np.dot(*level_law([proto._perm_block(states)])) - want) < 1e-10


@pytest.mark.parametrize("n_registers", [3, 8])
def test_perm_full_rank_registers_run_at_one_density_matrix_limit(rng, monkeypatch, n_registers):
    # a limit of d x d entries, one density matrix: registers of d
    # components at cutoff 19 still run, at any register count
    monkeypatch.setattr(fock, "MAX_WORKING_ELEMENTS", 20 * 20)
    states = [random_ensemble(rng, 19, 20) for _ in range(n_registers)]
    want = np.trace(np.linalg.multi_dot([density_matrix(s) for s in states]))
    assert abs(proto.perm_expectation(states) - want) < 1e-12
    assert abs(np.dot(*level_law([proto._perm_block(states)])) - want) < 1e-10


@pytest.mark.parametrize("n_registers", [2, 3])
def test_perm_rejects_zero_norm_register(rng, n_registers):
    cut = CutoffSpec((2,))
    zero = fock.FockState(cut, np.zeros(3))
    states = [random_pure(rng, 2) for _ in range(n_registers - 1)] + [zero]
    with pytest.raises(ValueError):
        proto.perm_test(states, 100, 1)
    with pytest.raises(ValueError):
        proto.perm_expectation(states)

# ---------------------------------------------------------------------------
# two-copy test


def test_two_copy_pure_product(rng):
    psi = fock.tensor(random_pure(rng, 2), random_pure(rng, 2))
    assert proto.two_copy_expectation([psi, psi]) == pytest.approx(1.0, abs=1e-10)


def test_two_copy_tmss_purification_thermal_sum():
    r, cap = 1.0, 25
    psi = fock.prepare("tmss", CutoffSpec((cap, cap)), r=r)
    got = proto.two_copy_expectation([psi, psi])
    p_n = np.array([math.tanh(r) ** (2 * n) / math.cosh(r) ** 2 for n in range(cap + 1)])
    purity = float(np.sum((p_n / p_n.sum()) ** 2))
    assert got == pytest.approx(purity ** 2, abs=1e-6)


@pytest.mark.parametrize("copies", [2, 3])
def test_two_copy_equals_perm_squared(rng, copies):
    rho = random_ensemble(rng, 2, 2)
    psi = purification_of(rho, 2)
    got = proto.two_copy_expectation([psi] * copies)
    perm = proto.perm_expectation([rho] * copies)
    assert got == pytest.approx(abs(perm) ** 2, abs=1e-10)


def test_two_copy_sampled(rng):
    rho = random_ensemble(rng, 2, 2)
    psi = purification_of(rho, 2)
    exact = proto.two_copy_expectation([psi, psi])
    res = proto.two_copy_test([psi, psi], 60_000, 19)
    assert abs(res.mean.real - exact) <= 5 * res.stderr


def test_two_copy_threshold_matches_parity_route(rng):
    # two_copy_expectation is the parity estimator's exact value on the
    # copies and their partners, so it is held to the parity route's padded
    # box (conftest) of the dense stack and its relabeled stack, not to the
    # contraction it calls
    rho = random_ensemble(rng, 2, 2)
    psi = purification_of(rho, 2)
    stack = fock.tensor(psi, psi)
    pairs = [(j, 4 + j) for j in range(4)]
    for m in (None, 0, 1, 2, [0, None, 2, 1]):
        [group] = est._group_factors([stack, relabeled_stack(stack, 2)], pairs,
                                     est.normalize_thresholds(m, 4))
        want = padded_group_expectation(group)[1]
        assert proto.two_copy_expectation([psi, psi], m) == pytest.approx(want, abs=1e-12)


def test_two_copy_relabeling_equals_swap_chain(rng):
    # the dense oracle's relabeled stack is the chain of A-register swaps
    psi = random_pure(rng, 2, modes=2)
    for copies in (2, 3):
        stack = functools.reduce(fock.tensor, [psi] * copies)
        relabeled = relabeled_stack(stack, copies)
        via_swaps = stack
        for j in range(copies - 1):
            via_swaps = swap_modes(via_swaps, 2 * j, 2 * (j + 1))
        assert np.array_equal(relabeled.amplitudes, via_swaps.amplitudes)


def test_two_copy_rejects_odd_structure(rng):
    with pytest.raises(ValueError):
        proto.two_copy_test([random_pure(rng, 2, modes=3)] * 2, 10, 0)
    with pytest.raises(ValueError):
        proto.two_copy_test([random_pure(rng, 2, modes=4)] * 2, 10, 0)  # a stack of two copies
    with pytest.raises(ValueError):
        proto.two_copy_test([random_pure(rng, 2, modes=2)], 10, 0)


def _random_copy(rng, caps) -> fock.FockState:
    amps = rng.normal(size=(caps[0] + 1, caps[1] + 1)) + 1j * rng.normal(size=(caps[0] + 1, caps[1] + 1))
    return fock.FockState(CutoffSpec(caps), amps / np.linalg.norm(amps))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_per_copy_route_holds_the_dense_stack(seed):
    # differing copies at cutoffs up to 3, with no threshold, one for every
    # pair, or a per-pair list holding None
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    copies = [_random_copy(rng, tuple(int(c) for c in rng.integers(0, 4, size=2))) for _ in range(n)]
    kind = int(rng.integers(0, 3))
    m = [None, int(rng.integers(0, 4)),
         [None if rng.random() < 0.3 else int(rng.integers(0, 4)) for _ in range(2 * n)]][kind]
    assert abs(proto.two_copy_expectation(copies, m) - dense_two_copy_expectation(copies, m)) <= 1e-12


@pytest.mark.parametrize("copies", [4, 60])
def test_two_copy_holds_the_eigenvalue_oracle(copies):
    psi = fock.prepare("tmss", CutoffSpec((6, 6)), r=0.3)
    want = squared_eigenvalue_sum(psi, copies)
    assert abs(proto.two_copy_expectation([psi] * copies) - want) <= 1e-12
    res = proto.two_copy_test([psi] * copies, 100_000, 41)
    assert abs(res.mean.real - want) <= 5 * res.stderr


@pytest.mark.parametrize("copies", [60, 256])
def test_two_copy_at_scale_holds_the_eigenvalue_closed_form(copies):
    # (sum_i lambda_i^n)^2 over the truncated reduced state's eigenvalues
    # falls to about 2e-20 at 256 copies, so it is held to 1e-10 relative
    psi = fock.prepare("tmss", CutoffSpec((6, 6)), r=0.3)
    want = squared_eigenvalue_sum(psi, copies)
    assert abs(proto.two_copy_expectation([psi] * copies) / want - 1.0) <= 1e-10


@pytest.mark.parametrize("m", [None, 2])
@pytest.mark.parametrize("copies", [2, 4, 8, 60])
def test_every_two_copy_step_holds_at_most_seven_labels(monkeypatch, copies, m):
    # each copy sits next to its partner, so the fold keeps a few modes
    # open at a time whatever the copy count, in the kept-weight network
    # and the masked-swap one, with thresholds or without (three without,
    # where only the masked swap is a network); pieces that share no label
    # are contracted apart, never multiplied as an outer product
    psi = fock.prepare("tmss", CutoffSpec((3, 3)), r=0.3)
    einsum, steps, outer = np.einsum, [], []

    def spy(*operands):
        steps.append(len({label for labels in operands[1::2] for label in labels}))
        held, labels = operands[1::2] if len(operands) == 5 else ([], [])
        outer.append(bool(held) and bool(labels) and not set(held) & set(labels))
        return einsum(*operands)

    monkeypatch.setattr(np, "einsum", spy)
    proto.two_copy_test([psi] * copies, 10, 1, m)
    assert steps and max(steps) <= (3 if m is None else 7) and not any(outer)


# ---------------------------------------------------------------------------
# compiling cost


def test_compile_cost_identity():
    cut = CutoffSpec((6, 6))
    training = [fock.basis_state((1, 0), cut), fock.basis_state((0, 1), cut)]
    gates = [fock.PhaseRotation(0.4, 0), fock.Squeeze(0.2, 0)]
    terms = proto.compile_terms(training, gates, gates)
    assert proto.compile_cost_expectation(terms) == pytest.approx(0.0, abs=1e-9)
    sampled = proto.compile_cost(terms, 2000, 3)
    assert sampled == pytest.approx(0.0, abs=1e-9)


def test_compile_cost_phase_on_fock_state():
    cut = CutoffSpec((6, 6))
    training = [fock.basis_state((1, 0), cut)]
    cost = proto.compile_cost_expectation(
        proto.compile_terms(training, [], [fock.PhaseRotation(math.pi, 0)]))
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_compile_cost_displacement_oracle():
    alpha = 0.6
    cut = CutoffSpec((25, 25))
    vac = fock.basis_state((0, 0), cut)
    got = proto.compile_cost_expectation(proto.compile_terms([vac], [], [fock.Displacement(alpha, 0)]))
    displaced = run_circuit(vac, [fock.Displacement(alpha, 0)])
    fidelity = abs(inner_product(vac, displaced)) ** 2 / displaced.norm_sq
    assert got == pytest.approx(1.0 - fidelity, abs=1e-9)


def test_compile_cost_sampled_near_exact(rng):
    cut = CutoffSpec((12, 12))
    psi = run_circuit(
        fock.basis_state((0, 0), cut),
        [fock.Squeeze(0.3, 0), fock.Squeeze(0.2, 1)],
    )
    u_gates = [fock.PhaseRotation(0.3, 0)]
    v_gates = [fock.PhaseRotation(0.9, 0)]
    terms = proto.compile_terms([psi], u_gates, v_gates)
    exact = proto.compile_cost_expectation(terms)
    sampled = proto.compile_cost(terms, 100_000, 8)
    assert sampled == pytest.approx(exact, abs=0.02)
    assert 0.0 <= exact <= 1.0


def _exactly_mapped(state, gates):
    """Every component of ``state`` through the circuit applied exactly and
    truncated once (``padded_circuit``), with the largest share of weight a
    component lost past the A cutoff."""
    pairs = [(w, *padded_circuit(s, gates)) for w, s in fock.components_of(state)]
    return MixedEnsemble(tuple((w, s) for w, s, _ in pairs)), max(lost for _, _, lost in pairs)


def test_compile_cost_composes_each_circuit_once_per_a_dimension(rng, monkeypatch):
    # a mixture and two A cutoffs, padded on mode A so that the circuits
    # push almost nothing past them; the state with R cutoff 3 shares its A
    # dimension with the mixture
    mix = MixedEnsemble(((0.3, pad(random_pure(rng, 5, 2), (24, 5))),
                         (0.7, pad(random_pure(rng, 5, 2), (24, 5)))))
    training = [mix, pad(random_pure(rng, 8, 2), (27, 8)),
                fock.basis_state((2, 1), CutoffSpec((24, 3)))]
    u_gates = [fock.Displacement(0.3 - 0.1j, 0), fock.Squeeze(0.2 + 0.1j, 0), fock.PhaseRotation(0.7, 0)]
    v_gates = [fock.Squeeze(0.15, 0), fock.Displacement(0.25j, 0)]
    fidelities = [est.parity_overlap_expectation(
        [_exactly_mapped(psi, u_gates)[0], _exactly_mapped(psi, v_gates)[0]], [(0, 2), (1, 3)], None)
        for psi in training]
    want = 1.0 - sum(fidelities) / len(training)

    # each circuit composed once, its columns built once per A dimension
    # over the rows the components occupy, no gate matrix built; the cost
    # functions only read the terms
    calls = []
    for name in ("gaussian_triple", "gaussian_columns", "gate_matrix"):
        original = getattr(fock, name)
        monkeypatch.setattr(fock, name, lambda *args, name=name, original=original: (
            calls.append((name, *args[1:])) or original(*args)))
    terms = proto.compile_terms(training, u_gates, v_gates)
    assert sorted(calls) == [("gaussian_columns", 25, 6), ("gaussian_columns", 28, 9),
                             ("gaussian_triple",), ("gaussian_triple",)]
    calls.clear()
    assert proto.compile_cost_expectation(terms) == pytest.approx(want, abs=1e-12)
    proto.compile_cost(terms, 100, 4)
    assert calls == []


_COMPILE_GATES = st.lists(st.one_of(
    st.builds(lambda r, a: fock.Displacement(complex(r * math.cos(a), r * math.sin(a)), 0),
              st.floats(0.0, 0.6), st.floats(-math.pi, math.pi)),
    st.builds(lambda r, a: fock.Squeeze(complex(r * math.cos(a), r * math.sin(a)), 0),
              st.floats(0.0, 0.4), st.floats(-math.pi, math.pi)),
    st.builds(lambda phi: fock.PhaseRotation(phi, 0), st.floats(-7.0, 7.0)),
), max_size=5)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), _COMPILE_GATES, _COMPILE_GATES,
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 2)),
                min_size=1, max_size=4))
@example(5, [fock.PhaseRotation(0.3, 0), fock.Displacement(1e-3, 0)], [fock.Squeeze(2e-3j, 0)],
         [(5, 2, 1), (3, 1, 2)])
@example(5, [fock.Displacement(0.6, 0)] * 5, [], [(2, 1, 1)])  # the refusal branch
@example(1520236,  # a squeezed image whose deep rows a gate-matrix oracle got wrong
         [fock.Displacement(-0.2531056184419266 - 0.24297318640649848j, 0),
          fock.Displacement(0.4046121812391333 + 0.1251331636402363j, 0)],
         [fock.Squeeze(0.016329644116868776 - 0.34987731816766476j, 0),
          fock.Displacement(0.057912195560561215 - 0.012455370296921293j, 0),
          fock.Squeeze(0.39990564440320825 - 1.832223590983111e-07j, 0),
          fock.Squeeze(0.2531557478329714 - 0.13829961535941904j, 0),
          fock.Squeeze(0.23342076876137685 + 4.7732241154057595e-17j, 0)],
         [(5, 0, 2), (0, 0, 1), (0, 0, 2)])
def test_compile_cost_expectation_matches_gate_by_gate_circuits(seed, u_gates, v_gates, layouts):
    # random training sets of pure states and mixtures on (A, R) cutoffs,
    # with blocks of more columns than rows among them, against every
    # component run through each circuit gate by gate on a padded register
    # and truncated once: the value and each mapped component's leak, or
    # the refusal where the oracle loses more than LEAK_HARD.  Each state's
    # A cutoff is raised by 10 after it is drawn, so that most circuits
    # keep their images inside the box
    rng = np.random.default_rng(seed)

    def state(a_cap, r_cap):
        amps = rng.normal(size=(a_cap + 1, r_cap + 1)) + 1j * rng.normal(size=(a_cap + 1, r_cap + 1))
        return fock.FockState(CutoffSpec((a_cap, r_cap)), amps / np.linalg.norm(amps))

    training = [state(a, r) if rank == 1 else MixedEnsemble(((0.35, state(a, r)), (0.65, state(a, r))))
                for a, r, rank in layouts]
    training = [padded_on_a(psi, psi.cutoff.per_mode_max[0] + 10) for psi in training]
    mapped = [[_exactly_mapped(psi, gates) for gates in (u_gates, v_gates)] for psi in training]
    if max(lost for pair in mapped for _, lost in pair) > fock.LEAK_HARD:
        with pytest.raises(fock.PreparationLeakError, match="compiling circuit"):
            proto.compile_terms(training, u_gates, v_gates)
        return
    fidelities = [est.parity_overlap_expectation([u for u, _ in pair], [(0, 2), (1, 3)], None)
                  for pair in mapped]
    want = 1.0 - sum(fidelities) / len(training)
    terms = proto.compile_terms(training, u_gates, v_gates)
    assert proto.compile_cost_expectation(terms) == pytest.approx(want, abs=1e-12)
    for psi, (prepared, _) in zip(training, terms):
        for gates, side in zip((u_gates, v_gates), prepared):
            for (_, s), (_, image) in zip(fock.components_of(psi), side.components):
                lost = padded_circuit(s, gates)[1]
                assert image.leak == pytest.approx(max(lost, 0.0), abs=1e-12)
                assert image.leak_warning == (image.leak >= fock.LEAK_SOFT)


_EXPM_GATES = st.lists(st.one_of(
    st.builds(lambda r, t: fock.Displacement(cmath.rect(r, t), 0), st.floats(0.0, 1.0),
              st.floats(-math.pi, math.pi)),
    st.builds(lambda r, t: fock.Squeeze(cmath.rect(r, t), 0), st.floats(0.0, 0.8),
              st.floats(-math.pi, math.pi)),
    st.builds(lambda phi: fock.PhaseRotation(phi, 0), st.floats(-7.0, 7.0)),
), max_size=5)


@settings(deadline=None, max_examples=25)
@given(_EXPM_GATES, st.integers(1, 120), st.integers(1, 10))
@example([fock.Displacement(3.0, 0), fock.Squeeze(1.0, 0), fock.PhaseRotation(0.3, 0)], 120, 10)
def test_compile_columns_match_the_padded_expm_oracle(gates, dim, k):
    # training state sum_n |n, n> / sqrt(k) on cutoff (dim - 1, k - 1): its
    # U image is the circuit's first k columns over sqrt(k), each component
    # of the oracle's columns agreeing up to one global phase, and its V
    # image, under the empty circuit, is the state itself
    k = min(k, dim)
    amps = np.eye(dim, k) / math.sqrt(k)
    psi = fock.FockState(CutoffSpec((dim - 1, k - 1)), amps)
    want = expm_gates(np.eye(dim, k), gates)[0]
    lost = 1.0 - float(np.vdot(want, want).real) / k
    if lost > fock.LEAK_HARD:
        with pytest.raises(fock.PreparationLeakError, match="compiling circuit U"):
            proto.compile_terms([psi], gates, [])
        return
    [([u, v], _)] = proto.compile_terms([psi], gates, [])
    [(_, image)], [(_, same)] = u.components, v.components
    got = image.amplitudes * math.sqrt(k)
    phase = np.vdot(got, want)
    assert np.max(np.abs(got * phase / abs(phase) - want)) <= 1e-12
    assert image.leak == pytest.approx(max(lost, 0.0), abs=1e-12)
    assert np.array_equal(same.amplitudes, psi.amplitudes) and same.leak == 0.0


@pytest.mark.parametrize("seed", [1, 708])
def test_compile_cost_at_the_benchmark_shape_matches_the_expm_oracle(seed, monkeypatch):
    # the compile-gates benchmark's shape: cutoff (80, 1), basis training
    # states |n, r> with n < 4, and 18-gate U and V with V near U: one
    # call builds both 81 x 4 blocks, and the cost holds the fidelities of
    # the padded exponentials' columns
    rng = np.random.default_rng(seed)
    u_gates, v_gates = [], []
    for _ in range(6):
        alpha, z = cmath.rect(rng.uniform(0.05, 0.3), rng.uniform(-math.pi, math.pi)), cmath.rect(
            rng.uniform(0.05, 0.2), rng.uniform(-math.pi, math.pi))
        phi = rng.uniform(0.0, 6.0)
        u_gates += [fock.Displacement(alpha, 0), fock.Squeeze(z, 0), fock.PhaseRotation(phi, 0)]
        v_gates += [fock.Displacement(alpha + cmath.rect(rng.uniform(0.0, 0.05), rng.uniform(-3, 3)), 0),
                    fock.Squeeze(z + cmath.rect(rng.uniform(0.0, 0.05), rng.uniform(-3, 3)), 0),
                    fock.PhaseRotation(phi + rng.uniform(-0.05, 0.05), 0)]
    training = [fock.basis_state((n, n % 2), CutoffSpec((80, 1))) for n in range(4)]
    builds = count_calls(monkeypatch, fock, "gaussian_columns")
    terms = proto.compile_terms(training, u_gates, v_gates)
    assert builds == ["gaussian_columns"]
    u, v = (expm_gates(np.eye(81, 4), gates)[0] for gates in (u_gates, v_gates))
    fidelities = abs(np.sum(v.conj() * u, axis=0)) ** 2 / (
        np.sum(abs(u) ** 2, axis=0) * np.sum(abs(v) ** 2, axis=0))
    assert proto.compile_cost_expectation(terms) == pytest.approx(1.0 - fidelities.mean(), abs=1e-12)


def test_compile_cost_of_a_circuit_and_its_inverse_is_zero():
    # D(-4) D(4) is the identity: nothing is lost at A cutoff 19, where
    # truncating after each gate lost a third of the weight
    training = [fock.basis_state((2, 0), CutoffSpec((19, 0)))]
    terms = proto.compile_terms(training, [fock.Displacement(-4.0, 0), fock.Displacement(4.0, 0)], [])
    assert proto.compile_cost_expectation(terms) == pytest.approx(0.0, abs=1e-12)
    assert all(s.leak <= 1e-12 and not s.leak_warning
               for side in terms[0][0] for _, s in side.components)


@pytest.mark.parametrize("alpha, outcome", [(2.0, "clean"), (2.5, "warned"), (3.0, "refused")])
def test_compile_circuit_leak_outcomes(alpha, outcome):
    # D(alpha) on the vacuum at A cutoff 19 pushes the Poisson tail past
    # the cutoff: 1.0e-8 is clean, 9.3e-6 is flagged, 1.06e-3 is refused
    training = [fock.basis_state((0, 0), CutoffSpec((19, 0)))]
    tail = 1.0 - sum(math.exp(-alpha ** 2) * alpha ** (2 * n) / math.factorial(n) for n in range(20))
    if outcome == "refused":
        with pytest.raises(fock.PreparationLeakError, match="compiling circuit U on a training state"):
            proto.compile_terms(training, [fock.Displacement(alpha, 0)], [])
        return
    [([u, v], _)] = proto.compile_terms(training, [fock.Displacement(alpha, 0)], [])
    [(_, image)] = u.components
    assert image.leak == pytest.approx(tail, rel=1e-6)
    assert image.leak_warning == (outcome == "warned")
    assert v.components[0][1].leak == 0.0


def test_compile_cost_rejects_register_circuit():
    cut = CutoffSpec((3, 3))
    vac = fock.basis_state((0, 0), cut)
    with pytest.raises(ValueError):
        proto.compile_terms([vac], [fock.PhaseRotation(0.1, 1)], [])
    with pytest.raises(ValueError):
        proto.compile_terms([vac], [Beamsplitter(0.2, 0.0, 0, 1)], [])


def test_compile_cost_total_threshold():
    cut = CutoffSpec((6, 6))
    training = [fock.basis_state((2, 1), cut)]
    loose = proto.compile_cost_expectation(proto.compile_terms(training, [], [], m_totals=[6]))
    tight = proto.compile_cost_expectation(proto.compile_terms(training, [], [], m_totals=[0]))
    assert loose == pytest.approx(0.0, abs=1e-12)
    assert tight == pytest.approx(1.0, abs=1e-12)


def test_compile_cost_total_threshold_sampled():
    # A cutoff 16 holds S(0.4)|1> but for 5.9e-7 of its weight
    cut = CutoffSpec((16, 4))
    training = [fock.basis_state((1, 0), cut)]
    v_gates = [fock.Squeeze(0.4, 0)]
    for m_total in (1, 3):
        terms = proto.compile_terms(training, [], v_gates, m_totals=[m_total])
        exact = proto.compile_cost_expectation(terms)
        sampled = proto.compile_cost(terms, 150_000, 13)
        assert sampled == pytest.approx(exact, abs=0.02)


COMPILE_U = [fock.Displacement(0.2 - 0.1j, 0), fock.Squeeze(0.15 + 0.05j, 0), fock.PhaseRotation(0.4, 0)]
COMPILE_V = [fock.Displacement(0.25 - 0.1j, 0), fock.PhaseRotation(0.5, 0)]


def test_compile_cost_builds_each_term_law_once(rng, monkeypatch):
    # three terms, each one group of the four modes: one (k, s) per term,
    # and no passive measurement
    training = [_padded_a(random_pure(rng, 6, 2)), fock.basis_state((2, 1), CutoffSpec((20, 6))),
                MixedEnsemble(((0.4, _padded_a(random_pure(rng, 6, 2))),
                               (0.6, _padded_a(random_pure(rng, 6, 2)))))]
    built = count_calls(monkeypatch, est, "_group_expectation")
    proto.compile_cost(proto.compile_terms(training, COMPILE_U, COMPILE_V, [None, 4, 2]), 500, 6)
    assert len(built) == 3


def _padded_a(state: fock.FockState) -> fock.FockState:
    """``state`` with A cutoff 20, which holds COMPILE_U and COMPILE_V's
    images of it but for less than 1e-8 of their weight."""
    return pad(state, (20, state.cutoff.per_mode_max[1]))


def _compile_training(rng):
    """Two register layouts, a mixture, and total thresholds with None."""
    training = [_padded_a(random_pure(rng, 5, 2)), _padded_a(random_pure(rng, 3, 2)),
                MixedEnsemble(((0.3, _padded_a(random_pure(rng, 5, 2))),
                               (0.7, _padded_a(random_pure(rng, 5, 2))))),
                fock.basis_state((1, 2), CutoffSpec((20, 3))), _padded_a(random_pure(rng, 5, 2))]
    return training, [None, 2, 3, None, 1]


def test_compile_cost_equals_per_term_estimates(rng):
    training, m_totals = _compile_training(rng)
    shots, seed = 3000, 12
    terms = proto.compile_terms(training, COMPILE_U, COMPILE_V, m_totals)
    seeds = [derive_seed(seed, j) for j in range(len(terms))]
    each = [est.parity_overlap_estimate(prepared, [(0, 2), (1, 3)], None, shots, s, total)
            for (prepared, total), s in zip(terms, seeds)]
    acc = 0.0
    for result in each:
        acc += result.mean.real
    assert proto.compile_cost(terms, shots, seed) == 1.0 - acc / len(each)


# ---------------------------------------------------------------------------
# hybrid test


def _hybrid_block(state_a, state_b, m):
    """The one block a hybrid estimate draws from."""
    [[block]] = drawn_blocks(lambda: proto.hybrid_swap_estimate(state_a, state_b, m, 1, 0))
    return block


def _rand_hybrid(rng, cap):
    amps = rng.normal(size=(2, cap + 1)) + 1j * rng.normal(size=(2, cap + 1))
    amps /= np.linalg.norm(amps)
    return fock.FockState(CutoffSpec((1, cap)), amps)


def _dense_hybrid_block(state_a, state_b, m):
    """Oracle: both CV modes padded to the pair total, the Bell change and
    the dense beamsplitter on the padded joint state."""
    cv_cap = state_a.cutoff.per_mode_max[1]
    caps = (1, 2 * cv_cap, 1, 2 * cv_cap)
    shape = tuple(c + 1 for c in caps)
    combos = ensemble_combinations([state_a, state_b])
    bell_dag = bell_change().conj().T
    bs = Beamsplitter(math.pi / 4.0, math.pi, 1, 3)
    amps = []
    for _, (sa, sb) in combos:
        joint = pad(fock.tensor(sa, sb), caps)
        bell = apply_two_mode_dense(joint.amplitudes, bell_dag, 0, 2)
        amps.append(apply_beamsplitter(fock.FockState(joint.cutoff, bell), bs).amplitudes)
    z, n_b, x, m_b = np.indices(shape)
    weights = (np.where((z * x + n_b) % 2 == 0, 1.0, -1.0) * (n_b + m_b <= 2 * m)).ravel()
    # every outcome is its own weight level
    return measurement_block([w for w, _ in combos], np.stack(amps), weights,
                             np.arange(weights.size)), shape


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 5), st.integers(1, 2), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_hybrid_block_matches_padded_oracle(cap, rank_a, rank_b, seed):
    rng = np.random.default_rng(seed)

    def register(rank):
        if rank == 1:
            return _rand_hybrid(rng, cap)
        w = rng.uniform(0.2, 0.8)
        return MixedEnsemble(((w, _rand_hybrid(rng, cap)), (1.0 - w, _rand_hybrid(rng, cap))))

    a, b = register(rank_a), register(rank_b)
    m = int(rng.integers(0, cap + 2))
    oracle, _ = _dense_hybrid_block(a, b, m)
    assert_same_law(_hybrid_block(a, b, m), oracle)


def test_hybrid_trivial_cases():
    cut = CutoffSpec((1, 5))
    a = fock.basis_state((0, 0), cut)
    b = fock.basis_state((1, 0), cut)
    assert proto.hybrid_swap_expectation(a, a, 5) == pytest.approx(1.0, abs=1e-12)
    assert proto.hybrid_swap_expectation(a, b, 5) == pytest.approx(0.0, abs=1e-12)
    res = proto.hybrid_swap_estimate(a, a, 5, 400, 2)
    assert res.mean == 1.0 + 0j


def test_hybrid_exact_matches_overlap(rng):
    cap = 6
    for _ in range(15):
        a, b = _rand_hybrid(rng, cap), _rand_hybrid(rng, cap)
        want = abs(inner_product(a, b)) ** 2
        got = proto.hybrid_swap_expectation(a, b, cap)
        assert got == pytest.approx(want, abs=1e-10)


def test_hybrid_sampled(rng):
    a, b = _rand_hybrid(rng, 5), _rand_hybrid(rng, 5)
    exact = proto.hybrid_swap_expectation(a, b, 5)
    res = proto.hybrid_swap_estimate(a, b, 5, 60_000, 29)
    assert abs(res.mean.real - exact) <= 5 * res.stderr
    assert abs(res.mean) <= 1.0 + 3 * res.stderr


def test_hybrid_dual_routes_at_finite_threshold(rng):
    # full enumeration of the sampled distribution times the shot weights
    # agrees with the masked-swap operator expectation at every threshold
    a, b = _rand_hybrid(rng, 4), _rand_hybrid(rng, 4)
    for m in (0, 1, 2, 4):
        levels, q = _hybrid_block(a, b, m)
        enumerated = float(np.dot(q, np.real(levels)))
        assert enumerated == pytest.approx(proto.hybrid_swap_expectation(a, b, m), abs=1e-12)


def test_hybrid_shot_weights_are_signs_or_zero(rng):
    a, b = _rand_hybrid(rng, 4), _rand_hybrid(rng, 4)
    levels, _ = _hybrid_block(a, b, 2)
    assert set(np.real(levels)) <= {-1.0, 0.0, 1.0}
    assert np.all(np.imag(levels) == 0.0)


def test_hybrid_ensembles(rng):
    cap = 4
    comps = tuple((0.5, _rand_hybrid(rng, cap)) for _ in range(2))
    ens = MixedEnsemble(comps)
    pure = _rand_hybrid(rng, cap)
    want = sum(w * abs(inner_product(s, pure)) ** 2 for w, s in comps)
    got = proto.hybrid_swap_expectation(ens, pure, cap)
    assert got == pytest.approx(want, abs=1e-10)


def test_hybrid_without_threshold_is_the_full_cap_block(rng):
    # None keeps every shot, as does 2M at the pair's photon budget 2 cap
    cap = 3
    a = MixedEnsemble(((0.4, _rand_hybrid(rng, cap)), (0.6, _rand_hybrid(rng, cap))))
    b = _rand_hybrid(rng, cap)
    free, full = _hybrid_block(a, b, None), _hybrid_block(a, b, cap)
    assert all(np.array_equal(x, y) for x, y in zip(free, full, strict=True))
    assert proto.hybrid_swap_estimate(a, b, None, 10, 1) == proto.hybrid_swap_estimate(a, b, cap, 10, 1)
    assert proto.hybrid_swap_expectation(a, b, None) == proto.hybrid_swap_expectation(a, b, cap)
    with pytest.raises(est.MeasurementSpecError, match="thresholds must be >= 0"):
        proto.hybrid_swap_estimate(a, b, -1, 10, 1)


def test_hybrid_shape_mismatch(rng):
    a = _rand_hybrid(rng, 4)
    b = _rand_hybrid(rng, 5)
    with pytest.raises(ValueError):
        proto.hybrid_swap_estimate(a, b, 4, 10, 0)
    with pytest.raises(ValueError):
        proto.hybrid_swap_estimate(random_pure(rng, 3, modes=2), a, 3, 10, 0)


def test_hybrid_threshold_truncates(rng):
    # with the threshold at zero photons only the vacuum-vacuum component
    # survives, so the expectation collapses toward the qubit overlap piece
    cut = CutoffSpec((1, 4))
    amps = np.zeros((2, 5), dtype=complex)
    amps[0, 0] = amps[0, 1] = 1.0 / math.sqrt(2)
    a = fock.FockState(cut, amps)
    full = proto.hybrid_swap_expectation(a, a, 4)
    clipped = proto.hybrid_swap_expectation(a, a, 0)
    assert full == pytest.approx(1.0, abs=1e-12)
    assert clipped < full


def test_hybrid_rejects_zero_norm_register(rng):
    a = _rand_hybrid(rng, 3)
    zero = fock.FockState(a.cutoff, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        proto.hybrid_swap_estimate(a, zero, 3, 100, 1)


# ---------------------------------------------------------------------------
# several runs from one block build


def _dv_state(rng, dims):
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    return dv.DVState(dims, amps / np.linalg.norm(amps))


def _laws(rng) -> dict:
    """Block lists whose laws the estimators draw from: the PERM law of
    complex levels, two blocks whose levels multiply, and a law that
    discards shots."""
    a, b = random_ensemble(rng, 3, 2), random_pure(rng, 3)
    return {
        "perm": [proto._perm_block([a, b, a])],
        "two-block": [law_block([0.0, 1.0, -1.0], [0.1, 0.5, 0.4]),
                      law_block([1.0, -1.0], [0.7, 0.3])],
        "discarding": [law_block([0.0, 1.0, -1.0], [0.4, 0.35, 0.25])],
    }


def _shot_estimators(rng) -> dict:
    """Every public shot estimator as a function of its seed, on small
    inputs with an ensemble wherever the estimator takes one."""
    a, b, pair = random_ensemble(rng, 4, 2), random_pure(rng, 4), random_pure(rng, 3, modes=2)
    copies = [random_pure(rng, 2, modes=2), random_pure(rng, 2, modes=2)]
    ha, hb = _rand_hybrid(rng, 4), _rand_hybrid(rng, 4)
    qa = fock.MixedEnsemble(((0.3, _dv_state(rng, (3, 2))), (0.7, _dv_state(rng, (3, 2)))))
    qb = _dv_state(rng, (3, 2))
    return {
        "cv_swap_estimate": lambda seed: est.cv_swap_estimate(a, b, 3, 500, seed),
        "parity_overlap_estimate": lambda seed: est.parity_overlap_estimate(
            [a, pair, b], [(0, 1), (2, 3)], [2, None], 500, seed),
        "perm_test": lambda seed: proto.perm_test([a, b, a], 500, seed),
        "two_copy_test": lambda seed: proto.two_copy_test(copies, 500, seed, 2),
        "hybrid_swap_estimate": lambda seed: proto.hybrid_swap_estimate(ha, hb, 3, 500, seed),
        "dv_swap_estimate": lambda seed: dv.dv_swap_estimate(qa, qb, 500, seed),
        **{f"{name} law": lambda seed, blocks=blocks: est.estimate_blocks(blocks, 500, seed)
           for name, blocks in _laws(rng).items()},
    }


@pytest.mark.parametrize("name", ["cv_swap_estimate", "parity_overlap_estimate", "perm_test",
                                  "two_copy_test", "hybrid_swap_estimate", "dv_swap_estimate",
                                  "perm law", "two-block law", "discarding law"])
def test_a_sequence_of_seeds_gives_the_single_seed_results(rng, name):
    estimate = _shot_estimators(rng)[name]
    seeds = [derive_seed(11, k) for k in range(3)] + [5]
    single = [estimate(seed) for seed in seeds]
    assert all(isinstance(result, est.EstimatorResult) for result in single)
    assert estimate(seeds) == single
    assert estimate(tuple(seeds)) == single
    assert len({result.mean for result in single}) > 1  # the runs are not one draw repeated


@pytest.mark.parametrize("name", ["perm", "two-block", "discarding"])
def test_a_law_draws_and_sums_as_its_block_list(rng, name):
    # a law shared by every run draws and sums as one built afresh per run
    blocks = _laws(rng)[name]
    law = sampling.ShotLaw(blocks)
    for seed in [derive_seed(11, k) for k in range(3)]:
        (values, counts), discarded = sampling.blocks_estimate(law, 500, seed)
        (want_values, want_counts), want_discarded = sampling.blocks_estimate(
            sampling.ShotLaw(blocks), 500, seed)
        assert np.array_equal(values, want_values) and np.array_equal(counts, want_counts)
        assert discarded == want_discarded
        assert (sampling.estimator_statistics(law, counts)
                == sampling.estimator_statistics(want_values, want_counts))
    if name == "discarding":
        assert discarded > 0


@pytest.mark.parametrize("runs", [1, 4, 64])
def test_an_estimator_call_builds_one_law_for_all_its_runs(rng, runs):
    a, b = random_ensemble(rng, 3, 2), random_pure(rng, 3)
    copies = [random_pure(rng, 2, modes=2), random_pure(rng, 2, modes=2)]
    seeds = [derive_seed(3, k) for k in range(runs)]
    for call in (lambda: est.cv_swap_estimate(a, b, 2, 50, seeds),
                 lambda: proto.perm_test([a, b, a], 50, seeds),
                 lambda: proto.two_copy_test(copies, 50, seeds, 2)):
        with pytest.MonkeyPatch.context() as patch:
            laws = count_calls(patch, sampling, "level_law")
            draws = count_calls(patch, est, "blocks_estimate")
            entered = count_calls(patch, est, "estimate_blocks")
            count_calls(patch, proto, "estimate_blocks", entered)
            assert len(call()) == runs
        assert (len(laws), len(draws), len(entered)) == (1, runs, 1)


VAC2, VAC3 = fock.prepare("vacuum", CutoffSpec((2,))), fock.prepare("vacuum", CutoffSpec((3,)))
PAIR = fock.prepare("vacuum", CutoffSpec((2, 2)))
QUBIT = fock.FockState(CutoffSpec((1,)), np.array([1.0, 0.0]))
QUBIT_CV2, QUBIT_CV3 = fock.tensor(QUBIT, VAC2), fock.tensor(QUBIT, VAC3)


@pytest.mark.parametrize("call, message", [
    (lambda: proto.perm_test([VAC2], 10, 1), "PERM test needs at least two registers"),
    (lambda: proto.perm_test([VAC2, PAIR, VAC2], 10, 1), "PERM test inputs must be single-mode"),
    (lambda: proto.perm_test([VAC2, VAC3, VAC2], 10, 1), "PERM test inputs must share a common cutoff"),
    (lambda: proto.compile_terms([], [], []), "training set is empty"),
    (lambda: proto.compile_terms([VAC2], [], []), "training states live on two modes (A, R)"),
    (lambda: proto.compile_terms([PAIR], [fock.Displacement(0.1, 1)], []),
     "compiling circuits must act on register A only (single-mode gates on mode 0)"),
    (lambda: proto.hybrid_swap_estimate(QUBIT_CV2, QUBIT_CV3, 1, 10, 1),
     "hybrid inputs must share the CV cutoff"),
    (lambda: proto.hybrid_swap_estimate(VAC2, QUBIT_CV2, 1, 10, 1),
     "state_a must be qubit (cutoff 1) tensor one CV mode"),
    (lambda: est.cv_swap_estimate(VAC2, PAIR, None, 10, 1), "state_b must be a single-mode state"),
    (lambda: est.parity_overlap_estimate([], [], None, 10, 1), "overlap states list is empty"),
    (lambda: proto.two_copy_test([PAIR], 10, 1), "two-copy test needs at least two copies"),
    (lambda: dv.swap_eigenbasis(2, "x"), "basis must be 'v' or 'w'"),
    (lambda: dv.dv_swap_estimate(dv.DVState((2,), [1, 0]), dv.DVState((3,), [1, 0, 0]), 10, 1),
     "the two preparations must have identical dims"),
])
def test_input_shapes_a_protocol_cannot_take_are_spec_errors(call, message):
    # cli.main maps MeasurementSpecError to a config error (exit 2)
    with pytest.raises(est.MeasurementSpecError) as refusal:
        call()
    assert str(refusal.value) == message


@pytest.mark.parametrize("shots, seed, message", [
    (100, "42", "a seed must be an integer or a flat sequence of integers, not str"),
    (100, b"7", "a seed must be an integer or a flat sequence of integers, not bytes"),
    (100, [[1, 2]], "a seed must be an integer or a flat sequence of integers, not list"),
    (100, np.array(5), "a seed must be an integer or a flat sequence of integers, not ndarray"),
    (100, 2.9, "a seed must be an integer or a flat sequence of integers, not float"),
    (100, [4, True], "a seed must be an integer or a flat sequence of integers, not bool"),
    (100.5, 4, "shots must be an integer, not float"),
    ("100", [4, 5], "shots must be an integer, not str"),
])
def test_seeds_and_shots_that_are_not_integers_are_spec_errors(rng, shots, seed, message):
    pair = random_pure(rng, 3), random_pure(rng, 3)
    for call in (lambda: est.cv_swap_estimate(*pair, 2, shots, seed),
                 lambda: est.estimate_blocks([law_block([1.0], [1.0])], shots, seed)):
        with pytest.raises(est.MeasurementSpecError) as refusal:
            call()
        assert str(refusal.value) == message


def test_numpy_integers_and_flat_sequences_are_seeds_and_shots(rng):
    blocks = _laws(rng)["discarding"]
    want = [est.estimate_blocks(blocks, 300, seed) for seed in (0, 1, 2)]
    for seeds in (range(3), np.arange(3), [np.int64(0), np.uint8(1), 2]):
        assert est.estimate_blocks(blocks, np.int32(300), seeds) == want
    result = est.estimate_blocks(blocks, np.int64(300), np.uint64(2**64 - 1))
    assert result == est.estimate_blocks(blocks, 300, -1)
    assert type(result.shots) is int and type(result.seed) is int


def test_a_shot_count_below_one_is_refused_before_any_seed():
    block = law_block([1.0], [1.0])
    for seeds in (4, [], [4, 5]):
        with pytest.raises(est.MeasurementSpecError, match="shots must be >= 1"):
            est.estimate_blocks([block], 0, seeds)
