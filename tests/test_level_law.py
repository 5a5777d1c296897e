"""The level law of every public shot estimator's blocks has the exact
expectation of an independent dense density-matrix oracle: sum q . values
from ``sampling.level_law`` equals tr(rho O) to 1e-10, where rho is the
dense joint density matrix and O the estimator's observable, built here
without any measurement transform."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvswap import dv, estimators as est, fock, protocols as proto, sampling

from conftest import density_matrix, padded_circuit, padded_on_a

TOL = 1e-10


def law_expectations(run) -> list[complex]:
    """sum q . values of every law ``run()`` builds to draw from, in order:
    an estimator call builds one ``ShotLaw`` for all its runs."""
    seen = []
    build = sampling.level_law

    def capture(blocks):
        values, q = build(blocks)
        seen.append(complex(np.dot(q, values)))
        return values, q

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "level_law", capture)
        run()
    return seen


def random_state(rng, caps, rank=1):
    """A FockState on per-mode ``caps``, or a MixedEnsemble of ``rank``
    such states."""

    def pure():
        shape = tuple(c + 1 for c in caps)
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return fock.FockState(fock.CutoffSpec(tuple(caps)), amps / np.linalg.norm(amps))

    if rank == 1:
        return pure()
    w = rng.random(rank) + 0.1
    return fock.MixedEnsemble(tuple((float(x), pure()) for x in w / w.sum()))


def joint_density(factors, dims) -> np.ndarray:
    """Dense density matrix of the tensor product of ``factors`` (modes
    concatenated), each mode zero-padded to its entry of ``dims``."""
    rho = np.ones((1, 1), dtype=np.complex128)
    mode = 0
    for factor in factors:
        dense = density_matrix(factor)
        shape = factor.cutoff.shape
        pad = [(0, d - s) for s, d in zip(shape, dims[mode:mode + len(shape)])]
        dense = np.pad(dense.reshape(shape * 2), pad * 2).reshape(
            math.prod(dims[mode:mode + len(shape)]), -1)
        rho = np.kron(rho, dense)
        mode += len(shape)
    return rho


def swap_observable_expectation(rho, dims, pairs, thresholds, totals=()) -> complex:
    """tr(rho O) with O the product of the SWAPs of ``pairs`` times the
    projector onto the patterns whose pair totals stay within 2 M_p and
    whose photon count summed over each mode group of ``totals`` (a list of
    (modes, M)) stays within 2 M; None means no threshold."""
    grid = np.indices(dims).reshape(len(dims), -1)
    keep = np.ones(grid.shape[1], dtype=bool)
    for (a, b), m in zip(pairs, thresholds):
        if m is not None:
            keep &= grid[a] + grid[b] <= 2 * m
    for modes, m in totals:
        if m is not None:
            keep &= grid[list(modes)].sum(axis=0) <= 2 * m
    swapped = grid.copy()
    for a, b in pairs:
        swapped[[a, b]] = grid[[b, a]]
    image = np.ravel_multi_index(tuple(swapped), dims)
    # O maps basis state i to image[i] when kept: tr(rho O) = sum_i rho[i, image[i]] keep[i]
    return complex(np.sum(rho[np.arange(rho.shape[0]), image] * keep))


def padded_dims(caps, pairs) -> list[int]:
    dims = [c + 1 for c in caps]
    for a, b in pairs:
        dims[a] = dims[b] = max(dims[a], dims[b])
    return dims


def threshold(rng, top):
    return None if rng.random() < 0.3 else int(rng.integers(0, top + 1))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_cv_swap_law(seed):
    rng = np.random.default_rng(seed)
    a = random_state(rng, [int(rng.integers(0, 6))], int(rng.integers(1, 3)))
    b = random_state(rng, [int(rng.integers(0, 6))], int(rng.integers(1, 3)))
    m = threshold(rng, 6)
    [got] = law_expectations(lambda: est.cv_swap_estimate(a, b, m, 1, seed))
    dims = padded_dims([a.cutoff.per_mode_max[0], b.cutoff.per_mode_max[0]], [(0, 1)])
    want = swap_observable_expectation(joint_density([a, b], dims), dims, [(0, 1)], [m])
    assert abs(got - want) < TOL


# (modes of each factor, pairs, mode groups a measurement connects)
PARITY_LAYOUTS = [
    ([2], [(0, 1)], [[0, 1]]),
    ([1, 1], [(0, 1)], [[0, 1]]),
    ([2, 2], [(0, 2), (1, 3)], [[0, 1, 2, 3]]),
    ([2, 2], [(1, 2)], [[0, 1, 2, 3]]),
    ([1, 2], [(0, 2)], [[0, 1, 2]]),
    ([1, 1, 1, 1], [(0, 1), (3, 2)], [[0, 1], [2, 3]]),
]


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(PARITY_LAYOUTS), st.integers(0, 2**32 - 1))
def test_parity_overlap_law(layout, seed):
    modes, pairs, groups = layout
    rng = np.random.default_rng(seed)
    factors = [random_state(rng, [int(c) for c in rng.integers(0, 4, size=k)], int(rng.integers(1, 3)))
               for k in modes]
    thresholds = [threshold(rng, 4) for _ in pairs]
    m_total = threshold(rng, 6)
    draws = law_expectations(
        lambda: est.parity_overlap_estimate(factors, pairs, thresholds, 1, seed, m_total=m_total))
    caps = [c for f in factors for c in f.cutoff.per_mode_max]
    dims = padded_dims(caps, pairs)
    want = swap_observable_expectation(joint_density(factors, dims), dims, pairs, thresholds,
                                       [(group, m_total) for group in groups])
    assert len(draws) == 1 and abs(draws[0] - want) < TOL


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 4), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_perm_law(registers, cap, seed):
    rng = np.random.default_rng(seed)
    states = [random_state(rng, [cap], int(rng.integers(1, 3))) for _ in range(registers)]
    [got] = law_expectations(lambda: proto.perm_test(states, 1, seed))
    want = np.trace(functools.reduce(np.matmul, [density_matrix(s) for s in states]))
    assert abs(got - want) < TOL


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_two_copy_law(seed):
    # two copies A_1 B_1 and A_2 B_2; the oracle's second stack swaps A_1 and A_2
    rng = np.random.default_rng(seed)
    cap_a, cap_b = int(rng.integers(0, 2)), int(rng.integers(0, 3))
    copies = [random_state(rng, [cap_a, cap_b]) for _ in range(2)]
    psi = fock.tensor(*copies)
    shifted = fock.FockState(psi.cutoff, np.transpose(psi.amplitudes, (2, 1, 0, 3)))
    kind = rng.integers(0, 3)
    m = None if kind == 0 else (int(rng.integers(0, 3)) if kind == 1 else
                                [threshold(rng, 2) for _ in range(4)])
    [got] = law_expectations(lambda: proto.two_copy_test(copies, 1, seed, m))
    pairs = [(j, 4 + j) for j in range(4)]
    dims = [cap_a + 1, cap_b + 1] * 4
    want = swap_observable_expectation(joint_density([psi, shifted], dims), dims, pairs,
                                       est.normalize_thresholds(m, 4))
    assert abs(got - want) < TOL


def random_gates(rng) -> list:
    makers = [
        lambda: fock.Displacement(complex(*rng.normal(scale=0.3, size=2)), 0),
        lambda: fock.Squeeze(complex(*rng.normal(scale=0.2, size=2)), 0),
        lambda: fock.PhaseRotation(float(rng.uniform(0, 2 * math.pi)), 0),
    ]
    return [makers[int(k)]() for k in rng.integers(0, 3, size=rng.integers(0, 3))]


def mapped_density(state, gates) -> tuple[np.ndarray, float]:
    """Density matrix of every component with the circuit applied exactly
    and truncated once on mode A (``padded_circuit``), each mapped
    component normalised; and the largest share of weight a component lost
    past the A cutoff."""
    rho, worst = 0, 0.0
    for w, pure in fock.components_of(state):
        mapped, lost = padded_circuit(pure, gates)
        vec = mapped.amplitudes.ravel()
        rho = rho + w * np.outer(vec, vec.conj()) / np.vdot(vec, vec).real
        worst = max(worst, lost)
    return rho, worst


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
@example(416)  # the refusal branch
def test_compile_cost_term_laws(seed):
    # each term's law against the dense oracle of the exactly mapped
    # states, or the refusal where the oracle loses more than LEAK_HARD;
    # the random states fill A cutoffs of at most 2 and are padded on A by
    # 10 levels, so that most circuits keep their images inside the box
    rng = np.random.default_rng(seed)
    caps = [int(rng.integers(1, 3)), int(rng.integers(0, 3))]
    training = [padded_on_a(random_state(rng, caps, int(rng.integers(1, 3))), caps[0] + 10)
                for _ in range(rng.integers(1, 4))]
    caps[0] += 10
    u_gates, v_gates = random_gates(rng), random_gates(rng)
    totals = None if rng.random() < 0.3 else [threshold(rng, 5) for _ in training]
    mapped = [(mapped_density(psi, u_gates), mapped_density(psi, v_gates)) for psi in training]
    if max(lost for pair in mapped for _, lost in pair) > fock.LEAK_HARD:
        with pytest.raises(fock.PreparationLeakError):
            proto.compile_terms(training, u_gates, v_gates, totals)
        return
    terms = proto.compile_terms(training, u_gates, v_gates, totals)
    got = law_expectations(lambda: proto.compile_cost(terms, 1, seed))
    dims = [c + 1 for c in caps] * 2
    pairs = [(0, 2), (1, 3)]
    assert len(got) == len(training)
    for j, ((rho_u, _), (rho_v, _)) in enumerate(mapped):
        total = None if totals is None else totals[j]
        want = swap_observable_expectation(np.kron(rho_u, rho_v), dims, pairs, [None, None],
                                           [(range(4), total)])
        assert abs(got[j] - want) < TOL


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_hybrid_law(seed):
    rng = np.random.default_rng(seed)
    cap = int(rng.integers(0, 5))
    a = random_state(rng, [1, cap], int(rng.integers(1, 3)))
    b = random_state(rng, [1, cap], int(rng.integers(1, 3)))
    m = threshold(rng, cap + 1)
    [got] = law_expectations(lambda: proto.hybrid_swap_estimate(a, b, m, 1, seed))
    dims = [2, cap + 1, 2, cap + 1]
    want = swap_observable_expectation(joint_density([a, b], dims), dims, [(0, 2), (1, 3)], [None, m])
    assert abs(got - want) < TOL


def random_qudits(rng, dims, rank):
    def pure():
        amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        return dv.DVState(dims, amps / np.linalg.norm(amps))

    if rank == 1:
        return pure()
    w = rng.random(rank) + 0.1
    return fock.MixedEnsemble(tuple((float(x), pure()) for x in w / w.sum()))


def qudit_density(prep) -> np.ndarray:
    return sum(w * np.outer(s.amplitudes.ravel(), s.amplitudes.ravel().conj())
               for w, s in fock.components_of(prep))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_dv_swap_law(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 4, size=rng.integers(1, 3)))
    a = random_qudits(rng, dims, int(rng.integers(1, 3)))
    b = random_qudits(rng, dims, int(rng.integers(1, 3)))
    [got] = law_expectations(lambda: dv.dv_swap_estimate(a, b, 1, seed))
    want = np.trace(qudit_density(a) @ qudit_density(b))
    assert abs(got - want) < TOL
