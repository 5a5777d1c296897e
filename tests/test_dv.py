import math

import numpy as np
import pytest

from cvswap import dv, fock
from cvswap.dv import DVState, dv_swap_estimate, dv_swap_expectation
from cvswap.fock import MixedEnsemble
from cvswap.sampling import level_law

from conftest import assert_same_law, drawn_blocks, mesh_dv_block


def rand_dv(rng, dims):
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    amps /= np.linalg.norm(amps)
    return DVState(tuple(dims), amps)


def swap_permutation(d):
    perm = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            perm[j * d + i, i * d + j] = 1.0
    return perm


def the_law(a, b):
    """The one block a DV SWAP-test draw builds."""
    [[block]] = drawn_blocks(lambda: dv_swap_estimate(a, b, 1, 0))
    return block


def test_dvstate_requires_unit_norm():
    with pytest.raises(ValueError):
        DVState((2,), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DVState((2,), np.array([math.nan, 0.0]))


def test_dvstate_is_a_fock_register_of_its_dims():
    state = DVState((2, 3), np.eye(2, 3) / math.sqrt(2))
    assert isinstance(state, fock.FockState)
    assert state.dims == (2, 3) and state.cutoff == fock.CutoffSpec((1, 2))
    with pytest.raises(ValueError, match="local dimensions must be >= 2"):
        DVState((2, 1), np.eye(2, 1))


def test_dv_ensemble_refuses_nan_weights():
    state = DVState((2,), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="weights must lie in"):
        MixedEnsemble(((math.nan, state),))


def test_dv_ensemble_refuses_weights_outside_the_unit_interval():
    # 1.5 |0><0| - 0.5 |1><1| has trace 1, but no shot can draw a negative
    # weight: against |0> its estimate read 1.0 where its exact value is 1.5
    zero, one = DVState((2,), np.array([1.0, 0.0])), DVState((2,), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="weights must lie in"):
        MixedEnsemble(((1.5, zero), (-0.5, one)))


def test_bell_states_qubit_labels():
    b00 = dv.qudit_bell_state(0, 0, 2).amplitudes.ravel()
    assert np.allclose(b00, np.array([1, 0, 0, 1]) / math.sqrt(2))
    b11 = dv.qudit_bell_state(1, 1, 2).amplitudes.ravel()
    assert np.allclose(b11, np.array([0, -1, 1, 0]) / math.sqrt(2))


def test_bell_states_orthonormal_d3():
    cols = [dv.qudit_bell_state(z, x, 3).amplitudes.ravel() for z in range(3) for x in range(3)]
    gram = np.array([[np.vdot(a, b) for b in cols] for a in cols])
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12


def test_bell_state_label_range():
    with pytest.raises(ValueError):
        dv.qudit_bell_state(3, 0, 3)


def test_v_unitary_middle_case():
    mat = dv.swap_eigenbasis(2, "v")[0]
    col = mat[:, 0 * 2 + 1]
    assert np.allclose(col, np.array([0, 1, 1, 0]) / math.sqrt(2))


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("basis", ["v", "w"])
def test_swap_eigenbasis_properties(d, basis):
    mat, eig = dv.swap_eigenbasis(d, basis)
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(d * d))) < 1e-12
    perm = swap_permutation(d)
    assert np.max(np.abs(perm @ mat - mat * eig[None, :])) < 1e-12
    assert int(np.sum(eig > 0)) == d * (d + 1) // 2
    assert int(np.sum(eig < 0)) == d * (d - 1) // 2


def test_w_small_multiplicities():
    _, eig2 = dv.swap_eigenbasis(2, "w")
    assert (int(np.sum(eig2 > 0)), int(np.sum(eig2 < 0))) == (3, 1)
    _, eig3 = dv.swap_eigenbasis(3, "w")
    assert (int(np.sum(eig3 > 0)), int(np.sum(eig3 < 0))) == (6, 3)
    _, eig4 = dv.swap_eigenbasis(4, "w")
    assert (int(np.sum(eig4 > 0)), int(np.sum(eig4 < 0))) == (10, 6)


def test_expectation_identical_and_orthogonal():
    e0 = DVState((2,), np.array([1.0, 0.0]))
    e1 = DVState((2,), np.array([0.0, 1.0]))
    assert dv_swap_expectation(e0, e0) == pytest.approx(1.0, abs=1e-12)
    assert dv_swap_expectation(e0, e1) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("basis", ["v", "w"])
def test_block_weights_are_eigenvalue_products(rng, basis):
    # the parity group's law over (0, 1, -1) is that of measuring every
    # pair in either basis and scoring the product of the outcome
    # eigenvalues: no shot is discarded
    dims = (2, 3)
    a = rand_dv(rng, dims)
    b = MixedEnsemble(((0.3, rand_dv(rng, dims)), (0.7, rand_dv(rng, dims))))
    block = the_law(a, b)
    assert np.array_equal(block[0], [0.0, 1.0, -1.0])
    assert_same_law(block, mesh_dv_block(a, b, basis))


@pytest.mark.parametrize("basis", ["v", "w"])
def test_expectation_matches_overlap_pure(rng, basis):
    # the exact value and the mean of the basis's shot law are both |<a|b>|^2
    for dims in [(3,), (3, 3), (2, 4)]:
        a, b = rand_dv(rng, dims), rand_dv(rng, dims)
        want = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
        assert dv_swap_expectation(a, b) == pytest.approx(want, abs=1e-12)
        assert np.dot(*level_law([the_law(a, b)])) == pytest.approx(want, abs=1e-10)
        assert np.dot(*level_law([mesh_dv_block(a, b, basis)])) == pytest.approx(want, abs=1e-10)


def test_expectation_matches_trace_mixed(rng):
    dims = (3,)
    comps_a = [rand_dv(rng, dims) for _ in range(2)]
    comps_b = [rand_dv(rng, dims) for _ in range(3)]
    wa = np.array([0.3, 0.7])
    wb = np.array([0.2, 0.5, 0.3])
    ens_a = MixedEnsemble(tuple((float(w), s) for w, s in zip(wa, comps_a)))
    ens_b = MixedEnsemble(tuple((float(w), s) for w, s in zip(wb, comps_b)))
    rho = sum(w * np.outer(s.amplitudes, s.amplitudes.conj()) for w, s in zip(wa, comps_a))
    sig = sum(w * np.outer(s.amplitudes, s.amplitudes.conj()) for w, s in zip(wb, comps_b))
    want = np.trace(rho @ sig).real
    assert dv_swap_expectation(ens_a, ens_b) == pytest.approx(want, abs=1e-12)
    assert np.dot(*level_law([the_law(ens_a, ens_b)])) == pytest.approx(want, abs=1e-10)
    for basis in ("v", "w"):
        law_mean = np.dot(*level_law([mesh_dv_block(ens_a, ens_b, basis)]))
        assert law_mean == pytest.approx(want, abs=1e-10)


def test_expectation_three_pairs(rng):
    a, b = rand_dv(rng, (2, 2, 2)), rand_dv(rng, (2, 2, 2))
    want = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    assert dv_swap_expectation(a, b) == pytest.approx(want, abs=1e-10)


def test_sampled_mean_within_five_stderr(rng):
    a, b = rand_dv(rng, (3,)), rand_dv(rng, (3,))
    exact = dv_swap_expectation(a, b)
    res = dv_swap_estimate(a, b, 100_000, 31)
    assert abs(res.mean.real - exact) <= 5 * res.stderr
    assert abs(res.mean.imag) < 1e-12
    # a mixed preparation draws its component from a stream of its own
    ens = MixedEnsemble(((0.3, rand_dv(rng, (3,))), (0.7, rand_dv(rng, (3,)))))
    exact = dv_swap_expectation(ens, b)
    res = dv_swap_estimate(ens, b, 100_000, 12)
    assert abs(res.mean.real - exact) <= 5 * res.stderr


def test_estimate_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        dv_swap_estimate(rand_dv(rng, (2,)), rand_dv(rng, (3,)), 10, 0)
    with pytest.raises(ValueError, match="identical dims"):
        dv_swap_expectation(rand_dv(rng, (2,)), rand_dv(rng, (3,)))


def test_estimate_deterministic(rng):
    a, b = rand_dv(rng, (2, 2)), rand_dv(rng, (2, 2))
    assert dv_swap_estimate(a, b, 500, 8) == dv_swap_estimate(a, b, 500, 8)


def test_large_registers_need_no_joint_space():
    # five pairs of six-level qudits: the 6^10 joint amplitudes of the
    # measured pair are never formed, since the law needs only <a|b>
    amps = np.zeros((6,) * 5)
    amps[(0,) * 5] = 1.0
    state = DVState((6,) * 5, amps)
    res = dv_swap_estimate(state, state, 10, 0)
    assert res.mean == 1.0 and res.discarded == 0


def test_oversized_basis_is_refused_before_allocating(monkeypatch):
    # a 36 x 36 basis matrix exceeds a limit of 1,000 entries
    monkeypatch.setattr(fock, "MAX_WORKING_ELEMENTS", 1000)
    for basis in ("v", "w"):
        with pytest.raises(fock.ResourceLimitError, match="desk-scale limit"):
            dv.swap_eigenbasis(6, basis)
    assert dv.swap_eigenbasis(5, "w")[0].shape == (25, 25)
