import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from cvswap import estimators as est, fock
from cvswap.fock import (
    CutoffSpec,
    Displacement,
    FockState,
    MixedEnsemble,
    PhaseRotation,
    Squeeze,
)

from conftest import (
    Beamsplitter,
    apply_beamsplitter,
    apply_passive,
    beamsplitter_blocks,
    closed_pattern_count,
    closed_patterns,
    dagger,
    dense_matrix,
    expm_gates,
    inner_product,
    invert_circuit,
    pad,
    random_number_conserving,
    random_pure,
    rectangular_decompose,
    row_recurrence_columns,
    run_circuit,
    single_particle_matrix,
    swap_modes,
    two_mode_ladder_ops,
)


# ---------------------------------------------------------------------------
# domain types


def test_cutoff_rejects_negative():
    with pytest.raises(ValueError):
        CutoffSpec((3, -1))


def test_state_shape_mismatch():
    with pytest.raises(ValueError):
        FockState(CutoffSpec((2, 2)), np.zeros(5, dtype=complex))


def test_state_norm_cached(rng):
    state = random_pure(rng, 6)
    assert state.norm_sq == pytest.approx(1.0, abs=1e-12)
    scaled = FockState(state.cutoff, state.amplitudes * 2.0)
    assert scaled.norm_sq == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(TypeError):  # computed, never passed in
        FockState(state.cutoff, state.amplitudes, norm_sq=1.0)


def test_cutoff_beyond_numpy_axes_is_a_resource_limit():
    # numpy arrays carry at most 64 axes, so a register of more modes is
    # refused where its cutoff is built, before any amplitude exists
    assert CutoffSpec((0,) * 64).dim == 1
    with pytest.raises(fock.ResourceLimitError, match="65 modes exceed numpy's 64 array axes"):
        CutoffSpec((0,) * 65)
    with pytest.raises(fock.ResourceLimitError, match="66 modes"):
        fock.tensor(fock.basis_state((0,) * 64, CutoffSpec((0,) * 64)),
                    fock.basis_state((0, 0), CutoffSpec((0, 0))))


def test_cutoff_equality_compares_the_caps():
    assert CutoffSpec((3, 2)) == CutoffSpec([3.0, 2])
    assert not CutoffSpec((3, 2)) != CutoffSpec((3, 2))
    assert CutoffSpec((3, 2)) != CutoffSpec((3, 3))
    assert CutoffSpec((3,)) != (3,) and (3,) != CutoffSpec((3,))


@pytest.mark.parametrize("value", [
    CutoffSpec((2,)),
    FockState(CutoffSpec((1,)), [1.0, 0.0]),
    Displacement(0.5, 0),
    PhaseRotation(0.3, 0),
])
def test_value_types_take_no_undeclared_attribute(value):
    with pytest.raises(AttributeError):
        value.extra = 1


def test_angles_are_canonical():
    assert PhaseRotation(-0.5, 0).phi == pytest.approx(2 * math.pi - 0.5, abs=1e-15)
    assert PhaseRotation(2 * math.pi, 0).phi == 0.0
    bs = Beamsplitter(math.pi + 1e-13, 7.0, 0, 1)
    assert bs.theta == math.pi and bs.phi == pytest.approx(7.0 - 2 * math.pi, abs=1e-15)
    assert Beamsplitter(-1e-13, -0.25, 1, 0).theta == 0.0
    with pytest.raises(ValueError, match="outside"):
        Beamsplitter(-0.1, 0.0, 0, 1)
    with pytest.raises(ValueError, match="distinct"):
        Beamsplitter(0.3, 0.0, 1, 1)


def test_state_immutable(rng):
    state = random_pure(rng, 4)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_state_does_not_freeze_caller_array():
    raw = np.zeros(4, dtype=complex)
    raw[0] = 1.0
    state = FockState(CutoffSpec((3,)), raw)
    raw[1] = 0.5  # the caller's buffer stays writable
    assert state.amplitudes[1] == 0.0  # and the state holds its own copy


def test_ensemble_validation(rng):
    a, b = random_pure(rng, 3), random_pure(rng, 3)
    MixedEnsemble(((0.25, a), (0.75, b)))
    with pytest.raises(ValueError):
        MixedEnsemble(((0.5, a), (0.4, b)))
    with pytest.raises(ValueError):
        MixedEnsemble(((0.5, a), (0.5, random_pure(rng, 4))))
    for weights in ((math.nan,), (math.nan, 1.0), (0.5, math.nan)):
        with pytest.raises(ValueError, match="weights must lie in"):
            MixedEnsemble(tuple(zip(weights, (a, b))))


# ---------------------------------------------------------------------------
# basis_state / tensor, and the test oracles' inner_product and pad


def test_basis_vacuum():
    state = fock.basis_state((0, 0), CutoffSpec((3, 3)))
    assert state.norm_sq == 1.0
    assert state.amplitudes[0, 0] == 1.0


def test_basis_pattern_index():
    state = fock.basis_state((2, 1), CutoffSpec((3, 3)))
    assert state.amplitudes[2, 1] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_basis_out_of_range():
    with pytest.raises(ValueError):
        fock.basis_state((4, 0), CutoffSpec((3, 3)))


def test_basis_negative_count_refused():
    # a negative count would otherwise index the box from its far end
    with pytest.raises(ValueError):
        fock.basis_state((0, -1), CutoffSpec((3, 3)))


def test_inner_product_trivial():
    cut = CutoffSpec((2, 2))
    vac = fock.basis_state((0, 0), cut)
    assert inner_product(vac, vac) == 1.0
    e10 = fock.basis_state((1, 0), cut)
    e01 = fock.basis_state((0, 1), cut)
    assert inner_product(e10, e01) == 0.0


def test_inner_product_shape_mismatch():
    a = fock.basis_state((0,), CutoffSpec((2,)))
    b = fock.basis_state((0,), CutoffSpec((3,)))
    with pytest.raises(ValueError):
        inner_product(a, b)


@pytest.mark.parametrize("alpha,beta", [(0.6, -0.8), (0.5 + 0.5j, 0.2 - 0.9j), (1.0, 1.0j)])
def test_coherent_overlap_closed_form(alpha, beta):
    cut = CutoffSpec((30,))
    a = fock.prepare("coherent", cut, alpha=alpha)
    b = fock.prepare("coherent", cut, alpha=beta)
    want = cmath.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2 + np.conj(alpha) * beta)
    assert inner_product(a, b) == pytest.approx(want, abs=1e-10)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_inner_product_sesquilinear(seed):
    rng = np.random.default_rng(seed)
    cut = CutoffSpec((5,))
    vecs = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    a, b, c = (FockState(cut, v) for v in vecs)
    lam = complex(rng.normal(), rng.normal())
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-12)
    lhs = inner_product(a, FockState(cut, lam * vecs[1] + vecs[2]))
    rhs = lam * inner_product(a, b) + inner_product(a, c)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_tensor_basics(rng):
    one = CutoffSpec((3,))
    vac = fock.basis_state((0,), one)
    joint = fock.tensor(vac, vac)
    assert joint.modes == 2 and joint.amplitudes[0, 0] == 1.0
    b1 = fock.basis_state((1,), one)
    b2 = fock.basis_state((2,), one)
    assert fock.tensor(b1, b2).amplitudes[1, 2] == 1.0
    a = FockState(one, rng.normal(size=4) + 1j * rng.normal(size=4))
    b = FockState(one, rng.normal(size=4) + 1j * rng.normal(size=4))
    assert fock.tensor(a, b).norm_sq == pytest.approx(a.norm_sq * b.norm_sq, rel=1e-12)


def test_pad_embeds(rng):
    state = random_pure(rng, 3, modes=2)
    padded = pad(state, (5, 4))
    assert padded.cutoff.per_mode_max == (5, 4)
    assert np.array_equal(padded.amplitudes[:4, :4], state.amplitudes)
    assert padded.norm_sq == pytest.approx(state.norm_sq, rel=1e-14)
    with pytest.raises(ValueError):
        pad(state, (2, 4))


# ---------------------------------------------------------------------------
# gate matrices


def test_phase_rotation_diagonal():
    mat = fock.gate_matrix(PhaseRotation(0.7, 0), CutoffSpec((6,)))
    want = np.diag(np.exp(-1j * 0.7 * np.arange(7)))
    assert np.allclose(mat, want, atol=1e-15)


def test_gate_matrix_is_single_mode():
    # a beamsplitter is no gate of the package, and a gate's mode must be
    # one of the box's
    with pytest.raises(TypeError):
        fock.gate_matrix(Beamsplitter(0.3, 0.0, 0, 1), CutoffSpec((3, 3)))
    with pytest.raises(fock.MeasurementSpecError, match="gate mode 2 outside 0..1"):
        fock.gate_matrix(Squeeze(0.1, 2), CutoffSpec((3, 3)))


def test_gaussian_triple_names_the_gate_it_refuses():
    with pytest.raises(TypeError) as refused:
        fock.gaussian_triple([Displacement(0.1, 0), Beamsplitter(0.3, 0.5, 0, 1)])
    assert str(refused.value) == (
        "Beamsplitter(theta=0.3, phi=0.5, mode_i=0, mode_j=1) is not a single-mode gate")


def test_hong_ou_mandel():
    cut = CutoffSpec((2, 2))
    state = apply_beamsplitter(fock.basis_state((1, 1), cut), Beamsplitter(math.pi / 4, 0.0, 0, 1))
    assert abs(state.amplitudes[1, 1]) < 1e-15
    assert abs(state.amplitudes[2, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert abs(state.amplitudes[0, 2]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_mode_swap_identity_eq8():
    cut = CutoffSpec((5, 5))
    perm = dense_matrix(lambda state: swap_modes(state, 0, 1), cut)
    bs = dense_matrix(Beamsplitter(math.pi / 2, -math.pi / 2, 0, 1), cut)
    phase = np.kron(
        fock.gate_matrix(PhaseRotation(-math.pi / 2, 0), CutoffSpec((5,))),
        fock.gate_matrix(PhaseRotation(-math.pi / 2, 0), CutoffSpec((5,))),
    )
    assert np.max(np.abs(phase @ bs - perm)) < 1e-12


@pytest.mark.parametrize(
    "gate",
    [
        Displacement(0.7 - 0.3j, 0),
        Squeeze(0.4 * cmath.exp(0.8j), 0),
        PhaseRotation(1.1, 0),
    ],
)
def test_single_mode_expm_oracle(gate):
    # convention-fixing oracle: exact matrices vs the exponential of the
    # generator on a padded register, cut back once (conftest.expm_gates)
    dim = 13
    mine = fock.gate_matrix(gate, CutoffSpec((dim - 1,)))
    assert np.max(np.abs(mine - expm_gates(np.eye(dim), [gate])[0])) < 1e-12


@pytest.mark.parametrize(
    "gate, tol",
    [
        (Squeeze(0.25, 0), 1e-9),
        (Squeeze(-0.25j, 0), 1e-9),
        (Squeeze(cmath.rect(0.25, 2.2), 0), 1e-9),
        (Squeeze(cmath.rect(0.18, -0.7), 0), 1e-9),
        (Displacement(0.35, 0), 1e-12),
        (Displacement(0.35j, 0), 1e-12),
        (Displacement(cmath.rect(0.35, 2.5), 0), 1e-12),
        (Displacement(cmath.rect(0.2, -1.1), 0), 1e-12),
    ],
)
def test_single_mode_full_matrix_at_bench_scale(gate, tol):
    # every element at the compile-cost cutoff 80 (d = 81) and gate sizes
    # up to the benchmark's (|z| <= 0.25, |alpha| <= 0.35), against the
    # exponential of the generator on a padded register
    dim = 81
    mine = fock.gate_matrix(gate, CutoffSpec((dim - 1,)))
    assert np.max(np.abs(mine - expm_gates(np.eye(dim), [gate])[0])) < tol


_ANGLES = st.floats(-math.pi, math.pi)
_SINGLE_MODE_GATES = st.one_of(
    st.builds(lambda r, a: Displacement(cmath.rect(r, a), 0), st.just(0.0) | st.floats(0.0, 1.0), _ANGLES),
    st.builds(lambda r, a: Squeeze(cmath.rect(r, a), 0), st.just(0.0) | st.floats(0.0, 0.8), _ANGLES),
    st.builds(lambda phi: PhaseRotation(phi, 0), st.floats(-10.0, 10.0)),
)


@settings(deadline=None, max_examples=60)
@given(_SINGLE_MODE_GATES, st.sampled_from([1, 2, 3, 12, 24]))
@example(Displacement(0j, 0), 24)
@example(Squeeze(0j, 0), 24)
@example(Displacement(cmath.rect(1.0, 2.5), 0), 24)
@example(Squeeze(cmath.rect(0.8, -2.0), 0), 24)
def test_gate_matrix_matches_the_padded_expm_oracle(gate, dim):
    # every kind, zero displacement and squeezing included, against the
    # exponential of the generator on a register padded until its top
    # quarter holds no weight, cut back once
    mine = fock.gate_matrix(gate, CutoffSpec((dim - 1,)))
    assert np.max(np.abs(mine - expm_gates(np.eye(dim), [gate])[0])) < 1e-12


@settings(deadline=None, max_examples=60)
@given(st.lists(_SINGLE_MODE_GATES, min_size=1, max_size=2), st.integers(1, 24),
       st.sampled_from([1, 2, 3, None]))
@example([Displacement(cmath.rect(1.0, 2.5), 0), Squeeze(cmath.rect(0.8, -2.0), 0)], 24, None)
@example([Squeeze(0.8j, 0)], 24, 3)
def test_gaussian_columns_match_the_padded_expm_oracle(gates, dim, k):
    # one or two unitaries, k in {1, 2, 3, dim}, every column against the
    # exponential of the generator on a padded register, cut back once
    k = k or dim
    got = fock.gaussian_columns([fock.gaussian_triple([g]) for g in gates], dim, k)
    for block, gate in zip(got, gates):
        assert np.max(np.abs(block - expm_gates(np.eye(max(dim, k), k), [gate])[0][:dim])) < 1e-12


def _bench_circuit(rng, layers=6):
    """(displacement, squeeze, phase) layers of the compile-gates benchmark's sizes."""
    gates = []
    for _ in range(layers):
        gates += [Displacement(cmath.rect(rng.uniform(0.05, 0.35), rng.uniform(-math.pi, math.pi)), 0),
                  Squeeze(cmath.rect(rng.uniform(0.05, 0.25), rng.uniform(-math.pi, math.pi)), 0),
                  PhaseRotation(rng.uniform(0.0, 6.0), 0)]
    return gates


@pytest.mark.parametrize("seed", range(8))
def test_column_order_is_the_row_recurrence_at_the_compile_benchmark_shape(seed):
    # two 18-gate circuits at d = 81 and k <= 4: each column within 1e-14,
    # relative to its norm, of the same recurrence run one numpy row at a time
    rng = np.random.default_rng(seed)
    triples = [fock.gaussian_triple(_bench_circuit(rng)) for _ in range(2)]
    for k in (1, 2, 3, 4):
        rows, columns = row_recurrence_columns(triples, 81, k), fock.gaussian_columns(triples, 81, k)
        assert np.all(np.linalg.norm(rows - columns, axis=1)
                      <= 1e-14 * np.linalg.norm(rows, axis=1))


def test_gaussian_columns_edge_cases():
    # one entry: the vacuum amplitude, positive
    for gate in (Displacement(0.4 - 0.2j, 0), Squeeze(0.3j, 0)):
        got = fock.gaussian_columns([fock.gaussian_triple([gate])], 1, 1)
        assert got.shape == (1, 1, 1) and got[0, 0, 0].real > 0
        assert abs(got[0, 0, 0] - expm_gates(np.eye(1), [gate])[0][0, 0]) < 1e-12
    # the identity triple builds the identity columns exactly
    assert np.array_equal(fock.gaussian_columns([(1 + 0j, 0j, 0j)] * 2, 9, 4),
                          np.broadcast_to(np.eye(9, 4), (2, 9, 4)))
    # a phase rotation stays diagonal, each step within one rounding of e^{-i phi n}
    for phi in (0.3, 2.5, 5.9):
        [block] = fock.gaussian_columns([fock.gaussian_triple([PhaseRotation(phi, 0)])], 30, 30)
        n = np.arange(30)
        assert np.all(block[~np.eye(30, dtype=bool)] == 0)
        assert np.all(np.abs(np.diag(block) - np.exp(-1j * phi * n)) <= 1e-15 * (n + 1))
    # C order, complex128, one block per triple
    triples = [fock.gaussian_triple([Displacement(0.2, 0)]), fock.gaussian_triple([Squeeze(0.1, 0)])]
    for dim, k in ((7, 3), (5, 5), (3, 6)):
        got = fock.gaussian_columns(triples, dim, k)
        assert got.shape == (2, dim, k) and got.dtype == np.complex128
        assert got.flags.c_contiguous


class _Untouchable:
    """A triple that fails if anything reads it."""

    def __iter__(self):
        raise AssertionError("the triple was read before the size check")


def test_gaussian_columns_refuses_before_it_allocates(monkeypatch):
    # two 8 x 3 blocks under a limit of 47 entries: refused before any
    # triple is read or any array is made
    monkeypatch.setattr(fock, "MAX_WORKING_ELEMENTS", 47)
    monkeypatch.setattr(fock, "np", None)
    with pytest.raises(fock.ResourceLimitError, match=r"\(2 x 24\)"):
        fock.gaussian_columns([_Untouchable(), _Untouchable()], 8, 3)


def test_a_gate_matrix_beyond_the_limit_is_refused(monkeypatch):
    # one 6 x 6 matrix under a limit of 35 entries is refused before it is
    # allocated
    monkeypatch.setattr(fock, "MAX_WORKING_ELEMENTS", 35)
    for gate in (Displacement(0.1, 0), Squeeze(0.1, 0), PhaseRotation(0.3, 0)):
        with pytest.raises(fock.ResourceLimitError, match=r"\(1 x 36\)"):
            fock.gate_matrix(gate, CutoffSpec((5,)))


@pytest.mark.parametrize("theta,phi", [(math.pi / 4, 0.0), (0.61, 1.13), (math.pi / 2, -math.pi / 2)])
def test_beamsplitter_expm_oracle(theta, phi):
    # number-conserving: the truncated generator is exact on every full
    # photon-number block, so same-size truncation suffices here
    dim = 7
    a1, a2 = two_mode_ladder_ops(dim)
    gen = theta * (cmath.exp(1j * phi) * a1.conj().T @ a2 - cmath.exp(-1j * phi) * a1 @ a2.conj().T)
    mine = dense_matrix(Beamsplitter(theta, phi, 0, 1), CutoffSpec((dim - 1, dim - 1)))
    oracle = expm(gen)
    safe = [i * dim + j for i in range(dim) for j in range(dim) if i + j <= (dim - 1) // 2]
    assert np.max(np.abs(mine[np.ix_(safe, safe)] - oracle[np.ix_(safe, safe)])) < 1e-8


def test_beamsplitter_matches_combinatorial_sum():
    # the block recurrence against the direct binomial expansion of
    # (c a^dag - e^{-i phi} s b^dag)^n1 (e^{i phi} s a^dag + c b^dag)^n2
    theta, phi = 0.83, 2.4
    c, s = math.cos(theta), math.sin(theta)
    dim = 5
    mine = dense_matrix(Beamsplitter(theta, phi, 0, 1), CutoffSpec((dim - 1, dim - 1)))
    fact = [math.factorial(k) for k in range(2 * dim)]
    for n1 in range(dim):
        for n2 in range(dim):
            out = np.zeros((2 * dim, 2 * dim), dtype=complex)
            for p in range(n1 + 1):
                for q in range(n2 + 1):
                    j = p + q
                    k = n1 + n2 - j
                    coeff = (
                        math.comb(n1, p) * math.comb(n2, q)
                        * (c ** (p + n2 - q)) * (s ** (n1 - p + q))
                        * ((-1) ** (n1 - p))
                        * cmath.exp(1j * phi * (q - (n1 - p)))
                        * math.sqrt(fact[j] * fact[k])
                        / math.sqrt(fact[n1] * fact[n2])
                    )
                    out[j, k] += coeff
            for j in range(dim):
                k = n1 + n2 - j
                if 0 <= k < dim:
                    assert mine[j * dim + k, n1 * dim + n2] == pytest.approx(out[j, k], abs=1e-12)


def test_displacement_column_norm_defect():
    alpha = 0.9 + 0.4j
    dim = 8
    mat = fock.gate_matrix(Displacement(alpha, 0), CutoffSpec((dim - 1,)))
    # column 0 is the coherent state; its missing norm is the Poisson tail
    captured = np.sum(np.abs(mat[:, 0]) ** 2)
    lam = abs(alpha) ** 2
    tail = 1.0 - sum(math.exp(-lam) * lam ** n / math.factorial(n) for n in range(dim))
    assert 1.0 - captured == pytest.approx(tail, abs=1e-12)


def test_number_conserving_blocks_unitary():
    cut = CutoffSpec((6, 6))
    for op in (Beamsplitter(0.7, 0.3, 0, 1), lambda state: swap_modes(state, 0, 1)):
        mat = dense_matrix(op, cut)
        # columns with full blocks (total <= 6) have unit norm
        for n1 in range(7):
            for n2 in range(7):
                if n1 + n2 <= 6:
                    col = mat[:, n1 * 7 + n2]
                    assert np.sum(np.abs(col) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta, phi", [(math.pi / 4, math.pi), (math.pi / 4, 0.0), (0.3, 1.1),
                                        (2.5, 4.0)])
def test_beamsplitter_blocks_unitary_at_large_totals(theta, phi):
    # a recurrence that builds each column from one predecessor loses
    # unitarity past t ~ 60 at a 50:50 split
    for t, block in beamsplitter_blocks(theta, phi, 200):
        assert np.max(np.abs(block.conj().T @ block - np.eye(t + 1))) < 1e-12, t


# ---------------------------------------------------------------------------
# gate application


def test_phase_on_vacuum():
    cut = CutoffSpec((4,))
    vac = fock.basis_state((0,), cut)
    out = fock.apply_gate(vac, PhaseRotation(2.2, 0))
    assert np.array_equal(out.amplitudes, vac.amplitudes)


def test_beamsplitter_inverts(rng):
    state = random_number_conserving(rng, 8, modes=2, max_total=8)
    gate = Beamsplitter(math.pi / 4, 0.0, 0, 1)
    back = apply_beamsplitter(apply_beamsplitter(state, gate), dagger(gate))
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def test_beamsplitter_refuses_a_box_it_would_truncate():
    # |3, 3> carries six photons, which a (3, 3) box cannot hold after the
    # mixing; padded to (6, 6) the weight is kept
    cut = CutoffSpec((3, 3))
    gate = Beamsplitter(math.pi / 4, 0.0, 0, 1)
    with pytest.raises(ValueError) as refusal:
        apply_beamsplitter(fock.basis_state((3, 3), cut), gate)
    assert str(refusal.value) == ("beamsplitter would truncate: the largest occupied n_i + n_j is 6, "
                                  "beyond the cutoffs (3, 3) of modes (0, 1); pad both modes to that total")
    out = apply_beamsplitter(pad(fock.basis_state((3, 3), cut), (6, 6)), gate)
    assert out.norm_sq == pytest.approx(1.0, abs=1e-12)
    # totals the box holds are applied as before, an empty state included
    assert apply_beamsplitter(fock.basis_state((3, 0), cut), gate).norm_sq == pytest.approx(1.0, abs=1e-12)
    assert not apply_beamsplitter(fock.FockState(cut, np.zeros((4, 4))), gate).amplitudes.any()


def test_squeezed_vacuum_parity():
    cut = CutoffSpec((40,))
    state = fock.apply_gate(fock.basis_state((0,), cut), Squeeze(1.0, 0))
    assert np.max(np.abs(state.amplitudes[1::2])) == 0.0
    assert np.abs(state.amplitudes[2]) > 0


def test_number_conserving_preserves_total_pmf(rng):
    # support restricted to complete total-photon blocks, where the
    # truncated gates are exactly unitary
    state = random_number_conserving(rng, 5, modes=2, max_total=5)
    totals = np.add.outer(np.arange(6), np.arange(6))

    def total_pmf(s):
        p = np.abs(s.amplitudes) ** 2
        return np.bincount(totals.ravel(), weights=p.ravel(), minlength=11)

    before = total_pmf(state)
    for out in (apply_beamsplitter(state, Beamsplitter(0.9, 0.4, 0, 1)),
                fock.apply_gate(state, PhaseRotation(1.3, 1)), swap_modes(state, 0, 1)):
        assert np.max(np.abs(total_pmf(out) - before)) < 1e-12


def test_bs_columns_are_swap_eigenvectors():
    cap = 6
    cut = CutoffSpec((cap, cap))
    gate = Beamsplitter(math.pi / 4, 0.0, 0, 1)
    for n in range(cap + 1):
        for m in range(cap + 1 - n):
            vec = apply_beamsplitter(fock.basis_state((n, m), cut), gate)
            swapped = swap_modes(vec, 0, 1)
            assert np.max(np.abs(swapped.amplitudes - (-1) ** n * vec.amplitudes)) < 1e-12


def test_tmss_circuit_amplitudes():
    # S(r) (x) S(-r) then the pi-phase 50:50 beamsplitter on vacuum
    # the squeezed pair fills its box, so the beamsplitter runs on the pair
    # padded to its photon budget
    r, cap = 1.0, 30
    cut = CutoffSpec((cap, cap))
    squeezed = run_circuit(fock.basis_state((0, 0), cut), [Squeeze(r, 0), Squeeze(-r, 1)])
    state = apply_beamsplitter(pad(squeezed, (2 * cap, 2 * cap)),
                               Beamsplitter(math.pi / 4, math.pi, 0, 1))
    for n in range(cap // 2 + 1):
        want = (-math.tanh(r)) ** n / math.cosh(r)
        assert state.amplitudes[n, n] == pytest.approx(want, abs=1e-12)
    off = state.amplitudes.copy()
    np.fill_diagonal(off, 0.0)
    totals = np.add.outer(np.arange(2 * cap + 1), np.arange(2 * cap + 1))
    assert np.max(np.abs(off[totals <= cap])) < 1e-12


def test_circuit_then_inverse(rng):
    state = random_number_conserving(rng, 8, modes=3, max_total=6)
    gates = [
        Beamsplitter(0.4, 1.0, 0, 1),
        PhaseRotation(0.9, 2),
        Beamsplitter(1.1, 5.0, 1, 2),
        Beamsplitter(0.8, 2.0, 2, 0),
    ]
    roundtrip = run_circuit(run_circuit(state, gates), invert_circuit(gates))
    assert np.max(np.abs(roundtrip.amplitudes - state.amplitudes)) < 1e-10


# ---------------------------------------------------------------------------
# preparations


def test_prepare_coherent_zero_is_vacuum():
    state = fock.prepare("coherent", CutoffSpec((5,)), alpha=0.0)
    assert state.amplitudes[0] == 1.0 and state.norm_sq == 1.0


def test_prepare_coherent_poisson_pmf():
    state = fock.prepare("coherent", CutoffSpec((30,)), alpha=1.0)
    pmf = np.abs(state.amplitudes) ** 2
    want = np.array([math.exp(-1.0) / math.factorial(n) for n in range(31)])
    assert np.max(np.abs(pmf - want)) < 1e-10


def test_prepare_tmss_vacuum_probability():
    state = fock.prepare("tmss", CutoffSpec((25, 25)), r=1.0)
    vac_prob = abs(state.amplitudes[0, 0]) ** 2
    assert vac_prob == pytest.approx(1.0 / math.cosh(1.0) ** 2, abs=1e-6)


def test_prepare_leak_thresholds():
    with pytest.raises(fock.PreparationLeakError):
        fock.prepare("tmss", CutoffSpec((5, 5)), r=1.0)
    warned = fock.prepare("tmss", CutoffSpec((14, 14)), r=1.0)
    assert warned.leak_warning and fock.LEAK_SOFT <= warned.leak < fock.LEAK_HARD
    clean = fock.prepare("tmss", CutoffSpec((25, 25)), r=1.0)
    assert not clean.leak_warning and clean.leak < fock.LEAK_SOFT


def test_prepare_squeezed_matches_gate():
    # the prepared state, rescaled by sqrt(1 - leak), against the squeeze's
    # generator exponentiated on the vacuum and against the closed form,
    # neither of which comes from fock's Gaussian builder
    cut = CutoffSpec((40,))
    z = 0.8 * cmath.exp(0.5j)
    prep = fock.prepare("squeezed", cut, z=z)
    got = prep.amplitudes * math.sqrt(max(1.0 - prep.leak, 0.0))
    exact, lost = expm_gates(np.eye(41, 1), [Squeeze(z, 0)])
    assert np.max(np.abs(got - exact[:, 0])) < 1e-12
    assert prep.leak == pytest.approx(lost, abs=1e-12)
    assert np.max(np.abs(got - _closed_form("squeezed", z, 41))) < 1e-12


def _closed_form(kind, value, dim):
    """<n|D(alpha)|0> or <n|S(z)|0> for n < dim at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        value = mpmath.mpc(value.real, value.imag)
        if kind == "coherent":
            amps = [mpmath.exp(-abs(value) ** 2 / 2) * value ** n / mpmath.sqrt(mpmath.factorial(n))
                    for n in range(dim)]
        else:
            r = abs(value)
            ratio = -value / r * mpmath.tanh(r) if r else 0
            amps = [0 if n % 2 else ratio ** (n // 2) * mpmath.sqrt(mpmath.factorial(n))
                    / (2 ** (n // 2) * mpmath.factorial(n // 2) * mpmath.sqrt(mpmath.cosh(r)))
                    for n in range(dim)]
        return np.array([complex(a) for a in amps])


@pytest.mark.parametrize("kind, magnitudes", [("coherent", (0.0, 0.4, 1.7, 3.1, 4.0)),
                                              ("squeezed", (0.0, 0.3, 0.9, 1.2, 1.5))])
@pytest.mark.parametrize("cap", [12, 45, 110, 199])
def test_prepared_vacuum_columns_match_the_closed_forms_deeply(kind, magnitudes, cap):
    # the vacuum column of gaussian_columns against the closed forms at 50
    # digits: no amplitude of a deep block drifts off the recurrence
    for size in magnitudes:
        for phase in (0.0, 1.1, -2.7):
            value = cmath.rect(size, phase)
            param = {"alpha" if kind == "coherent" else "z": value}
            try:
                prep = fock.prepare(kind, CutoffSpec((cap,)), **param)
            except fock.PreparationLeakError:
                assert cap < 60  # only a shallow box loses that much
                continue
            got = prep.amplitudes * math.sqrt(1.0 - prep.leak)
            assert np.max(np.abs(got - _closed_form(kind, value, cap + 1))) <= 1e-15


# ---------------------------------------------------------------------------
# truncation weights, read through the error bounds: the global bound is
# 1 - q_2M of the pair total, the local one 1 - q_M q_M of the registers


def test_truncation_weight_vacuum():
    vac = fock.basis_state((0, 0), CutoffSpec((4, 4)))
    vac1 = fock.basis_state((0,), CutoffSpec((4,)))
    for m in (0, 1, 4):
        assert est.error_bound_global(vac, m) == 0.0
        assert est.error_bound_local(vac1, vac1, m) == 0.0


def test_truncation_weight_tmss_closed_form():
    r, cap = 0.9, 40
    state = fock.prepare("tmss", CutoffSpec((cap, cap)), r=r)
    for m in (1, 3, 6):
        got = est.error_bound_global(state, m)
        assert got == pytest.approx(math.tanh(r) ** (2 * (m + 1)), abs=1e-9)


def test_truncation_weight_coherent_poisson():
    alpha, beta = 0.9, 0.7j
    cut = CutoffSpec((25,))
    joint = fock.tensor(
        fock.prepare("coherent", cut, alpha=alpha),
        fock.prepare("coherent", cut, alpha=beta),
    )
    lam = abs(alpha) ** 2 + abs(beta) ** 2
    for m in (0, 1, 3):
        want = sum(math.exp(-lam) * lam ** k / math.factorial(k) for k in range(2 * m + 1))
        assert est.error_bound_global(joint, m) == pytest.approx(1.0 - want, abs=1e-10)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_truncation_weight_monotone(seed):
    rng = np.random.default_rng(seed)
    a, b = random_pure(rng, 5), random_pure(rng, 5)
    joint = fock.tensor(a, b)
    for bound in ([est.error_bound_global(joint, m) for m in range(6)],
                  [est.error_bound_local(a, b, m) for m in range(6)]):
        assert all(0.0 <= lo <= hi + 1e-15 for lo, hi in zip(bound[1:], bound))
        assert bound[-1] == pytest.approx(0.0, abs=1e-12)


def test_truncation_weight_one_mode():
    cut = CutoffSpec((5,))
    vac, three = fock.basis_state((0,), cut), fock.basis_state((3,), cut)
    assert est.error_bound_local(three, vac, 2) == 1.0
    assert est.error_bound_local(vac, three, 3) == 0.0
    energy = 1.3
    coh = fock.prepare("coherent", CutoffSpec((30,)), alpha=math.sqrt(energy))
    vac30 = fock.basis_state((0,), CutoffSpec((30,)))
    for m in (0, 2, 4):
        want = sum(math.exp(-energy) * energy ** k / math.factorial(k) for k in range(m + 1))
        assert est.error_bound_local(coh, vac30, m) == pytest.approx(1.0 - want, abs=1e-10)
    mix = MixedEnsemble(((0.5, vac), (0.5, fock.basis_state((1,), cut))))
    assert est.error_bound_local(mix, vac, 0) == pytest.approx(0.5, abs=1e-15)
    # the global bound weighs the pair total of each pattern of a mixture
    joint = fock.tensor(three, fock.basis_state((1,), cut))
    assert est.error_bound_global(joint, 1) == 1.0
    assert est.error_bound_global(joint, 2) == 0.0
    mix2 = MixedEnsemble(((0.5, joint), (0.5, fock.basis_state((0, 0), CutoffSpec((5, 5))))))
    assert est.error_bound_global(mix2, 1) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(fock.MeasurementSpecError):
        est.error_bound_global(joint, -1)
    with pytest.raises(fock.MeasurementSpecError):
        est.error_bound_local(three, vac, -1)
    empty = FockState(cut, np.zeros(6))
    with pytest.raises(ValueError, match="zero-norm"):
        est.error_bound_local(empty, vac, 1)
    with pytest.raises(ValueError, match="zero-norm"):
        est.error_bound_global(fock.tensor(empty, vac), 1)


# ---------------------------------------------------------------------------
# rectangular decomposition


def test_decompose_identity_empty():
    assert rectangular_decompose(np.eye(5)) == []


def test_decompose_2x2_dft():
    dft = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    gates = rectangular_decompose(dft)
    assert sum(isinstance(g, Beamsplitter) for g in gates) == 1
    rebuilt = single_particle_matrix(gates, 2)
    assert np.max(np.abs(rebuilt - dft)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_decompose_random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _ = np.linalg.qr(z)
    gates = rectangular_decompose(u)
    rebuilt = single_particle_matrix(gates, n)
    assert np.max(np.abs(rebuilt - u)) < 1e-10
    bs = [g for g in gates if isinstance(g, Beamsplitter)]
    assert len(bs) <= n * (n - 1) // 2
    assert all(abs(g.mode_i - g.mode_j) == 1 for g in bs)
    assert len(gates) <= n * (n - 1) // 2 + n


def test_decompose_rejects_non_unitary():
    with pytest.raises(ValueError):
        rectangular_decompose(np.ones((3, 3)))


def test_decompose_degenerate_unitaries():
    # permutations and phase diagonals hit the zero-pivot Givens branches
    perm = np.eye(5)[[3, 0, 4, 1, 2]]
    gates = rectangular_decompose(perm)
    assert np.max(np.abs(single_particle_matrix(gates, 5) - perm)) < 1e-10
    diag = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.9, 0.0])))
    gates = rectangular_decompose(diag)
    assert all(isinstance(g, PhaseRotation) for g in gates)
    assert np.max(np.abs(single_particle_matrix(gates, 4) - diag)) < 1e-12


def test_decompose_dft_family():
    for n in (3, 4, 5):
        idx = np.arange(n)
        dft = np.exp(2j * math.pi * np.outer(idx, idx) / n) / math.sqrt(n)
        gates = rectangular_decompose(dft)
        assert np.max(np.abs(single_particle_matrix(gates, n) - dft)) < 1e-10


def test_decompose_fock_consistency(rng):
    # the compiled circuit moves single photons exactly as the matrix does
    n = 4
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _ = np.linalg.qr(z)
    gates = rectangular_decompose(u)
    cut = CutoffSpec((1,) * n)
    for j in range(n):
        pattern = tuple(1 if k == j else 0 for k in range(n))
        out = run_circuit(fock.basis_state(pattern, cut), gates)
        for l in range(n):
            pattern_l = tuple(1 if k == l else 0 for k in range(n))
            assert out.amplitudes[pattern_l] == pytest.approx(u[l, j], abs=1e-10)


# ---------------------------------------------------------------------------
# passive circuits on the photon-number simplex


@pytest.mark.parametrize("modes, total", [(1, 4), (2, 0), (3, 3), (4, 5)])
def test_simplex_patterns_row_major(modes, total):
    pats = closed_patterns([total] + [0] * (modes - 1), [range(modes)])
    box = np.indices((total + 1,) * modes).reshape(modes, -1).T
    want = box[box.sum(axis=1) <= total]
    assert np.array_equal(pats, want)
    assert len(pats) == math.comb(total + modes, modes)


def _dense_on_simplex(amps, pats, total, gates):
    """The dense padded oracle: embed, run the circuit gate by gate, read
    back."""
    modes = pats.shape[1]
    dense = np.zeros((total + 1,) * modes, dtype=np.complex128)
    dense[tuple(pats.T)] = amps
    state = run_circuit(FockState(CutoffSpec((total,) * modes), dense), gates)
    return state.amplitudes[tuple(pats.T)]


def test_apply_passive_matches_dense(rng):
    modes, total = 4, 4
    pats = closed_patterns([1] * modes, [range(modes)])
    z = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    gates = rectangular_decompose(np.linalg.qr(z)[0]) + [Beamsplitter(0.7, 1.1, 3, 1), PhaseRotation(0.4, 2)]
    amps = rng.normal(size=(len(pats), 3)) + 1j * rng.normal(size=(len(pats), 3))
    got = apply_passive(amps, pats, gates)
    for k in range(3):
        want = _dense_on_simplex(amps[:, k], pats, total, gates)
        assert np.max(np.abs(got[:, k] - want)) < 1e-12
    # unitary on the simplex, and the input is left alone
    assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(amps), rel=1e-12)
    assert np.array_equal(apply_passive(amps, pats, []), amps)


LAYOUTS = [
    ((3, 2), [(0, 1)]),                      # one measured pair, unequal cutoffs
    ((2, 1, 3), [(0, 2)]),                   # a pair around a spectator mode
    ((1, 2, 1, 2), [(1, 3)]),                # the hybrid layout
    ((2, 1, 2, 1), [(0, 2), (1, 3)]),        # two interleaved pairs
    ((1, 1, 1, 1), [(0, 1, 2, 3)]),          # the PERM simplex
    ((2, 0, 3), []),                         # no group: the box itself
]


def _budgets(caps, groups):
    """Per-mode maximum count in the closed set: the group budget or the cap."""
    top = list(caps)
    for group in groups:
        for m in group:
            top[m] = sum(caps[k] for k in group)
    return top


@pytest.mark.parametrize("caps, groups", LAYOUTS)
def test_closed_patterns_row_major(caps, groups):
    pats = closed_patterns(caps, groups)
    top = _budgets(caps, groups)
    box = np.indices([t + 1 for t in top]).reshape(len(caps), -1).T
    keep = np.ones(len(box), dtype=bool)
    for group in groups:
        keep &= box[:, list(group)].sum(axis=1) <= sum(caps[m] for m in group)
    assert np.array_equal(pats, box[keep])
    assert len(pats) == closed_pattern_count(caps, groups)
    # the rows inside the input box are that box in row-major order
    inside = pats[(pats <= np.asarray(caps)).all(axis=1)]
    assert np.array_equal(inside, np.indices([c + 1 for c in caps]).reshape(len(caps), -1).T)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(LAYOUTS), st.integers(0, 2**32 - 1))
def test_closed_patterns_closed_under_group_meshes(layout, seed):
    caps, groups = layout
    rng = np.random.default_rng(seed)
    gates = []
    for group in groups:
        z = rng.normal(size=(len(group),) * 2) + 1j * rng.normal(size=(len(group),) * 2)
        for g in rectangular_decompose(np.linalg.qr(z)[0]):
            if isinstance(g, Beamsplitter):
                gates.append(Beamsplitter(g.theta, g.phi, group[g.mode_i], group[g.mode_j]))
            else:
                gates.append(PhaseRotation(g.phi, group[g.mode]))
    pats = closed_patterns(caps, groups)
    amps = rng.normal(size=(len(pats), 2)) + 1j * rng.normal(size=(len(pats), 2))
    got = apply_passive(amps, pats, gates)
    assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(amps), rel=1e-12)
    top = _budgets(caps, groups)
    for k in range(2):
        dense = np.zeros([t + 1 for t in top], dtype=np.complex128)
        dense[tuple(pats.T)] = amps[:, k]
        state = run_circuit(FockState(CutoffSpec(tuple(top)), dense), gates)
        assert np.max(np.abs(state.amplitudes[tuple(pats.T)] - got[:, k])) < 1e-12


def test_closed_patterns_rejects_bad_groups():
    with pytest.raises(ValueError):
        closed_patterns((1, 1, 1), [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        closed_patterns((1, 1), [(0, 2)])


def test_apply_passive_stops_at_occupied_total():
    # amplitudes only on totals <= 1 of a pair with budget 8: the result
    # equals the full run, and empty input stays empty
    pats = closed_patterns((4, 4), [(0, 1)])
    amps = np.zeros(len(pats), dtype=np.complex128)
    amps[(pats.sum(axis=1) <= 1)] = [0.6, 0.8j, 0.0]
    bs = Beamsplitter(0.4, 0.3, 0, 1)
    got = apply_passive(amps, pats, [bs])
    want = apply_beamsplitter(pad(FockState(CutoffSpec((1, 1)), [[0.6, 0.8j], [0.0, 0.0]]), (8, 8)), bs)
    assert np.max(np.abs(got - want.amplitudes[tuple(pats.T)])) < 1e-15
    assert not apply_passive(np.zeros(len(pats)), pats, [bs]).any()


def test_apply_passive_rejects_bad_input():
    pats = closed_patterns([2, 0, 0], [range(3)])
    amps = np.ones(len(pats))
    with pytest.raises(TypeError):
        apply_passive(amps, pats, [Squeeze(0.1, 0)])
    with pytest.raises(ValueError):
        apply_passive(amps, pats, [Beamsplitter(0.3, 0.0, 0, 3)])
    box = np.indices((3, 3, 3)).reshape(3, -1).T
    with pytest.raises(ValueError):
        # a per-mode box is not closed under a beamsplitter
        apply_passive(np.ones(len(box)), box, [Beamsplitter(0.3, 0.0, 0, 1)])


def test_dense_states_are_refused_before_they_are_allocated(monkeypatch):
    # at a limit of 1,000 entries: a 41 x 41 tmss box, a basis state of
    # that box and a squeezed state at cutoff 1,999 each exceed it
    monkeypatch.setattr(fock, "MAX_WORKING_ELEMENTS", 1000)
    box = CutoffSpec((40, 40))
    for build in (lambda: fock.prepare("tmss", box, r=0.3),
                  lambda: fock.basis_state((0, 0), box),
                  lambda: fock.prepare("squeezed", CutoffSpec((1999,)), z=0.3)):
        with pytest.raises(fock.ResourceLimitError, match="desk-scale limit"):
            build()
    assert fock.prepare("tmss", CutoffSpec((30, 30)), r=0.3).cutoff.dim == 961
