import cmath
import collections
import contextlib
import functools
import math

import numpy as np
import pytest

from cvswap import fock
from cvswap.sampling import level_law


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_pure(rng, cap: int, modes: int = 1) -> fock.FockState:
    shape = tuple(cap + 1 for _ in range(modes))
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps /= np.linalg.norm(amps)
    return fock.FockState(fock.CutoffSpec.uniform(cap, modes), amps)


def random_number_conserving(rng, cap: int, modes: int = 2, max_total=None) -> fock.FockState:
    """Random state supported on totals <= max_total, where the truncated
    beamsplitter blocks are complete and gates act exactly unitarily."""
    if max_total is None:
        max_total = cap
    shape = tuple(cap + 1 for _ in range(modes))
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    totals = np.zeros(shape, dtype=int)
    for ax in range(modes):
        idx = np.arange(cap + 1).reshape((1,) * ax + (-1,) + (1,) * (modes - ax - 1))
        totals = totals + idx
    amps[totals > max_total] = 0.0
    amps /= np.linalg.norm(amps)
    return fock.FockState(fock.CutoffSpec.uniform(cap, modes), amps)


def random_ensemble(rng, cap: int, rank: int) -> fock.MixedEnsemble:
    weights = rng.random(rank)
    weights /= weights.sum()
    comps = tuple((float(w), random_pure(rng, cap)) for w in weights)
    return fock.MixedEnsemble(comps)


def density_matrix(state) -> np.ndarray:
    """Dense density-matrix oracle for a FockState or MixedEnsemble."""
    dim = state.cutoff.dim
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for w, pure in fock.components_of(state):
        vec = pure.amplitudes.ravel() / math.sqrt(pure.norm_sq)
        rho += w * np.outer(vec, vec.conj())
    return rho


def purification_of(ensemble, cap: int) -> fock.FockState:
    """Two-mode purification of a single-mode mixed state."""
    rho = density_matrix(ensemble)
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    amps = np.zeros((cap + 1, cap + 1), dtype=np.complex128)
    for k, v in enumerate(vals):
        amps += math.sqrt(v) * np.multiply.outer(vecs[:, k], np.eye(cap + 1)[k])
    return fock.FockState(fock.CutoffSpec.uniform(cap, 2), amps)


def ladder_ops(dim: int):
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    return a, a.conj().T


def two_mode_ladder_ops(dim: int):
    a, _ = ladder_ops(dim)
    eye = np.eye(dim)
    return np.kron(a, eye), np.kron(eye, a)


def tally(values, counts) -> dict:
    """A tally from ``blocks_estimate`` as {weight: shots}, without the
    weights no shot scored."""
    return {complex(v): int(c) for v, c in zip(values, counts) if c}


def assert_same_law(block, oracle):
    """The block's level law equals the oracle's to 1e-12: every weight
    value carries the same probability, a value missing from one law
    counting as probability 0."""
    got, want = (dict(zip(*(part.tolist() for part in level_law([b])))) for b in (block, oracle))
    for value in set(got) | set(want):
        assert abs(got.get(value, 0.0) - want.get(value, 0.0)) < 1e-12


def component_laws(block) -> list[dict]:
    """Each component's law of the shot weight, as {weight: probability},
    summed over the levels that share a weight."""
    laws = []
    for dist in block.distributions:
        law = collections.defaultdict(float)
        for value, p in zip(block.levels.tolist(), dist.tolist()):
            law[value] += p
        laws.append(law)
    return laws


@contextlib.contextmanager
def recorded_measurements(module):
    """Patch ``module.passive_measurement`` for the duration of the block
    to record each (patterns, amplitudes) it returns, in call order."""
    measured = []
    original = module.passive_measurement

    def record(*args, **kwargs):
        measured.append(original(*args, **kwargs))
        return measured[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "passive_measurement", record)
        yield measured


def assert_same_block(block, measured, oracle, shape):
    """Closed-set block against the padded oracle, whose every outcome is
    its own weight level: the normalised |amplitude|^2 of each pattern of
    the passive measurement ``measured`` to 1e-12 with no oracle weight
    off the set, each component's law over the weights to 1e-12, and the
    same law of the block."""
    patterns, amps = measured
    flat = np.ravel_multi_index(tuple(patterns.T), shape)
    assert np.array_equal(block.component_weights, oracle.component_weights)
    probabilities = np.abs(amps) ** 2
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    for got, want in zip(probabilities, oracle.distributions, strict=True):
        assert np.max(np.abs(got - want[flat])) < 1e-12
        assert want[flat].sum() == pytest.approx(1.0, abs=1e-12)
    for got, want in zip(component_laws(block), component_laws(oracle), strict=True):
        for value in set(got) | set(want):
            assert abs(got.get(value, 0.0) - want.get(value, 0.0)) < 1e-12
    assert_same_law(block, oracle)


def run_circuit(state: fock.FockState, gates) -> fock.FockState:
    """Dense circuit oracle: ``fock.apply_gate`` folded over the gates."""
    return functools.reduce(fock.apply_gate, gates, state)


def swap_modes(state: fock.FockState, i: int, j: int) -> fock.FockState:
    """The state with modes i and j exchanged; the two cutoffs must agree."""
    return fock.FockState(state.cutoff, np.swapaxes(state.amplitudes, i, j))


def dense_matrix(op, cutoff: fock.CutoffSpec) -> np.ndarray:
    """Dense matrix of a gate, or of a map from state to state, on the box
    ``cutoff``, row-major over the photon patterns: column k is the image
    of basis state k."""
    image = op if callable(op) else (lambda state: fock.apply_gate(state, op))
    return np.stack([image(fock.basis_state(pattern, cutoff)).amplitudes.ravel()
                     for pattern in np.ndindex(cutoff.shape)], axis=1)


def single_particle_matrix(gates, n_modes: int) -> np.ndarray:
    """Composed action of passive gates (beamsplitters and phase rotations)
    on creation operators, a_j -> sum_l U[l, j] a_l."""
    total = np.eye(n_modes, dtype=np.complex128)
    for gate in gates:
        mat = np.eye(n_modes, dtype=np.complex128)
        if isinstance(gate, fock.Beamsplitter):
            c, s = math.cos(gate.theta), math.sin(gate.theta)
            i, j = gate.mode_i, gate.mode_j
            mat[i, i] = c
            mat[i, j] = cmath.exp(1j * gate.phi) * s
            mat[j, i] = -cmath.exp(-1j * gate.phi) * s
            mat[j, j] = c
        elif isinstance(gate, fock.PhaseRotation):
            mat[gate.mode, gate.mode] = cmath.exp(-1j * gate.phi)
        else:
            raise TypeError(f"{gate!r} has no single-particle matrix")
        total = mat @ total
    return total


def count_calls(monkeypatch, module, name, calls=None) -> list:
    """Patch ``module.name`` to append ``name`` to ``calls`` (a new list
    unless given) on every call; returns the list."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
