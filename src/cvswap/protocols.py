"""Composite overlap protocols built on the pairwise SWAP-test estimator.

The PERM test measures in the eigenbasis of the cyclic register shift C
through a discrete-Fourier mode mixer, so its shot law follows from the
traces <C^t>, chains of overlaps of ensemble components; the two-copy
test pairs n copies with n partners, their A registers cyclically
shifted; the compiling cost evaluates fidelity terms for a fixed circuit
pair; and the hybrid test joins a qubit Bell measurement, whose sign is
the qubit SWAP eigenvalue, with the CV photon-parity measurement.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import estimators as est
from . import fock
from .estimators import EstimatorResult, MeasurementSpecError, estimate_blocks
from .fock import FockState, MixedEnsemble, components_of
# blocks_estimate is not called here; bench/test_bench.py checks that the
# benchmark tracer also wraps this module's binding of it
from .sampling import blocks_estimate, derive_seed, law_block  # noqa: F401

__all__ = [
    "perm_test",
    "perm_expectation",
    "two_copy_test",
    "two_copy_expectation",
    "compile_terms",
    "compile_cost",
    "compile_cost_expectation",
    "hybrid_swap_estimate",
    "hybrid_swap_expectation",
]


# ---------------------------------------------------------------------------
# PERM test


def _check_perm_inputs(states) -> int:
    states = list(states)
    if len(states) < 2:
        raise MeasurementSpecError("PERM test needs at least two registers")
    caps = set()
    for s in states:
        if s.modes != 1:
            raise MeasurementSpecError("PERM test inputs must be single-mode")
        caps.add(s.cutoff.per_mode_max[0])
    if len(caps) != 1:
        raise MeasurementSpecError("PERM test inputs must share a common cutoff")
    return caps.pop()


def _shift_expectations(states, shifts) -> list[complex]:
    """<C^t> for each 0 < t <= L/2 in ``shifts``, C the cyclic register shift.
    Register j is rho_j = sum_a |k_ja><k_ja|, k_ja = sqrt(w_a / norm_sq_a) psi_a,
    so each cycle c_0, c_0 + t, ... (mod L) of C^t contributes the trace of
    B[c_0] B[c_1] ..., B[j] = [<k_ja|k_(j+t)b>]_ab.  A register of as many
    components as levels or more enters as rho_j, with the identity for bras.
    No array outgrows the largest register's rows, refused beyond the limit."""
    cap = _check_perm_inputs(states)
    registers = [components_of(s) for s in states]
    n, d = len(registers), cap + 1
    fock.check_working_size(max(map(len, registers)), d)
    kets = [np.array([math.sqrt(w / c.norm_sq) * c.amplitudes for w, c in comps])
            for comps in registers]
    bras = [None if len(k) >= d else k.conj() for k in kets]
    kets = [k.conj().T @ k if len(k) >= d else k for k in kets]  # rho_j^T = K^dagger K
    values = []
    for t in shifts:
        # a register read as rho_j has the identity for bras: its block is the next one's kets
        blocks = [kets[(j + t) % n].T if bras[j] is None else bras[j] @ kets[(j + t) % n].T
                  for j in range(n)]
        cycles = math.gcd(t, n)
        chains = [[blocks[(a + k * t) % n] for k in range(n // cycles)] for a in range(cycles)]
        # tr(X B) = sum(X * B^T) spares each chain its last product
        values.append(complex(math.prod((functools.reduce(np.matmul, c[:-1]) * c[-1].T).sum()
                                        for c in chains)))
    return values


def _perm_block(states) -> tuple[list[complex], list[float]]:
    """The PERM shot law over the L phases w^j = e^{2 pi i j / L}: the DFT
    mixer reads out the eigenvalue of C, so a shot scores w^j with
    probability q_j = (1/L) sum_t w^{-jt} <C^t>, where <C^0> = 1 and, every
    rho being Hermitian, <C^(L-t)> = conj <C^t> for the t <= L/2 traced."""
    n = len(states)
    shifts = [1.0] + _shift_expectations(states, range(1, n // 2 + 1))
    shifts += [s.conjugate() for s in shifts[(n + 1) // 2 - 1:0:-1]]
    phases = [cmath.exp(2j * math.pi * j / n) for j in range(n)]
    return law_block(phases, [sum(phases[-j * t % n] * s for t, s in enumerate(shifts)) / n
                              for j in range(n)])


def perm_test(states, shots: int, seed) -> EstimatorResult | list[EstimatorResult]:
    """Estimate tr(rho^(0) ... rho^(L-1)) by measuring the DFT-mixed
    registers and weighting shots by prod_j e^{2 pi i j n_j / L}.

    The weight is the eigenvalue of the cyclic shift C that the mixer reads
    out, so the shot law is drawn from the traces <C^t> (``_perm_block``);
    no mixer is applied.  L = 2 runs the CV SWAP path directly, with no
    threshold (the weights reduce to (-1)^n there).
    """
    states = list(states)
    if len(states) != 2:
        return estimate_blocks([_perm_block(states)], shots, seed)
    _check_perm_inputs(states)
    return est.cv_swap_estimate(states[0], states[1], None, shots, seed)


def perm_expectation(states) -> complex:
    """Exact PERM-test expectation tr(rho^(0) rho^(1) ... rho^(L-1)), each
    ensemble component normalised by its norm_sq."""
    return _shift_expectations(list(states), [1])[0]


# ---------------------------------------------------------------------------
# two-copy test


def _two_copy_layout(purifications) -> tuple[list, list[tuple[int, int]]]:
    """Factors [psi_0, psi_0, psi_1, psi_1, ...]: copy j on modes 4j, 4j + 1
    and its partner next to it, which keeps each fold step to a few labels.
    Pair 2j joins A_j to A' of copy j + 1 mod n, pair 2j + 1 B_j to B'_j."""
    copies = list(purifications)
    if any(c.modes != 2 for c in copies):
        raise MeasurementSpecError("each purification must be one (A_j, B_j) mode pair")
    n = len(copies)
    if n < 2:
        raise MeasurementSpecError("two-copy test needs at least two copies")
    pairs = [p for j in range(n) for p in ((4 * j, 4 * ((j + 1) % n) + 2), (4 * j + 1, 4 * j + 3))]
    return [c for c in copies for _ in (0, 1)], pairs


def two_copy_test(purifications, shots: int, seed,
                  m_per_pair=None) -> EstimatorResult | list[EstimatorResult]:
    """Parallel SWAP tests between n >= 2 purified copies (A_j, B_j), which
    may differ, and partners whose A registers the pairing shifts
    cyclically, never a gate; expectation (tr rho^n)^2 for equal copies.
    Per-pair thresholds read (A_0, A'_1), (B_0, B'_0), (A_1, A'_2), ...
    """
    factors, pairs = _two_copy_layout(purifications)
    return est.parity_overlap_estimate(factors, pairs, m_per_pair, shots, seed)


def two_copy_expectation(purifications, m_per_pair=None) -> float:
    """Exact two-copy expectation: the parity estimator's exact value on
    the same copies and pairs as ``two_copy_test``.  Without thresholds it
    is |tr(rho_0 ... rho_{n-1})|^2, (tr rho^n)^2 for equal copies."""
    factors, pairs = _two_copy_layout(purifications)
    return est.parity_overlap_expectation(factors, pairs, m_per_pair)


# ---------------------------------------------------------------------------
# variational-compiling cost


# a term's SWAP tests pair register A with A' and R with R'
_COMPILE_PAIRS = [(0, 2), (1, 3)]


def compile_terms(training, u_gates, v_gates, m_totals=None) -> list[tuple[list, int | None]]:
    """([U|psi_j>, V|psi_j>], total threshold) for each training state, the
    terms ``compile_cost`` and ``compile_cost_expectation`` read.

    Each circuit is composed once into one Gaussian unitary
    (``fock.gaussian_triple``).  Per A-mode dimension d, only the columns n
    < k of U and of V that the training components occupy are built, d x k
    (``fock.gaussian_columns``), and every component's mode-A columns go
    through them as one block.  A mapped component's leak is its input
    leak plus the weight the circuit pushes past the A cutoff; a leak from
    LEAK_SOFT on sets its warning flag, one above LEAK_HARD is refused.  A
    total threshold applies the detector condition to the four-mode total
    photon count.
    """
    training = list(training)
    if not training:
        raise MeasurementSpecError("training set is empty")
    if any(psi.modes != 2 for psi in training):
        raise MeasurementSpecError("training states live on two modes (A, R)")
    circuits = [list(u_gates), list(v_gates)]
    if not all(isinstance(g, (fock.Displacement, fock.Squeeze, fock.PhaseRotation)) and g.mode == 0
               for gates in circuits for g in gates):
        raise MeasurementSpecError(
            "compiling circuits must act on register A only (single-mode gates on mode 0)")
    triples = [fock.gaussian_triple(gates) for gates in circuits]
    totals = list(m_totals) if m_totals is not None else [None] * len(training)
    if len(totals) != len(training):
        raise MeasurementSpecError("one total threshold per training state required")
    mapped = {}
    for d in {psi.cutoff.shape[0] for psi in training}:
        comps = [s for psi in training if psi.cutoff.shape[0] == d for _, s in components_of(psi)]
        cols = np.concatenate([s.amplitudes for s in comps], axis=1)
        k = 1 + int(np.flatnonzero(np.any(cols != 0, axis=1)).max(initial=0))
        edges = np.cumsum([s.cutoff.shape[1] for s in comps])[:-1]
        images = [np.split(block @ cols[:k], edges, axis=1)
                  for block in fock.gaussian_columns(triples, d, k)]
        for s, *pair in zip(comps, *images):
            mapped[id(s)] = []
            for image, side in zip(pair, "UV"):
                # the share of weight pushed past the cutoff; NaN, from a
                # block that is not finite, is refused
                pushed = 1.0 - float(np.vdot(image, image).real) / s.norm_sq
                leak = s.leak + float(np.maximum(pushed, 0.0))
                warn = fock.check_leak(leak, f"compiling circuit {side} on a training state")
                mapped[id(s)].append(FockState(s.cutoff, image, leak=leak,
                                               leak_warning=s.leak_warning or warn))
    return [([MixedEnsemble(tuple((w, mapped[id(s)][side]) for w, s in components_of(psi)))
              for side in (0, 1)], total) for psi, total in zip(training, totals)]


def compile_cost(terms, shots_per_term: int, seed) -> float:
    """1 - (1/K) sum_j of the estimated fidelity |<psi_j|V^dag U|psi_j>|^2
    over the K ``compile_terms``: each term runs the parallel SWAP test of
    U|psi_j> against V|psi_j> on the (A, A') and (R, R') pairs with a
    derived seed."""
    results = [est.parity_overlap_estimate(prepared, _COMPILE_PAIRS, None, shots_per_term,
                                           derive_seed(seed, j), total)
               for j, (prepared, total) in enumerate(terms)]
    return 1.0 - sum(result.mean.real for result in results) / len(terms)


def compile_cost_expectation(terms) -> float:
    """Exact-expectation counterpart of ``compile_cost`` on the same terms."""
    acc = 0.0
    for prepared, total in terms:
        acc += est.parity_overlap_expectation(prepared, _COMPILE_PAIRS, None, total)
    return 1.0 - acc / len(terms)


# ---------------------------------------------------------------------------
# hybrid DV-CV SWAP test


def _check_hybrid(state_a, state_b) -> None:
    for state, name in ((state_a, "state_a"), (state_b, "state_b")):
        if state.modes != 2 or state.cutoff.per_mode_max[0] != 1:
            raise MeasurementSpecError(f"{name} must be qubit (cutoff 1) tensor one CV mode")
    if state_a.cutoff != state_b.cutoff:
        raise MeasurementSpecError("hybrid inputs must share the CV cutoff")


# the qubit pair is measured without a threshold, the CV pair with one
_HYBRID_PAIRS = [(0, 2), (1, 3)]


def hybrid_swap_estimate(state_a, state_b, m: int | None, shots: int,
                         seed) -> EstimatorResult | list[EstimatorResult]:
    """Ancilla-free SWAP test for qubit (x) CV-mode states.

    Samples a qubit Bell outcome (z, x) jointly with a photon pattern
    after the inverse 50:50 beamsplitter and scores
    (-1)^{z x + n_B} Theta[2m - n_B - m_B']; ``m`` None means no threshold.
    The Bell sign is the qubit SWAP eigenvalue, so the two registers form
    one parity group whose qubit pair is left unthresholded.
    """
    _check_hybrid(state_a, state_b)
    return est.parity_overlap_estimate([state_a, state_b], _HYBRID_PAIRS, [None, m], shots, seed)


def hybrid_swap_expectation(state_a, state_b, m: int | None) -> float:
    """Exact hybrid estimator expectation: the qubit SWAP joined with the
    threshold-truncated CV SWAP observable."""
    _check_hybrid(state_a, state_b)
    return est.parity_overlap_expectation([state_a, state_b], _HYBRID_PAIRS, [None, m])
