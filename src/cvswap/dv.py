"""Qudit registers and the destructive discrete-variable SWAP test.

A qudit register is a Fock state whose k-th mode holds dims[k] levels.
Measuring each qudit pair in a SWAP eigenbasis and scoring the product of
the outcome eigenvalues reads out the SWAP eigenvalue of the register
pair, as the CV test's photon parity does (Garcia-Escartin &
Chamorro-Posada, PRA 87, 052330, 2013), so every eigenbasis gives the law
of the parity group with pairs (k-th qudit of A, k-th qudit of B) and no
threshold.  No gate decomposition of the basis change is claimed
(efficient circuits for the d > 2 case are not known).  Two bases are
provided: a direct symmetric/antisymmetric construction and one built
from superpositions of qudit Bell-state pairs.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .estimators import (EstimatorResult, MeasurementSpecError, parity_overlap_estimate,
                         parity_overlap_expectation)
from .fock import CutoffSpec, FockState, check_working_size

__all__ = [
    "DVState",
    "qudit_bell_state",
    "swap_eigenbasis",
    "dv_swap_estimate",
    "dv_swap_expectation",
]


class DVState(FockState):
    """Unit state over a register of qudits with the given local dims: the
    Fock state whose k-th mode is cut at dims[k] - 1.  A mixed register is a
    ``MixedEnsemble`` of such states."""

    __slots__ = ()

    def __init__(self, dims, amplitudes):
        dims = tuple(int(d) for d in dims)
        if any(d < 2 for d in dims):
            raise ValueError("local dimensions must be >= 2")
        super().__init__(CutoffSpec(tuple(d - 1 for d in dims)), amplitudes)
        if not abs(self.norm_sq - 1.0) <= 1e-9:
            raise ValueError(f"state norm^2 {self.norm_sq} deviates from 1 beyond 1e-9")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.cutoff.shape


# ---------------------------------------------------------------------------
# bases


def qudit_bell_state(z: int, x: int, d: int) -> DVState:
    """(X(x) tensor Z(z)) applied to the maximally entangled pair, with
    Z(z)|i> = e^{2 pi i z i / d}|i> and X(x)|i> = |i + x mod d>."""
    if not (0 <= z < d and 0 <= x < d):
        raise ValueError("labels must lie in Z_d")
    amps = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        amps[(i + x) % d, i] = cmath.exp(2j * math.pi * z * i / d) / math.sqrt(d)
    return DVState((d, d), amps)


def _v_basis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns V|i>|j> are SWAP eigenvectors: |i>|i> on the diagonal and
    (|i>|j> +/- |j>|i>)/sqrt(2) off it, with eigenvalue -1 exactly when
    i > j."""
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    eig = np.empty(d * d)
    inv = 1.0 / math.sqrt(2.0)
    for i in range(d):
        for j in range(d):
            col = i * d + j
            if i == j:
                mat[i * d + i, col] = 1.0
            elif i < j:
                mat[i * d + j, col] = inv
                mat[j * d + i, col] = inv
            else:
                mat[i * d + j, col] = inv
                mat[j * d + i, col] = -inv
            eig[col] = -1.0 if i > j else 1.0
    return mat, eig


def _w_basis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """SWAP eigenbasis assembled from qudit Bell states: the x = 0 family,
    the extra x = d/2 families for even d, and +/- superpositions of
    (z, x) with (z, -x) otherwise."""
    cols: list[np.ndarray] = []
    eig: list[float] = []

    def bell(z, x):
        return qudit_bell_state(z, x, d).amplitudes.ravel()

    for z in range(d):
        cols.append(bell(z, 0))
        eig.append(1.0)
    if d % 2 == 0:
        half = d // 2
        for z in range(0, d, 2):
            cols.append(bell(z, half))
            eig.append(1.0)
        for z in range(1, d, 2):
            cols.append(bell(z, half))
            eig.append(-1.0)
    x_max = (d - 1) // 2 if d % 2 else d // 2 - 1
    for sign in (1.0, -1.0):
        for z in range(d):
            for x in range(1, x_max + 1):
                phase = cmath.exp(-2j * math.pi * x * z / d)
                col = (bell(z, x) + sign * phase * bell(z, (d - x) % d)) / math.sqrt(2.0)
                cols.append(col)
                eig.append(sign)
    return np.column_stack(cols), np.asarray(eig)


_BASES = {"v": _v_basis, "w": _w_basis}


def _check_basis(basis: str):
    if not isinstance(basis, str) or basis not in _BASES:
        raise MeasurementSpecError("basis must be 'v' or 'w'")
    return _BASES[basis]


def swap_eigenbasis(d: int, basis: str = "v") -> tuple[np.ndarray, np.ndarray]:
    """(matrix, eigenvalues) for the chosen SWAP-diagonalizing basis; a
    d^2 x d^2 matrix beyond the working-space limit is refused before it
    is allocated."""
    check_working_size(d * d, d * d)
    return _check_basis(basis)(d)


# ---------------------------------------------------------------------------
# estimator


def _swap_pairs(prep_a, prep_b) -> list[tuple[int, int]]:
    """The pairs (k, n + k) that join qudit k of A to qudit k of B."""
    if prep_b.cutoff != prep_a.cutoff:
        raise MeasurementSpecError("the two preparations must have identical dims")
    n = prep_a.modes
    return [(k, n + k) for k in range(n)]


def dv_swap_estimate(prep_a, prep_b, shots: int, seed) -> EstimatorResult | list[EstimatorResult]:
    """Destructive SWAP-test estimate of tr(rho sigma) for qudit registers
    (``DVState`` or a ``MixedEnsemble`` of them).

    Each pair (k-th qudit of A, k-th qudit of B) is measured in a SWAP
    eigenbasis; a shot scores the product of the outcome eigenvalues, the
    parity group's sign.
    """
    return parity_overlap_estimate([prep_a, prep_b], _swap_pairs(prep_a, prep_b), None, shots, seed)


def dv_swap_expectation(prep_a, prep_b) -> float:
    """Exact estimator expectation tr(rho sigma): the masked swap s of the
    register pair's parity group, which every SWAP eigenbasis gives."""
    return parity_overlap_expectation([prep_a, prep_b], _swap_pairs(prep_a, prep_b), None)
