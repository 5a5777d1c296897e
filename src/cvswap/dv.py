"""Qudit state vectors and the destructive discrete-variable SWAP test.

The test measures each qudit pair in a SWAP eigenbasis; a shot scores the
product of the outcome eigenvalues, which is the SWAP eigenvalue of the
whole register pair, so every eigenbasis gives the same shot law and the
estimator draws from it directly.  No gate decomposition of the basis
change is claimed (efficient circuits for the d > 2 case are not known).
Two bases are provided: a direct symmetric/antisymmetric construction and
one built from superpositions of qudit Bell-state pairs.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .estimators import EstimatorResult, MeasurementSpecError, estimate_blocks
from .fock import check_working_size, components_of
from .sampling import BlockSpec, law_block

__all__ = [
    "DVState",
    "DVEnsemble",
    "qudit_bell_state",
    "swap_eigenbasis",
    "dv_swap_estimate",
    "dv_swap_expectation",
]


class DVState:
    """Dense state over a register of qudits with the given local dims."""

    __slots__ = ("dims", "amplitudes")

    def __init__(self, dims, amplitudes):
        dims = tuple(int(d) for d in dims)
        if any(d < 2 for d in dims):
            raise ValueError("local dimensions must be >= 2")
        amps = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        shape = dims
        if amps.shape != shape:
            if amps.size != int(np.prod(dims)):
                raise ValueError("amplitude count does not match dims")
            amps = amps.reshape(shape)
        norm = float(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"state norm^2 {norm} deviates from 1 beyond 1e-9")
        amps.flags.writeable = False
        self.dims = dims
        self.amplitudes = amps


class DVEnsemble:
    """Mixed qudit state as a convex ensemble of pure preparations."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple((float(w), s) for w, s in components)
        if not comps:
            raise ValueError("ensemble needs at least one component")
        if not abs(sum(w for w, _ in comps) - 1.0) <= 1e-12:
            raise ValueError("ensemble weights must sum to 1")
        if not all(0.0 < w <= 1.0 for w, _ in comps):
            raise ValueError("ensemble weights must lie in (0, 1]")
        ref = comps[0][1].dims
        if any(s.dims != ref for _, s in comps):
            raise ValueError("ensemble components must share dims")
        self.components = comps

    @property
    def dims(self) -> tuple[int, ...]:
        return self.components[0][1].dims


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


def _common_dims(prep_a, prep_b) -> tuple[int, ...]:
    if prep_b.dims != prep_a.dims:
        raise MeasurementSpecError("the two preparations must have identical dims")
    return prep_a.dims


def _swap_mean(prep_a, prep_b) -> float:
    """t = tr(rho sigma) = sum_ij w_i w_j |<a_i|b_j>|^2, each component
    normalised by its norm."""
    _common_dims(prep_a, prep_b)
    value = 0.0
    for wa, a in components_of(prep_a):
        for wb, b in components_of(prep_b):
            norms = np.vdot(a.amplitudes, a.amplitudes).real * np.vdot(b.amplitudes, b.amplitudes).real
            value += wa * wb * abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2 / norms
    return float(value)


def _dv_block(prep_a, prep_b, basis: str) -> BlockSpec:
    """The shot law over the levels (1, -1): a shot scores the SWAP
    eigenvalue of the register pair, whose mean is t = tr(rho sigma)."""
    _check_basis(basis)
    t = _swap_mean(prep_a, prep_b)
    return law_block([1.0, -1.0], [(1.0 + t) / 2.0, (1.0 - t) / 2.0])


def dv_swap_estimate(prep_a, prep_b, shots: int, seed,
                     basis: str = "v") -> EstimatorResult | list[EstimatorResult]:
    """Destructive SWAP-test estimate of tr(rho sigma) for qudit registers.

    Each pair (k-th qudit of A, k-th qudit of B) is measured in the chosen
    SWAP eigenbasis; a shot scores the product of the outcome eigenvalues.
    """
    return estimate_blocks([_dv_block(prep_a, prep_b, basis)], shots, seed)


def dv_swap_expectation(prep_a, prep_b) -> float:
    """Exact estimator expectation tr(rho sigma) = sum_ij w_i w_j |<a_i|b_j>|^2
    over the components of the two preparations; every SWAP eigenbasis
    gives this value."""
    return _swap_mean(prep_a, prep_b)
