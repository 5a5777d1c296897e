"""Truncated multimode Fock-space states and exact single-mode Gaussian gates.

States are dense complex tensors over a per-mode-truncated photon-number
basis.  Single-mode Gaussian gates have one builder: ``gaussian_triple``
composes them into the Bogoliubov triple of one unitary G, and
``gaussian_columns`` builds the columns <m|G|n> it is asked for by a row
recurrence seeded by a closed form, run in Python scalars down each
column in turn.
``gate_matrix`` takes a displacement or squeeze from it and a phase
rotation from its closed-form diagonal, ``apply_gate`` contracts that
matrix into the gate's mode, and ``prepare`` takes a coherent or squeezed
state from its vacuum column; no gate is ever exponentiated from a
truncated generator, a path that exists only as a test oracle.  No
multimode gate is applied here: the protocols read their measurements
from each parity group's symmetry, and the beamsplitter lives on only
as a test oracle.
Inputs of a shape that does not fit raise ``MeasurementSpecError``.  The
value types are plain slotted classes that no operation modifies after
construction (a state's amplitudes are read-only), and all operations
are pure functions.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "CutoffSpec",
    "FockState",
    "MixedEnsemble",
    "Displacement",
    "Squeeze",
    "PhaseRotation",
    "GateSpec",
    "MeasurementSpecError",
    "PreparationLeakError",
    "check_leak",
    "ResourceLimitError",
    "MAX_WORKING_ELEMENTS",
    "check_working_size",
    "basis_state",
    "tensor",
    "gaussian_triple",
    "gaussian_columns",
    "gate_matrix",
    "apply_gate",
    "prepare",
]

TWO_PI = 2.0 * math.pi

# prepare() leak thresholds: above HARD the state is unusable, inside
# [SOFT, HARD) the result carries a warning flag.
LEAK_SOFT = 1e-6
LEAK_HARD = 1e-3

# working spaces larger than this many entries are refused with guidance
MAX_WORKING_ELEMENTS = 1 << 24

class MeasurementSpecError(ValueError):
    """A malformed request, not a numerical failure: inputs of a shape the
    protocol cannot take (a state or gate that does not fit its modes and
    cutoff, ensemble weights off the simplex), measurement pairs or
    detector thresholds that do not fit the register they measure, a shot
    count below 1, or threshold-planner inputs out of range."""


class PreparationLeakError(ValueError):
    """Raised when a state preparation loses too much weight to truncation."""


class ResourceLimitError(ValueError):
    """Raised when a working space would exceed MAX_WORKING_ELEMENTS, when
    a run asks for more shots than sampling.MAX_SHOTS, or when a register or
    one contraction step exceeds numpy's 64 array axes or einsum's 52 labels."""


def check_working_size(rows: int, columns: int) -> None:
    """Refuse a working space of ``rows`` x ``columns`` entries beyond
    MAX_WORKING_ELEMENTS; call before allocating it.  A parity group's ket
    and bra copies of a register count two rows per ensemble component, a
    pair's 0/1 threshold matrix and each contraction intermediate one.  A
    group of two registers paired mode for mode with nothing cut counts
    the same ket and bra rows over the box of its shorter cutoffs and
    builds nothing else.  A group of two single-mode registers under a
    threshold that cuts builds no matrix: each register counts its
    amplitude and conjugate lists, two rows per component, and its
    diagonal and running sums, two more.  The stacked blocks of
    compiling circuits count the circuits and each block's entries."""
    size = int(rows) * int(columns)
    if size > MAX_WORKING_ELEMENTS:
        raise ResourceLimitError(
            f"working space of {size} entries ({rows} x {columns}) exceeds the desk-scale "
            "limit; reduce cutoffs, mode count or ensemble rank"
        )


# ---------------------------------------------------------------------------
# domain types


class CutoffSpec:
    """Per-mode maximum photon numbers; local dimension is N_max + 1."""

    __slots__ = ("per_mode_max",)

    def __init__(self, per_mode_max):
        caps = tuple(int(n) for n in per_mode_max)
        if not caps:
            raise MeasurementSpecError("cutoff needs at least one mode")
        if any(n < 0 for n in caps):
            raise MeasurementSpecError("per-mode cutoffs must be >= 0")
        if len(caps) > 64:
            raise ResourceLimitError(f"{len(caps)} modes exceed numpy's 64 array axes; "
                                     "use at most 64 modes")
        self.per_mode_max = caps

    def __eq__(self, other):
        if type(other) is not CutoffSpec:
            return NotImplemented
        return self.per_mode_max == other.per_mode_max

    @property
    def modes(self) -> int:
        return len(self.per_mode_max)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.per_mode_max)

    @property
    def dim(self) -> int:
        return math.prod(self.shape)


class FockState:
    """Dense state over the truncated multimode Fock basis.

    ``amplitudes`` is a read-only copy shaped per mode; its row-major
    flattening matches the pattern ordering used everywhere else, and
    ``norm_sq`` is computed from it.  ``leak`` records weight lost to
    truncation by the preparation that produced the state.
    """

    __slots__ = ("cutoff", "amplitudes", "norm_sq", "leak", "leak_warning")

    def __init__(self, cutoff: CutoffSpec, amplitudes, leak: float = 0.0,
                 leak_warning: bool = False):
        # own a copy so freezing never touches a caller's array
        amps = np.array(amplitudes, dtype=np.complex128, order="C")
        if amps.shape != cutoff.shape:
            if amps.size != cutoff.dim:
                raise MeasurementSpecError(
                    f"amplitude count {amps.size} does not match cutoff dim {cutoff.dim}"
                )
            amps = amps.reshape(cutoff.shape)
        amps.flags.writeable = False
        self.cutoff = cutoff
        self.amplitudes = amps
        self.norm_sq = float(np.vdot(amps, amps).real)
        self.leak = leak
        self.leak_warning = leak_warning

    @property
    def modes(self) -> int:
        return self.cutoff.modes


class MixedEnsemble:
    """Mixed state as a convex ensemble of pure-state preparations."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple((float(w), s) for w, s in components)
        if not comps:
            raise MeasurementSpecError("ensemble needs at least one component")
        if not all(0.0 < w <= 1.0 for w, _ in comps):
            raise MeasurementSpecError("ensemble weights must lie in (0, 1]")
        if not abs(sum(w for w, _ in comps) - 1.0) <= 1e-12:
            raise MeasurementSpecError("ensemble weights must sum to 1")
        ref = comps[0][1].cutoff
        if any(s.cutoff != ref for _, s in comps):
            raise MeasurementSpecError("ensemble components must share modes and cutoff")
        self.components = comps

    @property
    def cutoff(self) -> CutoffSpec:
        return self.components[0][1].cutoff

    @property
    def modes(self) -> int:
        return self.cutoff.modes


def components_of(state) -> tuple[tuple[float, object], ...]:
    """Uniform (weight, pure state) view of a pure state or of a
    ``MixedEnsemble``, whose components may be qudit registers
    (``dv.DVState``)."""
    return getattr(state, "components", ((1.0, state),))


# ---------------------------------------------------------------------------
# gate specifications


def _canonical_phase(phi: float) -> float:
    phi = float(phi) % TWO_PI
    return 0.0 if phi == TWO_PI else phi


class _Gate:
    """Gate parameters; the repr names the gate and its parameters."""

    __slots__ = ()

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"


class Displacement(_Gate):
    __slots__ = ("alpha", "mode")

    def __init__(self, alpha: complex, mode: int):
        self.alpha = alpha
        self.mode = mode


class Squeeze(_Gate):
    __slots__ = ("z", "mode")

    def __init__(self, z: complex, mode: int):
        self.z = z
        self.mode = mode


class PhaseRotation(_Gate):
    __slots__ = ("phi", "mode")

    def __init__(self, phi: float, mode: int):
        self.phi = _canonical_phase(phi)
        self.mode = mode


GateSpec = Displacement | Squeeze | PhaseRotation


# ---------------------------------------------------------------------------
# state constructors


def basis_state(pattern, cutoff: CutoffSpec) -> FockState:
    """Unit state with amplitude 1 on ``pattern``."""
    counts = tuple(int(n) for n in pattern)
    if len(counts) != cutoff.modes:
        raise MeasurementSpecError("pattern length does not match mode count")
    if any(not 0 <= n <= cap for n, cap in zip(counts, cutoff.per_mode_max)):
        raise MeasurementSpecError(f"pattern {counts} lies outside cutoff {cutoff.per_mode_max}")
    check_working_size(1, cutoff.dim)
    amps = np.zeros(cutoff.shape, dtype=np.complex128)
    amps[counts] = 1.0
    return FockState(cutoff, amps)


def tensor(a: FockState, b: FockState) -> FockState:
    """Tensor product; modes of ``b`` are appended after those of ``a``.
    A product beyond the working-space limit is refused before it is
    allocated."""
    check_working_size(1, a.cutoff.dim * b.cutoff.dim)
    cutoff = CutoffSpec(a.cutoff.per_mode_max + b.cutoff.per_mode_max)
    amps = np.multiply.outer(a.amplitudes, b.amplitudes)
    return FockState(cutoff, amps)


# ---------------------------------------------------------------------------
# Gaussian single-mode unitaries


def gaussian_triple(gates) -> tuple[complex, complex, complex]:
    """(mu, nu, gamma) with G^dag a G = mu a + nu a^dag + gamma for the one
    Gaussian unitary G that single-mode gates on one mode compose to, first
    gate first: D(alpha) is (1, 0, alpha), S(r e^{i theta}) (cosh r,
    -e^{i theta} sinh r, 0) and R(phi) (e^{-i phi}, 0, 0), and U_2 U_1 is
    (mu_2 mu_1 + nu_2 conj(nu_1), mu_2 nu_1 + nu_2 conj(mu_1), mu_2 gamma_1
    + nu_2 conj(gamma_1) + gamma_2)."""
    mu, nu, gamma = 1 + 0j, 0j, 0j
    for g in gates:
        if isinstance(g, Displacement):
            gamma += complex(g.alpha)
        elif isinstance(g, PhaseRotation):
            turn = cmath.exp(-1j * g.phi)
            mu, nu, gamma = turn * mu, turn * nu, turn * gamma
        elif not isinstance(g, Squeeze):
            raise TypeError(f"{g!r} is not a single-mode gate")
        elif g.z != 0:
            r = abs(g.z)
            ch, sh = math.cosh(r), -complex(g.z) / r * math.sinh(r)
            mu, nu, gamma = (ch * mu + sh * nu.conjugate(), ch * nu + sh * mu.conjugate(),
                             ch * gamma + sh * gamma.conjugate())
    return mu, nu, gamma


def gaussian_columns(triples, dim: int, k: int) -> np.ndarray:
    """<m|G|n> for m < dim and n < k of each Gaussian unitary G given by its
    ``gaussian_triple``, stacked C-contiguous as (triples, dim, k), with
    <0|G|0> > 0, refused before it is allocated beyond the working-space
    limit.  Row 0 is the conjugate of G^dag's vacuum column, mu sqrt(n+1)
    x[n+1] = -gamma x[n] - nu sqrt(n) x[n-1], from its closed-form norm.
    As G a = (conj(mu) a - nu a^dag - c) G with c = conj(mu) gamma - nu
    conj(gamma), row m+1 is (sqrt(n) G[m, n-1] + nu sqrt(m) G[m-1, n] + c
    G[m, n]) / (conj(mu) sqrt(m+1)): no reference leaves the block, so each
    column loses exactly the weight G pushes past the cutoff.

    The recurrence runs in Python scalars, down each column in turn, since
    numpy would spend more on a call per row than on the row's arithmetic
    in the narrow blocks compiling asks for.  Taking the columns in order
    is still the row recurrence: each element comes from the same three
    neighbours, of which column n - 1 is already complete.  (A recurrence
    in n, which steps along a row from its left neighbours, is unstable.)"""
    check_working_size(len(triples), dim * k)
    sqrt = [math.sqrt(j) for j in range(max(dim, k))]
    blocks = []
    for mu, nu, gamma in triples:
        x = [0j, math.exp(0.5 * ((nu.conjugate() * gamma ** 2 / mu).real - abs(gamma) ** 2))
             / math.sqrt(abs(mu))]
        for j in range(1, k):
            x.append(-(gamma * x[j] + nu * sqrt[j - 1] * x[j - 1]) / (mu * sqrt[j]))
        c = mu.conjugate() * gamma - nu * gamma.conjugate()
        across = [nu * s for s in sqrt[:dim - 1]]
        down = [mu.conjugate() * s for s in sqrt[1:dim]]
        left = [0j] * dim  # column -1
        cols = []
        for n in range(k):
            sn, up, g = complex(sqrt[n]), 0j, x[n + 1].conjugate()
            col = [g]
            for p, a, d in zip(left, across, down):
                up, g = g, (sn * p + a * up + c * g) / d
                col.append(g)
            cols.append(col)
            left = col
        blocks.append(cols)
    return np.array(blocks, dtype=np.complex128).transpose(0, 2, 1).copy()


# ---------------------------------------------------------------------------
# gate dispatch


def gate_matrix(gate: GateSpec, cutoff: CutoffSpec) -> np.ndarray:
    """A single-mode gate's truncated Fock matrix on its mode, refused
    before it is allocated beyond the working-space limit.  A displacement
    or squeeze comes from ``gaussian_columns``, so its columns lose exactly
    the weight pushed past the cutoff; a phase rotation is its closed-form
    diagonal."""
    if not isinstance(gate, (Displacement, Squeeze, PhaseRotation)):
        raise TypeError(f"{gate!r} is not a single-mode gate")
    if not 0 <= gate.mode < cutoff.modes:
        raise MeasurementSpecError(f"gate mode {gate.mode} outside 0..{cutoff.modes - 1}")
    dim = cutoff.shape[gate.mode]
    if isinstance(gate, PhaseRotation):
        check_working_size(1, dim * dim)
        return np.diag(np.exp(-1j * gate.phi * np.arange(dim)))
    return gaussian_columns([gaussian_triple([gate])], dim, dim)[0]


def apply_gate(state: FockState, gate: GateSpec) -> FockState:
    """New state with the gate's matrix contracted into its mode; no
    renormalization."""
    out = np.tensordot(gate_matrix(gate, state.cutoff), state.amplitudes, axes=([1], [gate.mode]))
    return FockState(state.cutoff, np.moveaxis(out, 0, gate.mode), leak=state.leak,
                     leak_warning=state.leak_warning)


# ---------------------------------------------------------------------------
# preparations


def check_leak(leak: float, what: str) -> bool:
    """The warning flag of a weight ``leak`` that ``what`` lost past the
    cutoff: set from LEAK_SOFT on; above LEAK_HARD, or NaN, it is refused."""
    if not leak <= LEAK_HARD:
        raise PreparationLeakError(
            f"{what} leaks {leak:.3e} past the cutoff (limit {LEAK_HARD:.0e}); increase the cutoff")
    return leak >= LEAK_SOFT


def prepare(kind: str, cutoff: CutoffSpec, *, alpha: complex = 0j,
            z: complex = 0j, r: float = 0.0) -> FockState:
    """Preparation from the vacuum, renormalized after truncation.

    kinds: ``vacuum``, ``coherent`` (alpha), ``squeezed`` (z), ``tmss`` (r,
    two modes).  A coherent or squeezed state is the vacuum column of its
    gate's ``gaussian_columns``; the two-mode squeezed state is its
    closed-form diagonal.  The pre-normalization leak is recorded on the
    result; a leak above LEAK_HARD raises, one above LEAK_SOFT sets the
    warning flag.  A box beyond the working-space limit is refused before
    it is allocated.
    """
    check_working_size(1, cutoff.dim)
    if kind == "vacuum":
        return basis_state((0,) * cutoff.modes, cutoff)
    if kind in ("coherent", "squeezed"):
        if cutoff.modes != 1:
            raise MeasurementSpecError(f"{kind} preparation is single-mode")
        triple = ((1 + 0j, 0j, complex(alpha)) if kind == "coherent"
                  else gaussian_triple([Squeeze(z, 0)]))
        raw = gaussian_columns([triple], cutoff.shape[0], 1)[0, :, 0]
    elif kind == "tmss":
        if cutoff.modes != 2:
            raise MeasurementSpecError("tmss preparation is two-mode")
        if r == 0.0:
            return basis_state((0, 0), cutoff)
        d1, d2 = cutoff.shape
        raw = np.zeros((d1, d2), dtype=np.complex128)
        n = np.arange(min(d1, d2))
        raw[n, n] = (-math.tanh(r)) ** n / math.cosh(r)
    else:
        raise MeasurementSpecError(f"unknown preparation kind {kind!r}")
    leak = max(0.0, 1.0 - float(np.vdot(raw, raw).real))
    warn = check_leak(leak, f"{kind} preparation")
    amps = raw / math.sqrt(max(1.0 - leak, np.finfo(float).tiny))
    return FockState(cutoff, amps, leak=leak, leak_warning=warn)
