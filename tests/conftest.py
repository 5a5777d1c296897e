import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from cvswap import dv, estimators, fock, sampling
from cvswap.sampling import level_law


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_pure(rng, cap: int, modes: int = 1) -> fock.FockState:
    shape = tuple(cap + 1 for _ in range(modes))
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps /= np.linalg.norm(amps)
    return fock.FockState(fock.CutoffSpec((cap,) * modes), amps)


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
    return fock.FockState(fock.CutoffSpec((cap,) * modes), amps)


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
    return fock.FockState(fock.CutoffSpec((cap, cap)), amps)


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
    got, want = (dict(zip(*level_law([b]))) for b in (block, oracle))
    for value in set(got) | set(want):
        assert abs(got.get(value, 0.0) - want.get(value, 0.0)) < 1e-12


def numpy_law_block(levels, law) -> tuple[np.ndarray, np.ndarray]:
    """``law_block``'s clamp and renormalisation as numpy arrays: the real
    parts cut at zero, over their ``sum``."""
    q = np.maximum(np.asarray(law, dtype=np.complex128).real, 0.0)
    return np.asarray(levels, dtype=np.complex128), q / q.sum()


def numpy_level_law(blocks) -> tuple[np.ndarray, np.ndarray]:
    """``level_law`` as numpy arrays: the outer product of the values with
    each block's levels, merged by ``np.unique`` and the outer product of
    the laws summed onto the merged values by ``bincount``."""
    values, law = np.ones(1, dtype=np.complex128), np.ones(1)
    for levels, q in blocks:
        products = np.multiply.outer(values, np.asarray(levels, dtype=np.complex128)).ravel()
        values, merged = np.unique(products, return_inverse=True)
        law = np.bincount(merged, np.multiply.outer(law, q).ravel(), minlength=values.size)
    return values, law


# ---------------------------------------------------------------------------
# reference gates: the beamsplitter, the padding and the overlap, which the
# package does not apply, and each single-mode gate as the exponential of
# its generator, independent of fock's Gaussian builder


@dataclass(slots=True)
class Beamsplitter:
    """exp(theta (e^{i phi} a_i^dag a_j - e^{-i phi} a_i a_j^dag)) on modes
    (mode_i, mode_j), with theta in [0, pi] and phi canonical in [0, 2 pi)."""

    theta: float
    phi: float
    mode_i: int
    mode_j: int

    def __post_init__(self):
        theta = float(self.theta)
        if not -1e-12 <= theta <= math.pi + 1e-12:
            raise ValueError(f"beamsplitter angle {theta} outside [0, pi]")
        if self.mode_i == self.mode_j:
            raise ValueError("beamsplitter modes must be distinct")
        self.theta = min(max(theta, 0.0), math.pi)
        self.phi = fock._canonical_phase(self.phi)


def beamsplitter_blocks(theta: float, phi: float, t_max: int):
    """Yield (t, B_t) where B_t[j, a] = <j, t-j|U_BS|a, t-a>.

    Block t follows from block t-1 through t|a, t-a> = sqrt(a) a^dag|a-1,
    t-a> + sqrt(t-a) b^dag|a, t-a-1>, a weighted mean of two predecessor
    columns (Risbo, J. Geodesy 70, 383 (1996)) that stays unitary to
    rounding where a step from one column alone amplifies it.  B_t[j, a]
    is e^{i phi (j-a)} times the real block of phi = 0.
    """
    sq = np.sqrt(np.arange(t_max + 1))
    ckk = np.multiply.outer(sq, sq)
    skk = math.sin(theta) * ckk
    ckk *= math.cos(theta)
    phase = np.exp(1j * phi * np.arange(t_max + 1))
    phases = np.multiply.outer(phase, phase.conj())
    prev = np.ones((1, 1))
    yield 0, prev.astype(np.complex128)
    for t in range(1, t_max + 1):
        # U a^dag U^dag = c a^dag - s b^dag and U b^dag U^dag = s a^dag + c b^dag;
        # a^dag takes row j-1 to row j with sqrt(j), b^dag keeps row j with sqrt(t-j)
        real = np.zeros((t + 1, t + 1))
        real[1:, 1:] = ckk[1:t + 1, 1:t + 1] * prev   # c sqrt(j) sqrt(a) prev[j-1, a-1]
        real[1:, :t] += skk[1:t + 1, t:0:-1] * prev   # s sqrt(j) sqrt(t-a) prev[j-1, a]
        real[:t, :t] += ckk[t:0:-1, t:0:-1] * prev    # c sqrt(t-j) sqrt(t-a) prev[j, a]
        real[:t, 1:] -= skk[t:0:-1, 1:t + 1] * prev   # s sqrt(t-j) sqrt(a) prev[j, a-1]
        real /= t
        prev = real
        yield t, real * phases[:t + 1, :t + 1]


def apply_beamsplitter(state: fock.FockState, gate: Beamsplitter) -> fock.FockState:
    """The beamsplitter applied along axes (mode_i, mode_j) one total t =
    n_i + n_j at a time, up to the largest occupied total.  Block t moves
    weight onto every |a, t - a>, so a box whose cutoffs cannot both hold
    that total would drop weight; it is refused instead."""
    moved = np.moveaxis(state.amplitudes, (gate.mode_i, gate.mode_j), (0, 1))
    d1, d2 = moved.shape[0], moved.shape[1]
    work = moved.reshape(d1, d2, -1)
    out = np.zeros_like(work)
    n_i, n_j = np.nonzero(np.any(work != 0, axis=2))
    t_hi = int((n_i + n_j).max(initial=0))
    if t_hi > min(d1, d2) - 1:
        raise ValueError(
            f"beamsplitter would truncate: the largest occupied n_i + n_j is {t_hi}, beyond "
            f"the cutoffs ({d1 - 1}, {d2 - 1}) of modes ({gate.mode_i}, {gate.mode_j}); "
            "pad both modes to that total")
    for t, block in beamsplitter_blocks(gate.theta, gate.phi, t_hi):
        a = np.arange(t + 1)
        out[a, t - a, :] = block @ work[a, t - a, :]
    out = np.moveaxis(out.reshape(moved.shape), (0, 1), (gate.mode_i, gate.mode_j))
    return fock.FockState(state.cutoff, out, leak=state.leak, leak_warning=state.leak_warning)


def pad(state: fock.FockState, per_mode_max) -> fock.FockState:
    """Embed into larger per-mode cutoffs (zero fill above the old ones)."""
    caps = tuple(int(n) for n in per_mode_max)
    if len(caps) != state.modes:
        raise ValueError("pad spec must cover every mode")
    if any(new < old for new, old in zip(caps, state.cutoff.per_mode_max)):
        raise ValueError("pad cannot shrink a cutoff")
    amps = np.zeros(tuple(c + 1 for c in caps), dtype=np.complex128)
    amps[tuple(slice(0, d) for d in state.cutoff.shape)] = state.amplitudes
    return fock.FockState(fock.CutoffSpec(caps), amps, leak=state.leak,
                          leak_warning=state.leak_warning)


def inner_product(a: fock.FockState, b: fock.FockState) -> complex:
    """<a|b> with conjugation on ``a``."""
    if a.cutoff != b.cutoff:
        raise ValueError("inner product requires matching modes and cutoffs")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def expm_gates(amplitudes, gates, mode: int = 0) -> tuple[np.ndarray, float]:
    """Displacements, squeezes and phase rotations applied to ``mode`` of
    an amplitude box exactly, then truncated once: each gate is the
    exponential of its generator (``expm_multiply`` on the amplitude
    columns) on the register padded on that mode, the padding doubled
    from 16 levels until no gate leaves more than 1e-15 of the weight in
    the top quarter of the padded register, and the result is cut back to
    the box.  The gates' own modes are not read.  Returns the cut
    amplitudes and the share of the weight lost past the cutoff."""
    box = np.moveaxis(np.asarray(amplitudes, dtype=np.complex128), mode, 0)
    dim = box.shape[0]
    cols = box.reshape(dim, -1)
    norm, extra = float(np.vdot(cols, cols).real), 16
    while True:
        size = dim + extra
        a = sparse.diags(np.sqrt(np.arange(1, size)), 1, format="csr", dtype=np.complex128)
        out = np.zeros((size, cols.shape[1]), dtype=np.complex128)
        out[:dim] = cols
        top, tail = size * 3 // 4, 0.0
        for gate in gates:
            if isinstance(gate, fock.PhaseRotation):
                out = np.exp(-1j * gate.phi * np.arange(size))[:, None] * out
            elif isinstance(gate, fock.Displacement):
                out = expm_multiply(gate.alpha * a.T - np.conj(gate.alpha) * a, out)
            elif isinstance(gate, fock.Squeeze):
                out = expm_multiply(0.5 * (np.conj(gate.z) * (a @ a) - gate.z * (a.T @ a.T)), out)
            else:
                raise TypeError(f"{gate!r} is not a single-mode gate")
            tail = max(tail, float(np.sum(np.abs(out[top:]) ** 2)))
        if tail <= 1e-15 * norm:
            break
        extra *= 2
    cut = out[:dim]
    lost = 1.0 - float(np.vdot(cut, cut).real) / norm if norm else 0.0
    return np.moveaxis(cut.reshape(box.shape), 0, mode), lost


def reference_gate(state: fock.FockState, gate) -> fock.FockState:
    """One gate applied by the references above: a beamsplitter block by
    block, a single-mode gate exactly and truncated to the state's box."""
    if isinstance(gate, Beamsplitter):
        return apply_beamsplitter(state, gate)
    if not 0 <= gate.mode < state.modes:
        raise ValueError(f"gate mode {gate.mode} outside 0..{state.modes - 1}")
    amps = expm_gates(state.amplitudes, [gate], gate.mode)[0]
    return fock.FockState(state.cutoff, amps, leak=state.leak, leak_warning=state.leak_warning)


def dagger(gate):
    """Inverse gate within the same gate family."""
    if isinstance(gate, fock.Displacement):
        return fock.Displacement(-gate.alpha, gate.mode)
    if isinstance(gate, fock.Squeeze):
        return fock.Squeeze(-gate.z, gate.mode)
    if isinstance(gate, Beamsplitter):
        return Beamsplitter(gate.theta, gate.phi + math.pi, gate.mode_i, gate.mode_j)
    if isinstance(gate, fock.PhaseRotation):
        return fock.PhaseRotation(-gate.phi, gate.mode)
    raise TypeError(f"unknown gate {gate!r}")


def invert_circuit(gates) -> list:
    """Gate list implementing the inverse of the given circuit."""
    return [dagger(g) for g in reversed(list(gates))]


def run_circuit(state: fock.FockState, gates) -> fock.FockState:
    """Dense circuit oracle: ``reference_gate`` folded over the gates."""
    return functools.reduce(reference_gate, gates, state)


def padded_circuit(state: fock.FockState, gates) -> tuple[fock.FockState, float]:
    """A register-A circuit applied exactly, then truncated once, by
    ``expm_gates``: returns the cut state and the share of the weight it
    lost past the A cutoff."""
    amps, lost = expm_gates(state.amplitudes, gates)
    return fock.FockState(state.cutoff, amps), lost


def padded_on_a(state, a_cap: int):
    """``state``, pure or an ensemble, with its mode-A cutoff raised to
    ``a_cap``."""
    comps = tuple((w, pad(s, (a_cap,) + s.cutoff.per_mode_max[1:]))
                  for w, s in fock.components_of(state))
    return comps[0][1] if isinstance(state, fock.FockState) else fock.MixedEnsemble(comps)


def swap_modes(state: fock.FockState, i: int, j: int) -> fock.FockState:
    """The state with modes i and j exchanged; the two cutoffs must agree."""
    return fock.FockState(state.cutoff, np.swapaxes(state.amplitudes, i, j))


def truncated_gate(state: fock.FockState, gate) -> fock.FockState:
    """``gate`` applied to ``state`` and truncated back to its box; a
    beamsplitter, which refuses a box that cannot hold the photons it
    moves, runs on the state padded to its pair's photon budget."""
    if not isinstance(gate, Beamsplitter):
        return reference_gate(state, gate)
    caps = list(state.cutoff.per_mode_max)
    budget = caps[gate.mode_i] + caps[gate.mode_j]
    caps[gate.mode_i] = caps[gate.mode_j] = budget
    out = apply_beamsplitter(pad(state, caps), gate).amplitudes
    return fock.FockState(state.cutoff, out[tuple(slice(0, d) for d in state.cutoff.shape)])


def dense_matrix(op, cutoff: fock.CutoffSpec) -> np.ndarray:
    """Dense matrix of a gate truncated to the box ``cutoff``, or of a map
    from state to state, row-major over the photon patterns: column k is
    the image of basis state k."""
    image = op if callable(op) else (lambda state: truncated_gate(state, op))
    return np.stack([image(fock.basis_state(pattern, cutoff)).amplitudes.ravel()
                     for pattern in np.ndindex(cutoff.shape)], axis=1)


def single_particle_matrix(gates, n_modes: int) -> np.ndarray:
    """Composed action of passive gates (beamsplitters and phase rotations)
    on creation operators, a_j -> sum_l U[l, j] a_l."""
    total = np.eye(n_modes, dtype=np.complex128)
    for gate in gates:
        mat = np.eye(n_modes, dtype=np.complex128)
        if isinstance(gate, Beamsplitter):
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


def drawn_blocks(run) -> list[list]:
    """The block list of every law ``run()`` builds to draw from, in
    order: an estimator call builds one ``ShotLaw`` for all its runs."""
    drawn = []

    def record(blocks):
        drawn.append(list(blocks))
        return level_law(blocks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "level_law", record)
        run()
    return drawn


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


# ---------------------------------------------------------------------------
# mesh oracles: every shot block's law from a simulation of its measurement
# circuit on the closed photon-number pattern set, as the estimators built
# their blocks before they took the law from the SWAP and cyclic-shift
# symmetry


def closed_patterns(caps, groups=()) -> np.ndarray:
    """The photon patterns a passive circuit can reach from the per-mode
    box ``caps``, one per row, in row-major (lexicographic) order.

    ``groups`` are the disjoint mode sets the circuit mixes.  The modes of
    a group share its photon budget, the sum of their caps, which the
    circuit conserves, so nothing is truncated; a mode in no group keeps
    its cap.  The rows inside the box are the box in its row-major order.
    """
    caps = [int(c) for c in caps]
    group_of = {m: list(g) for g in groups for m in g}
    if len(group_of) != sum(len(g) for g in groups) or not set(group_of) <= set(range(len(caps))):
        raise ValueError(f"mode groups must be disjoint modes of 0..{len(caps) - 1}")
    patterns = np.zeros((1, 0), dtype=np.int64)
    for mode in range(len(caps)):
        group = group_of.get(mode, [mode])
        used = patterns[:, [m for m in group if m < mode]].sum(axis=1)
        room = sum(caps[m] for m in group) - used + 1
        starts = np.repeat(np.cumsum(room) - room, room)
        values = np.arange(starts.size) - starts
        patterns = np.column_stack([np.repeat(patterns, room, axis=0), values])
    return patterns


def closed_pattern_count(caps, groups=()) -> int:
    """Row count of ``closed_patterns(caps, groups)``, without building it."""
    grouped = {m for g in groups for m in g}
    return math.prod([math.comb(sum(caps[m] for m in g) + len(g), len(g)) for g in groups]
                     + [int(c) + 1 for m, c in enumerate(caps) if m not in grouped])


def pair_sectors(patterns: np.ndarray, mi: int, mj: int) -> list[np.ndarray]:
    """Per total t of modes (mi, mj), the (t+1, R_t) row indices of the
    patterns with n_mi = a, n_mj = t - a, one column per configuration of
    the other modes."""
    t = patterns[:, mi] + patterns[:, mj]
    n = patterns[:, mi]
    others = np.delete(patterns, [mi, mj], axis=1)
    dims = (int(t.max()) + 1,) + tuple(others.max(axis=0) + 1)
    # one sort key: t, then the other modes, then n_mi; each (t, others)
    # run must hold n_mi = 0..t, and becomes one column of its sector
    key = np.ravel_multi_index((t, *others.T, n), dims + (dims[0],))
    order = np.argsort(key)
    run, t, n = key[order] // dims[0], t[order], n[order]
    starts = np.ones(len(t), dtype=bool)
    starts[1:] = run[1:] != run[:-1]
    ends = np.roll(starts, -1)
    if not ((n == np.where(starts, 0, np.roll(n, 1) + 1)).all() and (n[ends] == t[ends]).all()):
        raise ValueError("pattern set is not closed under the circuit's gates")
    return [idx.reshape(-1, tot + 1).T
            for tot, idx in enumerate(np.split(order, np.cumsum(np.bincount(t))[:-1]))]


def apply_passive(amplitudes: np.ndarray, patterns: np.ndarray, gates) -> np.ndarray:
    """Apply a passive circuit to amplitudes listed by photon pattern.

    ``amplitudes[k]`` (with any trailing batch axes) belongs to
    ``patterns[k]``.  The set must hold every pattern a gate reaches from
    one of its members, as ``closed_patterns`` does; then no weight is
    truncated.  A beamsplitter multiplies each total-photon block B_t of
    its mode pair, up to the largest occupied total, into the gathered
    (t+1, R_t) sector and scatters the result back; a phase rotation is a
    diagonal multiply.
    """
    patterns = np.asarray(patterns)
    n_modes = patterns.shape[1]
    out = np.array(amplitudes, dtype=np.complex128)
    sectors = {}
    for gate in gates:
        if not isinstance(gate, (Beamsplitter, fock.PhaseRotation)):
            raise TypeError(f"{gate!r} is not a beamsplitter or phase rotation")
        modes = (gate.mode,) if isinstance(gate, fock.PhaseRotation) else (gate.mode_i, gate.mode_j)
        if not all(0 <= m < n_modes for m in modes):
            raise ValueError(f"gate modes {modes} outside 0..{n_modes - 1}")
        if isinstance(gate, fock.PhaseRotation):
            phase = np.exp(-1j * gate.phi * patterns[:, gate.mode])
            out *= phase.reshape((-1,) + (1,) * (out.ndim - 1))
            continue
        if modes not in sectors:
            sectors[modes] = pair_sectors(patterns, *modes)
        occupied = out.reshape(len(patterns), -1).any(axis=1)
        totals = patterns[occupied, gate.mode_i] + patterns[occupied, gate.mode_j]
        t_hi = int(totals.max(initial=-1))
        blocks = beamsplitter_blocks(gate.theta, gate.phi, t_hi)
        for idx, (_, block) in zip(sectors[modes], blocks):
            sector = out[idx]
            out[idx] = (block @ sector.reshape(len(block), -1)).reshape(sector.shape)
    return out


def rectangular_decompose(unitary: np.ndarray, tol: float = 1e-10) -> list:
    """Factor an L x L unitary into a nearest-neighbor rectangular mesh.

    Givens eliminations walk anti-diagonals from the bottom-left corner,
    alternating column operations (even diagonals) and row operations (odd
    diagonals); the residual diagonal becomes phase rotations placed
    between the two beamsplitter half-meshes.  Gate count is L(L-1)/2
    beamsplitters plus at most L phases; depth is O(L).  Trivial gates
    (angle and phase below 1e-14) are dropped, so the identity yields an
    empty list.
    """
    u = np.array(unitary, dtype=np.complex128)
    n = u.shape[0]
    if u.shape != (n, n):
        raise ValueError("unitary must be square")
    if np.max(np.abs(u.conj().T @ u - np.eye(n))) > tol:
        raise ValueError("input is not unitary to the requested tolerance")

    right_ops: list[tuple[float, float, int]] = []  # (theta, phi, col)
    left_ops: list[tuple[float, float, int]] = []   # (theta, phi, upper row)
    for d in range(n - 1):
        if d % 2 == 0:
            # column ops; walk the diagonal from its bottom-right element up
            for j in range(d, -1, -1):
                r, c = n - 1 - d + j, j
                target, pivot = u[r, c], u[r, c + 1]
                if abs(target) == 0.0:
                    continue
                if abs(pivot) == 0.0:
                    theta, phi = math.pi / 2.0, 0.0
                else:
                    ratio = -target / pivot
                    theta = math.atan(abs(ratio))
                    phi = fock._canonical_phase(-cmath.phase(ratio))
                ct, st = math.cos(theta), math.sin(theta)
                cols = u[:, [c, c + 1]].copy()
                u[:, c] = ct * cols[:, 0] + cmath.exp(-1j * phi) * st * cols[:, 1]
                u[:, c + 1] = -cmath.exp(1j * phi) * st * cols[:, 0] + ct * cols[:, 1]
                u[r, c] = 0.0
                right_ops.append((theta, phi, c))
        else:
            # row ops; walk the diagonal from its top-left element down
            for j in range(d + 1):
                r, c = n - 1 - d + j, j
                target, pivot = u[r, c], u[r - 1, c]
                if abs(target) == 0.0:
                    continue
                if abs(pivot) == 0.0:
                    theta, phi = math.pi / 2.0, 0.0
                else:
                    ratio = target / pivot
                    theta = math.atan(abs(ratio))
                    phi = fock._canonical_phase(-cmath.phase(ratio))
                ct, st = math.cos(theta), math.sin(theta)
                rows = u[[r - 1, r], :].copy()
                u[r - 1, :] = ct * rows[0, :] + cmath.exp(1j * phi) * st * rows[1, :]
                u[r, :] = -cmath.exp(-1j * phi) * st * rows[0, :] + ct * rows[1, :]
                u[r, c] = 0.0
                left_ops.append((theta, phi, r - 1))

    off = u - np.diag(np.diag(u))
    if np.max(np.abs(off)) > 1e-9:
        raise RuntimeError("rectangular elimination failed to reach a diagonal")

    gates = []
    for theta, phi, c in right_ops:
        if theta > 1e-14:
            gates.append(Beamsplitter(theta, phi, c, c + 1))
    for m in range(n):
        delta = cmath.phase(u[m, m])
        if abs(u[m, m]) > 0 and abs(delta) > 1e-14:
            gates.append(fock.PhaseRotation(fock._canonical_phase(-delta), m))
    for theta, phi, row in reversed(left_ops):
        if theta > 1e-14:
            gates.append(Beamsplitter(theta, phi + math.pi, row, row + 1))
    return gates


def apply_two_mode_dense(amps: np.ndarray, mat: np.ndarray, mi: int, mj: int) -> np.ndarray:
    """Contract a (d_i d_j) x (d_i d_j) matrix into axes (mi, mj) of a dense
    amplitude tensor, the pair flattened row-major."""
    moved = np.moveaxis(amps, (mi, mj), (0, 1))
    d1, d2 = moved.shape[0], moved.shape[1]
    work = moved.reshape(d1 * d2, -1)
    out = (mat @ work).reshape(moved.shape)
    return np.moveaxis(out, (0, 1), (mi, mj))


def dft_matrix(n: int) -> np.ndarray:
    """Single-particle mixer F[l, j] = e^{2 pi i l j / n} / sqrt(n)."""
    idx = np.arange(n)
    return np.exp(2j * math.pi * np.outer(idx, idx) / n) / math.sqrt(n)


def ensemble_combinations(factors) -> list[tuple[float, list]]:
    """(weight, pure states) for every choice of one ensemble component per
    factor; the first factor varies slowest, and each weight is the product
    of the chosen component weights taken left to right from 1.0."""
    combos = [(1.0, [])]
    for factor in factors:
        combos = [
            (w * cw, states + [cs])
            for w, states in combos
            for cw, cs in fock.components_of(factor)
        ]
    return combos


def relabeled_stack(stack: fock.FockState, n: int) -> fock.FockState:
    """A stack of n copies A_0 B_0 ... A_{n-1} B_{n-1} with its A registers
    (axes 0, 2, ..., 2n - 2) cyclically shifted left: axis 2j holds
    A_{j+1 mod n}."""
    axes = list(range(stack.modes))
    for j in range(n):
        axes[2 * j] = 2 * ((j + 1) % n)
    caps = tuple(stack.cutoff.per_mode_max[ax] for ax in axes)
    return fock.FockState(fock.CutoffSpec(caps), np.transpose(stack.amplitudes, axes))


def row_recurrence_columns(triples, dim: int, k: int) -> np.ndarray:
    """Oracle for ``fock.gaussian_columns``' loop order: the same row
    recurrence and closed-form row 0, run one numpy statement per row."""
    mu, nu, gamma = (np.array(v, dtype=np.complex128)[:, None] for v in zip(*triples))
    c = mu.conj() * gamma - nu * gamma.conj()
    sqrt = np.sqrt(np.arange(max(dim, k)))
    # block[m + 1, :, n + 1] holds G[m, n]; row -1 and column -1 stay zero
    block = np.zeros((dim + 1, len(triples), k + 1), dtype=np.complex128)
    top = block[1]
    top[:, 1] = [math.exp(0.5 * ((n.conjugate() * g ** 2 / m).real - abs(g) ** 2)) / math.sqrt(abs(m))
                 for m, n, g in triples]
    for j in range(1, k):
        top[:, j + 1:j + 2] = -(gamma * top[:, j:j + 1] + nu * sqrt[j - 1] * top[:, j - 1:j]) / (
            mu * sqrt[j])
    top[:] = top.conj()
    for m in range(dim - 1):
        block[m + 2, :, 1:] = (sqrt[:k] * block[m + 1, :, :k] + nu * sqrt[m] * block[m, :, 1:]
                               + c * block[m + 1, :, 1:]) / (mu.conj() * sqrt[m + 1])
    return np.moveaxis(block[1:, :, 1:], 1, 0)


def quadratic_group_factors(factors, pairs, thresholds) -> list[tuple]:
    """Oracle for the parity estimator's grouping, as it was first written:
    each pair relabels every factor of one group with the other's label,
    and each group scans every pair.  Returns (member indices, local
    pairs, thresholds, base caps) per group, in order of first factor."""
    offsets, owner, total = [], [], 0
    for i, f in enumerate(factors):
        offsets.append(total)
        owner.extend([i] * f.modes)
        total += f.modes
    label = list(range(len(factors)))
    for a, b in pairs:
        keep, drop = label[owner[a]], label[owner[b]]
        label = [keep if g == drop else g for g in label]
    groups: dict[int, list[int]] = {}
    for i, g in enumerate(label):
        groups.setdefault(g, []).append(i)
    out = []
    for members in groups.values():
        local_of, caps = {}, []
        for fi in members:
            for k in range(factors[fi].modes):
                local_of[offsets[fi] + k] = len(caps)
                caps.append(factors[fi].cutoff.per_mode_max[k])
        local_pairs, local_thr = [], []
        for (a, b), thr in zip(pairs, thresholds):
            if owner[a] in members:
                local_pairs.append((local_of[a], local_of[b]))
                local_thr.append(thr)
        out.append((members, local_pairs, local_thr, caps))
    return out


def dense_two_copy_expectation(copies, m_per_pair=None) -> float:
    """Oracle for the two-copy expectation: the parity estimator's exact
    value on one dense stack of the pure copies and its relabeled stack,
    pair j joining mode j of the one to mode j of the other; a per-pair
    threshold list reads (A_0, A'_1), (B_0, B'_0), (A_1, A'_2), ..."""
    stack = functools.reduce(fock.tensor, copies)
    n = len(copies)
    return estimators.parity_overlap_expectation(
        [stack, relabeled_stack(stack, n)], [(j, 2 * n + j) for j in range(2 * n)], m_per_pair)


def squared_eigenvalue_sum(psi: fock.FockState, copies: int) -> float:
    """(sum_k lambda_k^n)^2 over the eigenvalues of the reduced state of
    mode A of a two-mode purification: the two-copy value of n copies."""
    amps = psi.amplitudes
    rho_a = amps @ amps.conj().T / np.vdot(amps, amps).real
    return float(np.sum(np.linalg.eigvalsh(rho_a) ** copies)) ** 2


def threshold_mask(shape, local_pairs, thresholds, total_threshold=None) -> np.ndarray:
    """True on each pattern of the box ``shape`` whose pair totals (and
    group total) are all within their threshold 2M: broadcast sums of the
    per-mode photon counts, full-sized only along the modes a threshold
    reaches."""
    counts = [np.arange(d).reshape((1,) * ax + (-1,) + (1,) * (len(shape) - ax - 1))
              for ax, d in enumerate(shape)]
    mask = np.ones((1,) * len(shape), dtype=bool)
    for (a, b), thr in zip(local_pairs, thresholds):
        if thr is not None:
            mask = mask & (counts[a] + counts[b] <= 2 * thr)
    if total_threshold is not None:
        mask = mask & (sum(counts) <= 2 * total_threshold)
    return mask


def padded_group_expectation(group, total_threshold=None) -> tuple[float, float]:
    """Oracle for a parity group's (k, s): the kept weight k = tr(Pi rho)
    and the masked swap s = tr(Pi SWAP rho), from the whole padded box.
    Pairs are padded to a common cutoff, which makes the axis swap exact,
    and every ensemble combination's joint state is built, masked, swapped
    and normalised by its norm."""
    caps = list(group.base_caps)
    for a, b in group.local_pairs:
        m = max(caps[a], caps[b])
        caps[a] = caps[b] = m
    shape = tuple(c + 1 for c in caps)
    fock.check_working_size(3 + (total_threshold is not None), math.prod(shape))

    mask = threshold_mask(shape, group.local_pairs, group.thresholds, total_threshold)
    psi, masked, swapped = np.empty((3,) + shape, dtype=np.complex128)
    inner = psi[tuple(slice(0, c + 1) for c in group.base_caps)]
    if inner.shape != shape:
        psi.fill(0.0)  # the padding stays zero
    if mask.size == 1:  # no threshold: every pattern is kept
        masked = psi
    kept = value = 0.0
    for w, states in ensemble_combinations(group.factors):
        *head, last = [s.amplitudes for s in states]
        np.multiply.outer(functools.reduce(np.multiply.outer, head, np.ones(())), last, out=inner)
        norm = float(np.vdot(psi, psi).real)
        if norm <= 0:
            raise ValueError("zero-norm component")
        if masked is not psi:
            np.multiply(psi, mask, out=masked)
        view = masked
        for a, b in group.local_pairs:
            view = np.swapaxes(view, a, b)
        np.copyto(swapped, view)
        kept += w * float(np.vdot(masked, masked).real) / norm
        value += w * float(np.vdot(masked, swapped).real) / norm
    return kept, value


def component_block(component_weights, distributions, levels) -> tuple[list, list]:
    """The block (levels, q) of an ensemble whose component c scores
    ``levels`` with the law ``distributions[c]``: q is the component sum
    w_0 dist_0 + w_1 dist_1 + ..., added in component order."""
    q = sum(w * np.asarray(d, dtype=np.float64) for w, d in zip(component_weights, distributions))
    return np.asarray(levels, dtype=np.complex128).ravel().tolist(), q.tolist()


def measurement_block(component_weights, amplitudes, levels, index) -> tuple[list, list]:
    """Sampling block from measured amplitudes: one row per ensemble
    combination, each squared, normalised and summed onto ``levels`` at
    the level positions ``index`` of its outcomes (flattened), the rows'
    laws then summed with their ``component_weights``."""
    index = np.asarray(index, dtype=np.intp).ravel()
    levels = np.asarray(levels, dtype=np.complex128).ravel()
    amps = np.asarray(amplitudes).reshape(len(component_weights), -1)
    if amps.shape[1] != index.size:
        raise ValueError(
            f"{amps.shape[1]} outcome amplitudes per combination, {index.size} level indices"
        )
    if index.size and not 0 <= index.min() <= index.max() < levels.size:
        raise ValueError("level index out of range")
    p = np.abs(amps) ** 2
    total = p.sum(axis=1, keepdims=True)
    if not np.all(total > 0.0):
        raise ValueError("cannot sample from a zero-norm state")
    return component_block(np.asarray(component_weights, dtype=np.float64),
                           [np.bincount(index, dist, minlength=levels.size) for dist in p / total],
                           levels)


def passive_measurement(combos, caps, groups, gates, joint_box=None):
    """Photon patterns and measured amplitudes, one row per ensemble
    combination (from ``ensemble_combinations``), of a passive circuit that
    mixes the mode ``groups``; ``joint_box`` maps a combination's pure
    states to their joint amplitude box, by default their tensor product."""
    fock.check_working_size(len(combos) + len(caps), closed_pattern_count(caps, groups))
    patterns = closed_patterns(caps, groups)
    joint_box = joint_box or (lambda states: functools.reduce(np.multiply.outer,
                                                              [s.amplitudes for s in states]))
    amps = np.zeros((len(patterns), len(combos)), dtype=np.complex128)
    in_box = np.logical_and.reduce([patterns[:, m] <= c for m, c in enumerate(caps)])
    amps[in_box] = np.stack([joint_box(states).ravel() for _, states in combos], axis=1)
    return patterns, apply_passive(amps, patterns, gates).T


def mesh_group_block(group, total_threshold=None) -> tuple[list, list]:
    """One parity group measured: the inverse 50:50 beamsplitter on every
    pair, a pattern scoring the parity of the pairs' first counts, zeroed
    past a pair threshold or the group total (levels 0, 1, -1)."""
    caps, pairs = group.base_caps, group.local_pairs
    combos = ensemble_combinations(group.factors)
    gates = [Beamsplitter(math.pi / 4.0, math.pi, a, b) for a, b in pairs]
    patterns, amps = passive_measurement(combos, caps, pairs, gates)
    keep = np.ones(len(patterns), dtype=bool)
    for (a, b), thr in zip(pairs, group.thresholds):
        if thr is not None:
            keep &= patterns[:, a] + patterns[:, b] <= 2 * thr
    if total_threshold is not None:
        keep &= patterns.sum(axis=1) <= 2 * total_threshold
    index = keep * (1 + patterns[:, [a for a, _ in pairs]].sum(axis=1) % 2)
    return measurement_block([w for w, _ in combos], amps, [0.0, 1.0, -1.0], index)


def mesh_perm_block(states) -> tuple[list, list]:
    """The PERM registers through the DFT mesh on the photon-number
    simplex, a pattern scoring e^{2 pi i k / L} at its phase index
    k = sum_j j n_j."""
    n, cap = len(states), states[0].cutoff.per_mode_max[0]
    combos = ensemble_combinations(states)
    gates = invert_circuit(rectangular_decompose(dft_matrix(n)))
    patterns, amps = passive_measurement(combos, [cap] * n, [range(n)], gates)
    k = patterns @ np.arange(n)
    return measurement_block([w for w, _ in combos], amps, np.exp(2j * math.pi * np.arange(n) / n),
                             k % n)


def bell_change() -> np.ndarray:
    """Columns: the qubit Bell states (z, x) in the order 2 z + x."""
    cols = [dv.qudit_bell_state(z, x, 2).amplitudes.ravel() for z in range(2) for x in range(2)]
    return np.column_stack(cols)


def mesh_hybrid_block(state_a, state_b, m) -> tuple[list, list]:
    """The qubit pair measured in the Bell basis, the CV pair after the
    inverse 50:50 beamsplitter; a pattern (z, n_B, x, m_B) scores
    (-1)^{z x + n_B}, zeroed when n_B + m_B exceeds 2m."""
    cv_cap = state_a.cutoff.per_mode_max[1]
    combos = ensemble_combinations([state_a, state_b])
    bell_dag = bell_change().conj().T
    bell_box = lambda states: apply_two_mode_dense(
        np.multiply.outer(states[0].amplitudes, states[1].amplitudes), bell_dag, 0, 2)
    bs = Beamsplitter(math.pi / 4.0, math.pi, 1, 3)
    patterns, amps = passive_measurement(combos, (1, cv_cap, 1, cv_cap), [(1, 3)], [bs], bell_box)
    z, n_b, x, m_b = patterns.T
    index = 1 + (z * x + n_b) % 2
    if m is not None:
        index[n_b + m_b > 2 * m] = 0
    return measurement_block([w for w, _ in combos], amps, [0.0, 1.0, -1.0], index)


def mesh_dv_block(prep_a, prep_b, basis) -> tuple[list, list]:
    """Every qudit pair measured in the SWAP eigenbasis ``basis``; an
    outcome scores the product of its pairs' eigenvalues (levels 1, -1)."""
    dims = prep_a.cutoff.shape
    k = len(dims)
    combos = ensemble_combinations([prep_a, prep_b])
    bases = [dv.swap_eigenbasis(d, basis) for d in dims]

    def measured(sa, sb):
        joint = np.multiply.outer(sa.amplitudes, sb.amplitudes)
        for pair, (mat, _) in enumerate(bases):
            joint = apply_two_mode_dense(joint, mat.conj().T, pair, k + pair)
        return joint

    # the outer sum has axes (i_0, j_0, i_1, j_1, ...), the outcomes
    # (i_0, i_1, ..., j_0, j_1, ...)
    negative = [(eig < 0).astype(np.intp).reshape(d, d) for d, (_, eig) in zip(dims, bases)]
    index = np.transpose(functools.reduce(np.add.outer, negative) % 2,
                         [*range(0, 2 * k, 2), *range(1, 2 * k, 2)])
    return measurement_block([w for w, _ in combos],
                             np.stack([measured(*pair) for _, pair in combos]), [1.0, -1.0], index)
