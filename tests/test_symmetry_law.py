"""Every shot block's law, taken from the SWAP and cyclic-shift symmetry,
equals to 1e-12 the law of the simulated measurement circuit: the mesh
oracles of conftest, which run the beamsplitters, the DFT mesh, the Bell
change or the qudit eigenbasis on the prepared registers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvswap import cli, dv, estimators as est, fock, protocols as proto

from conftest import (
    assert_same_law,
    drawn_blocks,
    mesh_dv_block,
    mesh_group_block,
    mesh_hybrid_block,
    mesh_perm_block,
)


def _pure(rng, caps):
    shape = [c + 1 for c in caps]
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return fock.FockState(fock.CutoffSpec(tuple(caps)), amps / np.linalg.norm(amps))


def _factor(rng, caps, rank):
    """A pure state on ``caps``, or a mixture of ``rank`` of them; a
    two-mode factor is entangled."""
    if rank == 1:
        return _pure(rng, caps)
    w = rng.random(rank) + 0.1
    return fock.MixedEnsemble(tuple((float(x), _pure(rng, caps)) for x in w / w.sum()))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_parity_group_laws_match_the_beamsplitter_mesh(seed):
    # one to three factors of one or two modes with unequal cutoffs, rank 1
    # to 3, one or two measured pairs among spectator modes, per-pair
    # thresholds and, half the time, a group total
    rng = np.random.default_rng(seed)
    factors = [_factor(rng, [int(c) for c in rng.integers(0, 4, size=rng.integers(1, 3))],
                       int(rng.integers(1, 4)))
               for _ in range(rng.integers(1, 4))]
    while sum(f.modes for f in factors) < 2:
        factors.append(_factor(rng, [int(rng.integers(0, 4))], int(rng.integers(1, 3))))
    order = [int(m) for m in rng.permutation(sum(f.modes for f in factors))]
    pairs = [(order[2 * k], order[2 * k + 1])
             for k in range(int(rng.integers(1, min(2, len(order) // 2) + 1)))]
    thresholds = [None if rng.random() < 0.3 else int(rng.integers(0, 5)) for _ in pairs]
    total = None if rng.random() < 0.5 else int(rng.integers(0, 7))
    for group in est._group_factors(factors, pairs, thresholds):
        assert_same_law(est._group_block(group, total), mesh_group_block(group, total))


@settings(deadline=None, max_examples=25)
@given(st.integers(3, 5), st.integers(1, 2), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_perm_laws_match_the_dft_mesh(n_registers, cap, rank, seed):
    rng = np.random.default_rng(seed)
    states = [_factor(rng, [cap], int(rng.integers(1, rank + 1))) for _ in range(n_registers)]
    [[block]] = drawn_blocks(lambda: proto.perm_test(states, 1, 0))
    assert len(block[0]) == n_registers
    assert_same_law(block, mesh_perm_block(states))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 4), st.integers(1, 2), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_hybrid_laws_match_the_bell_and_beamsplitter_mesh(cap, rank_a, rank_b, seed):
    rng = np.random.default_rng(seed)
    a, b = _factor(rng, [1, cap], rank_a), _factor(rng, [1, cap], rank_b)
    for m in (None, *range(cap + 2)):
        [[block]] = drawn_blocks(lambda: proto.hybrid_swap_estimate(a, b, m, 1, 0))
        assert_same_law(block, mesh_hybrid_block(a, b, m))


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(2, 4), min_size=1, max_size=2), st.integers(1, 2), st.integers(1, 2),
       st.integers(0, 2**32 - 1))
def test_dv_laws_match_the_eigenbasis_measurement(dims, rank_a, rank_b, seed):
    # the one law, the parity group's, is that of either SWAP eigenbasis
    rng = np.random.default_rng(seed)

    def prep(rank):
        def pure():
            amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
            return dv.DVState(tuple(dims), amps / np.linalg.norm(amps))
        if rank == 1:
            return pure()
        w = rng.uniform(0.2, 0.8)
        return fock.MixedEnsemble(((w, pure()), (1.0 - w, pure())))

    a, b = prep(rank_a), prep(rank_b)
    [[block]] = drawn_blocks(lambda: dv.dv_swap_estimate(a, b, 1, 0))
    for basis in "vw":
        assert_same_law(block, mesh_dv_block(a, b, basis))


def test_law_comparison_sees_swapped_levels():
    # the +1 and -1 levels of a block exchanged: the comparison above fails
    rng = np.random.default_rng(3)
    [group] = est._group_factors([_pure(rng, [3]), _pure(rng, [2])], [(0, 1)], [2])
    block = est._group_block(group)
    (zero, plus, minus), q = block
    mutated = ([zero, minus, plus], q)
    assert_same_law(block, mesh_group_block(group))
    with pytest.raises(AssertionError):
        assert_same_law(mutated, mesh_group_block(group))


def test_a_law_off_the_simplex_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a masked swap above the kept weight gives level -1 a negative
    # probability: the run is refused with exit 1 and one line
    monkeypatch.setattr(est, "_group_expectation", lambda group, total=None: (0.5, 0.75))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state_a": {"kind": "vacuum", "cutoff": [2]},
                               "state_b": {"kind": "vacuum", "cutoff": [2]}, "shots": 10}))
    assert cli.main(["overlap", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == ("numerical contract failure: level law is off the probability "
                                       "simplex by 0.125, beyond LAW_TOLERANCE = 1e-12\n")
    assert not (tmp_path / "out.json").exists()
