import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvswap import fock, sampling
from cvswap.sampling import (
    BlockSpec,
    blocks_estimate,
    blocks_expectation,
    estimator_statistics,
    shot_uniforms,
)

from conftest import random_pure


def test_empirical_frequencies(rng):
    state = random_pure(rng, 4)
    (p,) = sampling.measurement_block([1.0], state.amplitudes, np.ones(5)).distributions
    shots = 1_000_000
    u = shot_uniforms(7, 0, shots)
    idx = sampling.draw_categorical(sampling.categorical_cdf(p), u)
    freq = np.bincount(idx, minlength=5) / shots
    bound = 5.0 * np.sqrt(p * (1 - p) / shots)
    assert np.all(np.abs(freq - p) <= bound + 1e-12)


def test_shot_uniforms_batch_independent():
    # the draw for a shot index never depends on how the batch is split
    full = shot_uniforms(123, 5, 1000)
    part = shot_uniforms(123, 5, np.arange(400, 700))
    assert np.array_equal(full[400:700], part)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**64 - 1), st.integers(0, 30))
def test_shot_uniforms_range(seed, stream):
    u = shot_uniforms(seed, stream, 64)
    assert np.all((0.0 <= u) & (u < 1.0))


def test_estimator_statistics_constant():
    mean, stderr = estimator_statistics(np.ones(40))
    assert mean == 1.0 and stderr == 0.0


def test_estimator_statistics_fair_signs():
    n = 40_000
    signs = np.where(shot_uniforms(5, 0, n) < 0.5, 1.0, -1.0)
    mean, stderr = estimator_statistics(signs)
    assert stderr == pytest.approx(1.0 / math.sqrt(n), rel=0.02)
    assert abs(mean) < 5 * stderr


def test_estimator_statistics_single_element():
    mean, stderr = estimator_statistics([0.25])
    assert mean == 0.25
    assert math.isnan(stderr)


def test_blocks_expectation_and_sampling():
    dist_a = np.array([0.25, 0.75])
    dist_b = np.array([0.5, 0.5])
    block = BlockSpec(
        component_weights=np.array([0.4, 0.6]),
        distributions=(dist_a, dist_b),
        weights=np.array([1.0, -1.0], dtype=complex),
    )
    want = 0.4 * (0.25 - 0.75) + 0.6 * (0.5 - 0.5)
    assert blocks_expectation([block]) == pytest.approx(want, abs=1e-15)
    weights, discarded = blocks_estimate([block], 200_000, 11)
    mean, stderr = estimator_statistics(weights)
    assert discarded == 0
    assert abs(mean.real - want) < 5 * stderr


def test_blocks_estimate_counts_zero_weights():
    block = BlockSpec(
        component_weights=np.array([1.0]),
        distributions=(np.array([0.5, 0.5]),),
        weights=np.array([1.0, 0.0], dtype=complex),
    )
    weights, discarded = blocks_estimate([block], 10_000, 4)
    assert discarded == int(np.count_nonzero(weights == 0))
    assert 3000 < discarded < 7000


def test_block_spec_refuses_nan_component_weights():
    with pytest.raises(ValueError, match="sum to 1"):
        BlockSpec(np.array([math.nan]), (np.array([1.0]),), np.ones(1, dtype=complex))


@pytest.mark.parametrize("shots", [2 ** 59, 2 ** 63 - 1, 10 ** 30])
def test_blocks_estimate_refuses_counts_numpy_cannot_size(shots):
    # numpy raises ValueError, not MemoryError, for these counts
    block = BlockSpec(np.array([1.0]), (np.array([1.0]),), np.ones(1, dtype=complex))
    with pytest.raises(fock.ResourceLimitError, match=f"{shots} shots need"):
        blocks_estimate([block], shots, 0)


def test_measurement_block_normalises_and_checks_rows():
    amps = np.array([[3.0, 4.0j], [0.0, 2.0]])
    block = sampling.measurement_block([0.5, 0.5], amps, [1.0, -1.0])
    assert np.allclose(block.distributions[0], [0.36, 0.64])
    assert np.allclose(block.distributions[1], [0.0, 1.0])
    assert block.weights.dtype == np.complex128
    with pytest.raises(ValueError):
        sampling.measurement_block([0.5, 0.5], amps, [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        sampling.measurement_block([0.5, 0.5], np.array([[1.0, 0.0], [0.0, 0.0]]), [1.0, -1.0])


def test_passive_measurement_places_each_combination(rng):
    a = random_pure(rng, 2)
    b = fock.MixedEnsemble(((0.5, random_pure(rng, 3)), (0.5, random_pure(rng, 3))))
    combos = sampling.ensemble_combinations([a, b])
    patterns, amps = sampling.passive_measurement(combos, (2, 3), [(0, 1)], [])
    assert len(patterns) == fock.closed_pattern_count((2, 3), [(0, 1)]) == amps.shape[1]
    inside = (patterns <= [2, 3]).all(axis=1)
    for k, (_, (sa, sb)) in enumerate(combos):
        assert np.array_equal(amps[k, inside], np.multiply.outer(sa.amplitudes, sb.amplitudes).ravel())
        assert not amps[k, ~inside].any()
    with pytest.raises(ValueError, match="desk-scale limit"):
        sampling.passive_measurement(combos, (3000, 3000), [(0, 1)], [])
    # a two-copy test at cutoff 4: 45^4 patterns of one combination would
    # fit as amplitudes alone, but not with their eight-mode pattern table
    pure = [(1.0, [a])]
    assert 45 ** 4 < sampling.MAX_WORKING_ELEMENTS
    with pytest.raises(ValueError, match="desk-scale limit"):
        sampling.passive_measurement(pure, (4,) * 8, [(k, 4 + k) for k in range(4)], [])
    # cutoff 3 fits: 28^4 patterns times one amplitude and eight pattern columns
    sampling.check_working_size(1 + 8, 28 ** 4)


def whole_array_estimate(blocks, shots, seed):
    """The reference draw: every shot of a block at once, each outcome by
    binary search on the cumulative table."""

    def cdf(p):
        c = np.cumsum(p)
        c[-1] = 1.0
        return c

    weights = np.ones(shots, dtype=np.complex128)
    for b, block in enumerate(blocks):
        u = shot_uniforms(seed, 2 * b + 1, shots)
        if len(block.distributions) == 1:
            comp = np.zeros(shots, dtype=np.int64)
        else:
            comp = np.searchsorted(cdf(block.component_weights), shot_uniforms(seed, 2 * b, shots),
                                   side="right")
        idx = np.empty(shots, dtype=np.int64)
        for i, dist in enumerate(block.distributions):
            sel = comp == i
            idx[sel] = np.searchsorted(cdf(dist), u[sel], side="right")
        weights *= block.weights[idx]
    return weights, int(np.count_nonzero(weights == 0))


CHUNK = sampling.CHUNK_SHOTS


@st.composite
def edge_blocks(draw):
    """A sampling block whose distributions have exact zeros, entries
    clamped below TINY_PROBABILITY, or dyadic probabilities whose
    cumulative breakpoints lie on the guide table's bucket edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 300))
    rank = draw(st.integers(1, 3))
    cw = rng.random(rank) + 0.05
    cw /= cw.sum()
    weights = rng.normal(size=size) + 1j * rng.normal(size=size)
    weights[rng.random(size) < 0.3] = 0.0
    kind = draw(st.sampled_from(("zeros", "tiny", "dyadic")))
    if kind == "dyadic":
        k = 1 << (4 * size - 1).bit_length()
        dists = []
        for _ in range(rank):
            cuts = np.sort(rng.integers(0, k + 1, size - 1))
            dists.append(np.diff(np.concatenate(([0], cuts, [k]))) / k)
        return BlockSpec(cw, tuple(dists), weights)
    amps = rng.normal(size=(rank, size)) + 1j * rng.normal(size=(rank, size))
    amps[rng.random((rank, size)) < 0.4] = 0.0
    if kind == "tiny":
        # |a|^2 of 1e-310 is clamped to zero; 1e-298 is kept
        amps *= np.where(rng.random((rank, size)) < 0.5, 1e-155, 1e-149)
        amps[:, 0] += 1.0
    amps[:, -1] += 0.1
    return sampling.measurement_block(cw, amps, weights)


@settings(deadline=None, max_examples=40)
@given(st.lists(edge_blocks(), min_size=1, max_size=2),
       st.sampled_from((1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)),
       st.integers(0, 2**64 - 1))
def test_chunked_draw_equals_whole_array_search(blocks, shots, seed):
    weights, discarded = blocks_estimate(blocks, shots, seed)
    want_weights, want_discarded = whole_array_estimate(blocks, shots, seed)
    assert np.array_equal(weights, want_weights)
    assert discarded == want_discarded


def test_guide_table_is_exact_on_bucket_edges():
    # uniforms exactly on every bucket edge b/K and one grid step either
    # side of it, for breakpoints on the edges and between them
    k = 64
    dyadic = np.array([0, 3, 0, 0, 5, 1, 0, 7, 0, 0, 0, 0, 0, 0, 0, 48]) / k
    rng = np.random.default_rng(3)
    for p in (dyadic, rng.random(16) ** 6 / (rng.random(16) ** 6).sum()):
        cdf = sampling.categorical_cdf(p)
        edges = np.arange(k) / k
        u = np.concatenate([edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0)])
        draw = sampling._inverse_cdf(p, draws=1e9)
        assert np.array_equal(draw(u), np.searchsorted(cdf, u, side="right"))


def test_draw_memory_is_weights_plus_a_fixed_working_set():
    # 16 MB of weights for 1e6 shots, plus one chunk of draws
    p = np.random.default_rng(8).random(3321)
    block = BlockSpec(np.array([1.0]), (p / p.sum(),), np.ones(3321, dtype=complex))
    tracemalloc.start()
    try:
        blocks_estimate([block], 1_000_000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6
