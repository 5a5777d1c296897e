import math

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
