import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvswap import fock, sampling
from cvswap.sampling import (
    BlockSpec,
    Seed,
    blocks_estimate,
    blocks_expectation,
    estimator_statistics,
    probability_vector,
    sample_patterns,
    shot_uniforms,
)

from conftest import random_pure


def test_probability_vector_one_hot():
    state = fock.basis_state((2,), fock.CutoffSpec((4,)))
    p = probability_vector(state)
    assert p[2] == 1.0 and p.sum() == 1.0


def test_probability_vector_poisson():
    state = fock.prepare("coherent", fock.CutoffSpec((30,)), alpha=1.0)
    p = probability_vector(state)
    want = np.array([math.exp(-1.0) / math.factorial(n) for n in range(31)])
    assert np.max(np.abs(p - want)) < 1e-10
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_probability_vector_half_half():
    amps = np.zeros(5, dtype=complex)
    amps[1] = amps[3] = 1.0 / math.sqrt(2)
    state = fock.FockState(fock.CutoffSpec((4,)), amps)
    p = probability_vector(state)
    assert p[1] == pytest.approx(0.5, abs=1e-15)
    assert p[3] == pytest.approx(0.5, abs=1e-15)


def test_probability_vector_zero_norm():
    state = fock.FockState(fock.CutoffSpec((2,)), np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        probability_vector(state)


def test_sample_patterns_one_hot():
    state = fock.basis_state((1, 2), fock.CutoffSpec((2, 2)))
    shots = sample_patterns(state, 50, 3)
    assert all(s.pattern == (1, 2) for s in shots)
    assert [s.shot_index for s in shots] == list(range(50))


def test_sample_patterns_deterministic(rng):
    state = random_pure(rng, 5)
    a = sample_patterns(state, 200, Seed(99))
    b = sample_patterns(state, 200, 99)
    assert a == b


def test_empirical_frequencies(rng):
    state = random_pure(rng, 4)
    p = probability_vector(state)
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


def test_shot_dump_csv():
    state = fock.basis_state((1, 2), fock.CutoffSpec((2, 2)))
    shots = sample_patterns(state, 3, 0)
    text = sampling.shot_dump_csv(shots)
    lines = text.strip().splitlines()
    assert lines[0] == "shot_index,n0,n1"
    assert lines[1] == "0,1,2"
    assert len(lines) == 4


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
