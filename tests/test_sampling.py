import collections
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cvswap import fock, sampling
from cvswap.sampling import (
    ShotLaw,
    binomial,
    blocks_estimate,
    counter_uniform,
    derive_seed,
    estimator_statistics,
    law_block,
    level_law,
)

from conftest import (
    closed_pattern_count,
    component_block,
    ensemble_combinations,
    measurement_block,
    numpy_law_block,
    numpy_level_law,
    passive_measurement,
    random_pure,
    tally,
)


def test_empirical_frequencies(rng):
    state = random_pure(rng, 4)
    # every outcome its own weight level, so the counts are the outcome counts
    block = law_block(np.arange(5.0), np.abs(state.amplitudes) ** 2)
    p = np.array(block[1])
    shots = 1_000_000
    (values, counts), _ = blocks_estimate(ShotLaw([block]), shots, 7)
    assert np.array_equal(values, np.arange(5.0)) and counts.sum() == shots
    freq = counts / shots
    bound = 5.0 * np.sqrt(p * (1 - p) / shots)
    assert np.all(np.abs(freq - p) <= bound + 1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**64 - 1), st.integers(0, 30), st.integers(0, 2**64 - 1))
def test_counter_uniform_range(seed, stream, start):
    for index in range(start, min(start + 64, 2**64)):
        assert 0.0 <= counter_uniform(seed, stream, index) < 1.0


def test_counter_mixer_known_answers():
    # values of the earlier vectorised uint64 mixer, at indices around 2^32
    # and up to the top of the 64-bit range
    idx = [0, 1, 2**16, 2**32 - 1, 2**32, 2**32 + 5, 2**53, 2**64 - 1]
    want = {
        (0, 0): ["0x1.4e0dba5e9a32fp-1", "0x1.f647530ffa1bcp-2", "0x1.c14aef0f230e0p-5",
                 "0x1.33c3afc532a30p-3", "0x1.60197025a89c4p-3", "0x1.a568b1e07fe32p-1",
                 "0x1.05d90a0d4dc10p-3", "0x1.d6fadf0df8598p-1"],
        (708, 3): ["0x1.e076f6f4ae3e0p-5", "0x1.d1da0c699a622p-2", "0x1.b245f7fd5717ap-2",
                   "0x1.f4aae18747b87p-1", "0x1.3fe59d24df16ep-2", "0x1.84de8c8e9f750p-5",
                   "0x1.693c21d9c41cdp-1", "0x1.0d5acbbd1ab3fp-1"],
        (2**64 - 1, 2**40 + 7): ["0x1.2ad74f50ca4d8p-4", "0x1.efaa3f2c31d8dp-1",
                                 "0x1.f70af2ff085eep-1", "0x1.9a3f711e690a3p-1",
                                 "0x1.af650db7a6949p-1", "0x1.2ea0fa6a8288cp-1",
                                 "0x1.5a24359b588f4p-3", "0x1.53ee109582822p-2"],
    }
    for (seed, stream), hexes in want.items():
        assert [counter_uniform(seed, stream, i).hex() for i in idx] == hexes
    assert [counter_uniform(99, 1, i).hex() for i in range(3)] == [
        "0x1.1ec2bb4b09a24p-1", "0x1.2be7be704bd14p-1", "0x1.a41c7cafde57dp-1"]
    assert [derive_seed(0, 0), derive_seed(708, 1), derive_seed(2**64 - 1, 12345),
            derive_seed(-5, 2**63)] == [16294208416658607535, 8895612129273590781,
                                        2530765228333317041, 4253639109918430215]


def test_estimator_statistics_constant():
    mean, stderr = estimator_statistics([1.0], [40])
    assert mean == 1.0 and stderr == 0.0


def test_estimator_statistics_fair_signs():
    n = 40_000
    heads = sum(counter_uniform(5, 0, i) < 0.5 for i in range(n))
    mean, stderr = estimator_statistics([1.0, -1.0], [heads, n - heads])
    assert stderr == pytest.approx(1.0 / math.sqrt(n), rel=0.02)
    assert abs(mean) < 5 * stderr


def test_estimator_statistics_single_element():
    mean, stderr = estimator_statistics([0.25, 3.0], [1, 0])
    assert mean == 0.25
    assert math.isnan(stderr)


def test_level_law_and_sampling():
    dist_a = np.array([0.25, 0.75])
    dist_b = np.array([0.5, 0.5])
    block = component_block([0.4, 0.6], (dist_a, dist_b), [1.0, -1.0])
    want = 0.4 * (0.25 - 0.75) + 0.6 * (0.5 - 0.5)
    values, q = level_law([block])
    assert np.dot(values, q) == pytest.approx(want, abs=1e-15)
    (values, counts), discarded = blocks_estimate(ShotLaw([block]), 200_000, 11)
    mean, stderr = estimator_statistics(values, counts)
    assert discarded == 0 and counts.sum() == 200_000
    assert abs(mean.real - want) < 5 * stderr


def test_blocks_estimate_counts_zero_weights():
    block = law_block([1.0, 0.0], [0.5, 0.5])
    (values, counts), discarded = blocks_estimate(ShotLaw([block]), 10_000, 4)
    assert discarded == tally(values, counts)[0j]
    assert 3000 < discarded < 7000


def test_blocks_estimate_refuses_an_empty_block_list():
    # no block means no draw; all-zero counts would surface later as "no shots"
    with pytest.raises(ValueError, match="the block list is empty"):
        ShotLaw([])


def test_law_block_clamps_rounding_and_refuses_a_law_off_the_simplex():
    # rounding within LAW_TOLERANCE is clamped and renormalised
    levels, q = law_block([0.0, 1.0, -1.0], [-4e-13, 0.75 + 3e-13j, 0.25 + 2e-13])
    assert levels == [0j, 1 + 0j, -1 + 0j]
    assert q[0] == 0.0 and math.fsum(q) == pytest.approx(1.0, abs=1e-16)
    assert q[1:] == pytest.approx([0.75, 0.25], abs=1e-12)
    # a part below zero, an imaginary part or a sum off 1 beyond it is
    # refused, and so is a law that is not finite anywhere: Python's max
    # and min pass over a NaN or not depending on where it sits
    for law, off in (([-2e-12, 0.5, 0.5 + 2e-12], "2e-12"), ([0.5 + 2e-12j, 0.5], "2e-12"),
                     ([0.5, 0.5 + 2e-12], "2e-12"), ([math.nan, 1.0], "nan"),
                     ([1.0, math.nan], "nan"), ([0.5, math.nan, 0.5], "nan"),
                     ([0.5, math.inf], "inf"), ([1.5, -math.inf], "inf"),
                     ([1.0, complex(0.0, math.nan)], "nan"), ([math.inf, -math.inf], "nan")):
        with pytest.raises(ValueError, match=f"level law is off the probability simplex by {off}, "
                                             "beyond LAW_TOLERANCE = 1e-12"):
            law_block([1.0, -1.0, 0.0][:len(law)], law)


def test_measurement_block_refuses_level_indices_out_of_range():
    for index in ([2], [-1]):
        with pytest.raises(ValueError, match="level index out of range"):
            measurement_block([1.0], [1.0], [1.0, -1.0], index)


@pytest.mark.parametrize("shots", [2 ** 59, 2 ** 63 - 1, 10 ** 30])
def test_blocks_estimate_refuses_counts_numpy_cannot_size(shots):
    law = ShotLaw([law_block([1.0], [1.0])])
    with pytest.raises(fock.ResourceLimitError, match=f"{shots} shots need"):
        blocks_estimate(law, shots, 0)


def test_max_shots_pass_the_guard_without_a_draw():
    # 2^53 shots are drawn, through both binomial branches, in a few
    # binomials: the count never costs time
    law = ShotLaw([law_block([1.0, -1.0, 0.0, 2.0], [0.5, 0.3, 0.2 - 2.0**-53, 2.0**-53])])
    start = time.perf_counter()
    (_, counts), discarded = blocks_estimate(law, sampling.MAX_SHOTS, 0)
    assert time.perf_counter() - start < 1.0
    assert int(counts.sum()) == 2 ** 53 and 0 < discarded < 2 ** 53
    with pytest.raises(fock.ResourceLimitError, match=f"{2 ** 53 + 1} shots need"):
        blocks_estimate(law, sampling.MAX_SHOTS + 1, 0)


def test_measurement_block_normalises_and_checks_rows():
    amps = np.array([[3.0, 4.0j, 0.0], [0.0, 2.0, 2.0]])
    levels, q = measurement_block([0.5, 0.5], amps, [1.0, -1.0], [0, 1, 0])
    # each row's law over the levels: outcomes 0 and 2 score level 0, and
    # the rows' laws [0.36, 0.64] and [0.5, 0.5] are mixed half and half
    assert np.allclose(q, [0.43, 0.57])
    assert levels == [1 + 0j, -1 + 0j] and all(type(v) is complex for v in levels)
    with pytest.raises(ValueError, match="3 outcome amplitudes per combination, 2 level indices"):
        measurement_block([0.5, 0.5], amps, [1.0, -1.0], [0, 1])
    with pytest.raises(ValueError, match="zero-norm"):
        measurement_block([0.5, 0.5], np.array([[1.0, 0.0], [0.0, 0.0]]), [1.0, -1.0], [0, 1])


def test_passive_measurement_places_each_combination(rng):
    a = random_pure(rng, 2)
    b = fock.MixedEnsemble(((0.5, random_pure(rng, 3)), (0.5, random_pure(rng, 3))))
    combos = ensemble_combinations([a, b])
    patterns, amps = passive_measurement(combos, (2, 3), [(0, 1)], [])
    assert len(patterns) == closed_pattern_count((2, 3), [(0, 1)]) == amps.shape[1]
    inside = (patterns <= [2, 3]).all(axis=1)
    for k, (_, (sa, sb)) in enumerate(combos):
        assert np.array_equal(amps[k, inside], np.multiply.outer(sa.amplitudes, sb.amplitudes).ravel())
        assert not amps[k, ~inside].any()
    with pytest.raises(ValueError, match="desk-scale limit"):
        passive_measurement(combos, (3000, 3000), [(0, 1)], [])
    # a two-copy test at cutoff 4: 45^4 patterns of one combination would
    # fit as amplitudes alone, but not with their eight-mode pattern table
    pure = [(1.0, [a])]
    assert 45 ** 4 < fock.MAX_WORKING_ELEMENTS
    with pytest.raises(ValueError, match="desk-scale limit"):
        passive_measurement(pure, (4,) * 8, [(k, 4 + k) for k in range(4)], [])
    # cutoff 3 fits: 28^4 patterns times one amplitude and eight pattern columns
    fock.check_working_size(1 + 8, 28 ** 4)


@st.composite
def integer_level_blocks(draw):
    """A block whose outcomes score small integer weight levels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 40))
    rank = draw(st.integers(1, 2))
    levels = rng.integers(-3, 4, size=draw(st.integers(1, 4))).astype(float)
    cw = rng.random(rank) + 0.05
    dists = rng.random((rank, size)) ** 3
    dists[rng.random((rank, size)) < 0.3] = 0.0
    dists[:, 0] += 0.01
    return measurement_block(cw / cw.sum(), np.sqrt(dists), levels,
                                      rng.integers(0, levels.size, size))


def no_farther(x: float, y: float, square: Fraction) -> bool:
    """|x - sqrt(square)| <= |y - sqrt(square)| for doubles x, y >= 0,
    decided exactly: x is no farther when the midpoint of x and y lies on
    its side of the root."""
    mid = (Fraction(x) + Fraction(y)) / 2
    return x == y or (mid * mid <= square if x > y else mid * mid >= square)


@settings(deadline=None, max_examples=40)
@given(st.lists(integer_level_blocks(), min_size=1, max_size=3),
       # numpy's mean multiplies by the rounded 1/n, which near a power of
       # two rounds like a true division; 70,001 and 77,777 tell them apart
       st.sampled_from((65_535, 65_536, 65_537, 70_001, 77_777, 131_075)),
       st.integers(0, 2**64 - 1))
def test_tally_statistics_match_per_shot_weights(blocks, shots, seed):
    (values, counts), _ = blocks_estimate(ShotLaw(blocks), shots, seed)
    # the tally expanded to one weight per shot; integer weights sum
    # exactly, so the order of the shots does not matter
    weights = np.repeat(values, counts)
    mean, stderr = estimator_statistics(values, counts)
    assert np.complex128(mean).tobytes() == weights.mean().tobytes()
    # the n-1 standard error of the stored weights, and its exact square
    per_shot = math.hypot(np.std(weights.real, ddof=1) / math.sqrt(shots),
                          np.std(weights.imag, ddof=1) / math.sqrt(shots))
    real = collections.Counter(weights.real.tolist())
    mu = sum(c * Fraction(x) for x, c in real.items()) / shots
    square = sum(c * (Fraction(x) - mu) ** 2 for x, c in real.items()) / (shots * (shots - 1))
    assert no_farther(stderr, per_shot, square)


def test_tally_mean_has_the_bits_of_numpy_mean():
    # numpy's mean multiplies by the rounded 1/n, which for about a quarter
    # of these (count, sum) pairs differs from a true division in the last bit
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 100_000))
        plus = int(rng.integers(0, n + 1))
        mean, _ = estimator_statistics([1.0, -1.0], [plus, n - plus])
        weights = np.where(np.arange(n) < plus, 1.0, -1.0).astype(np.complex128)
        assert np.complex128(mean).tobytes() == weights.mean().tobytes()
    # weights with signed-zero parts: the division by the count turns a -0.0
    # part of the sum into 0.0 exactly as numpy's complex mean does
    signed = [complex(-0.0, 1.0), complex(-1.0, -0.0), complex(-0.0, -0.0), complex(0.5, -0.0)]
    for counts in ([1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 4, 0], [2, 5, 0, 0], [0, 0, 7, 7], [1, 1, 1, 1]):
        mean, _ = estimator_statistics(signed, counts)
        weights = np.repeat(np.array(signed, dtype=np.complex128), counts)
        assert np.complex128(mean).tobytes() == weights.mean().tobytes(), counts


# (n, p, branch): inversion for n p < 10, BTRD above, and p > 1/2 through
# n - Binomial(n, 1 - p) into each of them
BINOMIAL_CASES = [
    (20, 0.1, "inversion"),
    (2**40, 3e-12, "inversion-large-n"),
    (1000, 0.3, "btrd"),
    (2**40, 0.3, "btrd-large-n"),
    (60, 0.95, "flipped-inversion"),
    (2**40, 0.7, "flipped-btrd"),
]
# a sampler that draws from the right pmf fails this with probability 1e-6
CHI_SQUARE_LEVEL = 1e-6


@pytest.mark.parametrize("n, p, branch", BINOMIAL_CASES, ids=[c[2] for c in BINOMIAL_CASES])
def test_binomial_matches_the_exact_pmf(n, p, branch):
    draws = 4000
    law = stats.binom(n, p)
    # about 20 bins of equal mass, each holding its exact binomial mass
    edges = np.unique(law.ppf(np.linspace(0.0, 1.0, 21)[1:-1]).astype(np.int64))
    mass = np.diff(np.concatenate(([0.0], law.cdf(edges), [1.0])))
    x = np.array([binomial(n, p, seed, 5) for seed in range(draws)])
    assert x.min() >= 0 and x.max() <= n
    seen = np.bincount(np.searchsorted(edges, x, side="left"), minlength=mass.size)
    expected = draws * mass
    chi2 = float(((seen - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(chi2, mass.size - 1) > CHI_SQUARE_LEVEL, (branch, chi2, mass.size)


def test_binomial_edges_and_streams():
    assert [binomial(0, 0.3, 1, 0), binomial(9, 0.0, 1, 0), binomial(9, 1.0, 1, 0)] == [0, 0, 9]
    # a pure function of (n, p, seed, stream); streams are independent
    assert binomial(10**6, 0.4, 3, 2) == binomial(10**6, 0.4, 3, 2)
    assert len({binomial(10**6, 0.4, 3, stream) for stream in range(8)}) > 1


def test_stirling_tail_matches_log_factorials():
    for k in [*range(0, 40), 10**3, 10**6, 2**40]:
        with mpmath.workdps(40):
            exact = float(mpmath.loggamma(k + 1) - (k + mpmath.mpf(0.5)) * mpmath.log(k + 1)
                          + (k + 1) - mpmath.log(2 * mpmath.pi) / 2)
        # the tabled values are exact to the double; the series past them
        # drops a term below 1 / (1680 (k + 1)^7)
        assert abs(sampling._stirling_tail(k) - exact) <= (1e-17 if k < 10 else 4e-11)


def test_level_law_merges_products_of_levels():
    a = measurement_block([0.25, 0.75], np.sqrt([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]),
                                   [1.0, -1.0], [0, 1, 1])
    b = law_block([-1.0, 0.0], [0.25, 0.75])
    values, q = level_law([a, b])
    # a scores 1 with 1/8 and -1 with 7/8; b scores -1 with 1/4 and 0 with 3/4
    assert np.array_equal(values, [-1.0, 0.0, 1.0])
    assert np.allclose(q, [1 / 32, 3 / 4, 7 / 32], rtol=0, atol=1e-16)


@st.composite
def drawn_laws(draw):
    """2-12 levels from {0, 1, -1} with a law near the simplex: exact zeros,
    and parts that ``law_block`` clamps or renormalises."""
    size = draw(st.integers(2, 12))
    levels = draw(st.lists(st.sampled_from((0.0, 1.0, -1.0)), min_size=size, max_size=size))
    weights = np.array(draw(st.lists(st.sampled_from((0.0, 1.0)) | st.floats(1e-9, 1.0),
                                     min_size=size, max_size=size)))
    weights[draw(st.integers(0, size - 1))] += 0.5
    jitter = draw(st.lists(st.sampled_from((0.0, 5e-14, -5e-14)), min_size=size, max_size=size))
    return levels, (weights / weights.sum() + jitter).tolist()


@settings(deadline=None, max_examples=300)
@given(st.lists(drawn_laws(), min_size=1, max_size=3), st.integers(-1, 2))
def test_level_law_has_the_bits_of_the_numpy_merge(laws, phased):
    # block ``phased`` (if any) scores the PERM phases e^{2 pi i j / L}
    # instead.  At most one block is complex, as in every estimator's law:
    # numpy fuses the complex product's multiply and add on CPUs with FMA,
    # so a product of two phases may differ from Python's in the last bit
    blocks = []
    for b, (levels, law) in enumerate(laws):
        if b == phased:
            levels = np.exp(2j * math.pi * np.arange(len(law)) / len(law)).tolist()
        block = law_block(levels, law)
        want_levels, want_q = numpy_law_block(levels, law)
        assert np.array_equal(block[0], want_levels) and np.array_equal(block[1], want_q)
        blocks.append(block)
    values, q = level_law(blocks)
    want_values, want_q = numpy_level_law(blocks)
    assert np.array_equal(values, want_values) and np.array_equal(q, want_q)


_RUN_SIZES = st.integers(1, 20) | st.sampled_from([127, 128, 129, 256, 1000, 8191, 8192, 8193, 9000])


@settings(deadline=None, max_examples=60)
@given(n=_RUN_SIZES, kind=st.sampled_from(["random", "signed zeros", "equal", "negative zeros"]),
       seed=st.integers(0, 2**32 - 1))
def test_mean_and_spread_have_the_bits_of_numpy(n, kind, seed):
    # the grand mean and ddof-1 spread of run means, against numpy's complex
    # mean and its two real standard deviations: random means, means whose
    # parts are +-0.0 or a few repeated values, means all equal, and -0.0
    # real parts with parts <= 0 beside them, whose sum numpy turns to 0.0,
    # at run counts below 8, inside one 128-float block, and past 128 and 8,192
    rng = np.random.default_rng(seed)
    if kind == "random":
        means = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)).tolist()
    elif kind == "signed zeros":
        parts = np.array([0.0, -0.0, 0.5, -0.25])
        means = [complex(re, im) for re, im in rng.choice(parts, (n, 2))]
    elif kind == "equal":
        means = [complex(rng.uniform(-1, 1), rng.choice([-0.0, 0.0, rng.uniform(-1, 1)]))] * n
    else:
        means = [complex(-0.0, im) for im in rng.choice([-0.0, -0.5], n)]
    mean, spread = sampling.mean_and_spread(means)
    array = np.asarray(means)
    assert np.complex128(mean).tobytes() == array.mean().tobytes()
    if n == 1:
        assert math.isnan(spread)
    else:
        want = math.hypot(np.std(array.real, ddof=1), np.std(array.imag, ddof=1))
        assert np.float64(spread).tobytes() == np.float64(want).tobytes()


def test_law_sums_have_the_bits_of_numpy_sum():
    # a running sum below 8 terms, eight interleaved ones up to 128, halves beyond
    rng = np.random.default_rng(8)
    for n in range(300):
        for _ in range(4):
            xs = (rng.random(n) * 10.0 ** rng.integers(-3, 4, n)).tolist()
            assert sampling._sum(xs) == np.sum(np.array(xs, dtype=np.float64))


KNOWN_TALLIES = {
    "three": [498894, 200061, 301045],
    "three-small": [3, 2, 2],
    "two-blocks": [44706, 24633, 54118],
    "rare": [1006, 999998994],
    "three-seeds": [[498894, 200061, 301045], [499708, 200255, 300037]],
}


def test_tally_known_answers():
    # the counts of fixed (seed, shots, law) triples: a change of the
    # sampler that moves any document fails here first
    three = law_block([0.0, 1.0, -1.0], [0.2, 0.3, 0.5])
    mixed = component_block([0.3, 0.7], ([0.9, 0.1], [0.05, 0.95]), [1.0, -1.0])
    rare = law_block([1.0, 0.0], [1 - 1e-6, 1e-6])
    got = {name: blocks_estimate(ShotLaw(blocks), shots, seed)[0][1].tolist()
           for name, blocks, shots, seed in (("three", [three], 1_000_000, 708),
                                             ("three-small", [three], 7, 0),
                                             ("two-blocks", [mixed, three], 123_457, 2**64 - 1),
                                             ("rare", [rare], 10**9, 11))}
    # several runs draw from one law built once, each as its single-seed draw
    law = ShotLaw([three])
    got["three-seeds"] = [blocks_estimate(law, 1_000_000, seed)[0][1].tolist()
                          for seed in (708, 709)]
    assert got == KNOWN_TALLIES
