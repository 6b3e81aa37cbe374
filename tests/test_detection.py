import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import poisson

from cohsim import (
    ClickPattern,
    ModeCoherentState,
    Seed,
    basis_state,
    click_probabilities,
    map_state,
    multinomial_oracle,
    normalized,
    photon_count_probability,
    poissonized_repetition_oracle,
    random_state,
    sample_click_pattern,
    sample_photon_numbers,
    uniform_state,
)


def test_click_probability_of_vacuum_and_unit_mean():
    probs = click_probabilities(map_state(basis_state(3, 2), 1.0))
    assert probs[0] == probs[2] == 0.0
    assert probs[1] == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_click_probability_small_amplitude_approximation():
    # for tiny per-mode power the click probability is the power itself
    c = map_state(basis_state(1, 1), 0.1)  # |amp|^2 = 0.01
    p = click_probabilities(c)[0]
    assert abs(p - 0.01) / 0.01 < 0.01


def test_sample_click_pattern_at_vacuum_and_a_bright_mode():
    c = ModeCoherentState(np.zeros(5, dtype=complex))
    rng = Seed(60).rng()
    for _ in range(20):
        assert not sample_click_pattern(c, rng).any_click
    c = ModeCoherentState([math.sqrt(50.0)])
    rng = Seed(61).rng()
    hits = sum(sample_click_pattern(c, rng).clicks[0] for _ in range(10_000))
    assert hits / 10_000 > 0.999


def test_sample_click_pattern_rates_match_probabilities():
    c = map_state(uniform_state(4), 1.0)
    expected = 1 - math.exp(-0.25)
    trials = 100_000
    counts = np.zeros(4)
    rng = Seed(62).rng()
    for _ in range(trials):
        counts += sample_click_pattern(c, rng).clicks
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert np.all(np.abs(counts / trials - expected) < 3 * sigma + 1e-12)


def test_sampling_is_deterministic_per_seed():
    c = map_state(random_state(6, Seed(63).rng()), 1.4)
    a = sample_click_pattern(c, Seed(64).child(7).rng())
    b = sample_click_pattern(c, Seed(64).child(7).rng())
    np.testing.assert_array_equal(a.clicks, b.clicks)
    ra = sample_photon_numbers(c, Seed(65).child(7).rng(), 1)
    rb = sample_photon_numbers(c, Seed(65).child(7).rng(), 1)
    np.testing.assert_array_equal(ra, rb)


def test_sample_photon_numbers_vacuum():
    c = ModeCoherentState(np.zeros(3, dtype=complex))
    counts = sample_photon_numbers(c, Seed(66).rng(), 1)
    np.testing.assert_array_equal(counts, [[0, 0, 0]])


def test_sample_photon_numbers_total_mean():
    # the total is Poisson(|alpha|^2) regardless of the state
    c = map_state(random_state(5, Seed(67).rng()), 1.0)
    trials = 100_000
    rng = Seed(68).rng()
    total = sample_photon_numbers(c, rng, trials).sum()
    sigma = math.sqrt(1.0 / trials)
    assert abs(total / trials - 1.0) < 3 * sigma


def test_sample_photon_numbers_per_mode_means():
    c = map_state(uniform_state(2), math.sqrt(2.0))  # per-mode mean 1
    trials = 40_000
    rng = Seed(69).rng()
    sums = sample_photon_numbers(c, rng, trials).sum(axis=0)
    sigma = math.sqrt(1.0 / trials)
    assert np.all(np.abs(sums / trials - 1.0) < 4 * sigma)


@pytest.mark.parametrize("trials", [1, 7, 1000])
def test_batched_photon_numbers_repeat_the_one_row_stream(trials):
    # the loop the batch replaced stays here as its reference, row for row
    c = map_state(random_state(4, Seed(80).rng()), 1.3)
    batch = sample_photon_numbers(c, Seed(81).rng(), trials)
    rng = Seed(81).rng()
    rows = np.concatenate([sample_photon_numbers(c, rng, 1) for _ in range(trials)])
    assert batch.shape == (trials, 4) and batch.dtype == np.int64
    np.testing.assert_array_equal(batch, rows)


def test_click_pattern_counts_its_clicks():
    p = ClickPattern(np.array([True, False, True]))
    assert p.total_clicks == 2 and p.any_click


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------


def test_multinomial_oracle_by_hand():
    assert multinomial_oracle(uniform_state(3), 0) == {(0, 0, 0): 1.0}
    assert multinomial_oracle(uniform_state(2), 2) == pytest.approx({(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25})
    dist = multinomial_oracle(basis_state(3, 2), 4)
    assert dist[(0, 4, 0)] == 1.0
    assert sum(dist.values()) == 1.0


def test_multinomial_oracle_single_photon_born_rule():
    psi = normalized([1.0, 2.0, 2.0])
    dist = multinomial_oracle(psi, 1)
    probs = np.abs(psi.amplitudes) ** 2
    for k in range(3):
        record = tuple(1 if i == k else 0 for i in range(3))
        assert dist[record] == pytest.approx(probs[k], abs=1e-15)


def test_multinomial_oracle_normalization():
    rng = Seed(70).rng()
    for _ in range(5):
        d = int(rng.integers(2, 9))
        psi = random_state(d, rng)
        for n in (2, 5, 8):
            dist = multinomial_oracle(psi, n)
            assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_multinomial_oracle_large_n_matches_the_binomial_pmf():
    # An exact n! coefficient times a float overflowed here; the log-space
    # record probability must match C(n, k) / 2^n wherever that is a normal float.
    n = 2000
    dist = multinomial_oracle(normalized([1.0, 1.0]), n)
    assert len(dist) == n + 1
    for k in range(n + 1):
        exact = float(Fraction(math.comb(n, k), 2**n))
        if exact >= sys.float_info.min:
            assert math.isclose(dist[(k, n - k)], exact, rel_tol=1e-9)
        else:
            assert dist[(k, n - k)] < 2 * sys.float_info.min
    assert sum(dist.values()) == pytest.approx(1.0, rel=1e-9)


def test_multinomial_oracle_cap():
    with pytest.raises(ValueError):
        multinomial_oracle(uniform_state(64), 32)


def test_photon_count_probability_consistency():
    c = map_state(normalized([1.0, 1.0j, -1.0]), 1.2)
    means = c.per_mode_mean_photons
    # independent expression straight from the Poisson pmf product
    rec = (2, 0, 1)
    direct = np.prod([poisson.pmf(n, m) for n, m in zip(rec, means)])
    assert photon_count_probability(c, rec) == pytest.approx(float(direct), rel=1e-12)
    zero_mode = map_state(basis_state(2, 1), 1.0)
    assert photon_count_probability(zero_mode, (0, 1)) == 0.0


@pytest.mark.parametrize("record", [(1.5, 0), (1, math.nan), (math.inf, 0), (-1, 2), (1, 2, 3)])
def test_photon_count_probability_refuses_a_record_that_is_not_counts(record):
    # (1.5, 0) was truncated to (1, 0) and priced as P(1, 0) = 0.1839
    with pytest.raises(ValueError):
        photon_count_probability(map_state(uniform_state(2), 1.0), record)


# ---------------------------------------------------------------------------
# equivalence with Poisson-many repetitions of the single-photon protocol
# ---------------------------------------------------------------------------


def test_poissonized_oracle_zero_mean():
    counts = poissonized_repetition_oracle(uniform_state(4), 0.0, Seed(73).rng(), 1)
    np.testing.assert_array_equal(counts, [[0, 0, 0, 0]])


def test_poissonized_oracle_single_mode_total_mean():
    trials = 20_000
    mu = 2.5
    rng = Seed(74).rng()
    total = poissonized_repetition_oracle(basis_state(1, 1), mu, rng, trials).sum()
    sigma = math.sqrt(mu / trials)
    assert abs(total / trials - mu) < 3 * sigma


def empirical_distribution(counts):
    """{record: observed frequency} over the rows of a (trials, d) count array."""
    # one integer key per row: np.unique(axis=0) sorts rows as structs, 35x slower
    shape = tuple(counts.max(axis=0) + 1)
    keys, hits = np.unique(np.ravel_multi_index(counts.T, shape), return_counts=True)
    records = np.column_stack(np.unravel_index(keys, shape))
    return {tuple(r): h / len(counts) for r, h in zip(records.tolist(), hits.tolist())}


def test_both_samplers_match_the_exact_law_in_total_variation():
    psi = uniform_state(4)
    mu = 2.0
    c = map_state(psi, math.sqrt(mu))
    trials = 300_000

    emp_direct = empirical_distribution(sample_photon_numbers(c, Seed(75).rng(), trials))
    emp_poissonized = empirical_distribution(
        poissonized_repetition_oracle(psi, mu, Seed(76).rng(), trials)
    )

    for emp in (emp_direct, emp_poissonized):
        support = set(emp)
        exact = {rec: photon_count_probability(c, rec) for rec in support}
        tv = 0.5 * sum(abs(emp[rec] - exact[rec]) for rec in support)
        tv += 0.5 * (1.0 - sum(exact.values()))  # mass outside the observed support
        assert tv < 0.01


# ---------------------------------------------------------------------------
# threshold clicks versus photon counts
# ---------------------------------------------------------------------------


def test_click_probability_matches_count_marginal_via_mixture():
    # marginal P(count_k = 0) computed through the repetition mixture:
    # sum_n Poisson(n; mu) (1 - p_k)^n = exp(-mu p_k)
    psi = normalized([2.0, 1.0, 1.0j])
    mu = 1.7
    c = map_state(psi, math.sqrt(mu))
    probs = np.abs(psi.amplitudes) ** 2
    direct = click_probabilities(c)
    for k in range(3):
        mixture_no_photon = sum(
            float(poisson.pmf(n, mu)) * (1.0 - probs[k]) ** n for n in range(200)
        )
        assert abs((1.0 - mixture_no_photon) - direct[k]) < 1e-10


def test_thresholded_counts_reproduce_click_statistics():
    c = map_state(normalized([1.0, -2.0]), 1.1)
    probs = click_probabilities(c)
    trials = 30_000
    rng = Seed(77).rng()
    rates = (sample_photon_numbers(c, rng, trials) >= 1).sum(axis=0)
    sigma = np.sqrt(probs * (1 - probs) / trials)
    assert np.all(np.abs(rates / trials - probs) < 4 * sigma)
