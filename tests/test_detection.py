import math

import numpy as np
import pytest
from scipy.stats import multinomial, poisson

from cohsim import (
    ClickPattern,
    ModeCoherentState,
    Seed,
    basis_state,
    click_probabilities,
    map_state,
    normalized,
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
    # the exact law is the product of per-mode Poissons, from scipy; the
    # uneven state fails a sampler that ignores the state's Born weights
    mu = 2.0
    trials = 300_000
    for psi in (uniform_state(4), normalized([2.0, 1.0, 1.0, 1.0j])):
        c = map_state(psi, math.sqrt(mu))
        emp_direct = empirical_distribution(sample_photon_numbers(c, Seed(75).rng(), trials))
        emp_poissonized = empirical_distribution(
            poissonized_repetition_oracle(psi, mu, Seed(76).rng(), trials)
        )

        for emp in (emp_direct, emp_poissonized):
            support = set(emp)
            exact = {rec: float(np.prod(poisson.pmf(rec, c.per_mode_mean_photons))) for rec in support}
            tv = 0.5 * sum(abs(emp[rec] - exact[rec]) for rec in support)
            tv += 0.5 * (1.0 - sum(exact.values()))  # mass outside the observed support
            assert tv < 0.01


# The marginal and conditional laws of both samplers, each against scipy.  The
# uneven states fail a sampler that ignores the Born weights; the basis state
# has empty modes, which must never count a photon.
LAW_STATES = {
    "uniform-2": uniform_state(2),
    "uniform-4": uniform_state(4),
    "uneven-4": normalized([2.0, 1.0, 1.0, 1.0j]),
    "uneven-3": normalized([1.0, 2.0, 2.0]),
    "signed-2": normalized([1.0, -2.0]),
    "basis-3": basis_state(3, 2),
}
SAMPLERS = {
    "direct": lambda psi, mu, rng, trials: sample_photon_numbers(map_state(psi, math.sqrt(mu)), rng, trials),
    "poissonized": poissonized_repetition_oracle,
}
LAW_MU = 2.0
LAW_TRIALS = 100_000
# An empirical law over K outcomes from m draws sits about sqrt(K / (2 pi m)) in
# total variation from the exact one; each bound is several times that.
_law_cases = pytest.mark.parametrize(
    "sampler, state", [(s, k) for s in SAMPLERS for k in LAW_STATES])


def _draw(sampler, state, seed):
    psi = LAW_STATES[state]
    return psi, SAMPLERS[sampler](psi, LAW_MU, Seed(seed).child(sampler, state).rng(), LAW_TRIALS)


def _tv(empirical, exact):
    """Total variation between laws on the same outcomes, the exact law's unseen mass counted whole."""
    return 0.5 * float(np.abs(empirical - exact).sum() + (1.0 - exact.sum()))


@_law_cases
def test_each_mode_counts_poisson_of_its_own_mean(sampler, state):
    psi, counts = _draw(sampler, state, 90)
    means = LAW_MU * np.abs(psi.amplitudes) ** 2
    assert counts.shape == (LAW_TRIALS, psi.dim) and counts.dtype == np.int64
    assert not counts[:, means == 0.0].any()
    for k in range(psi.dim):
        empirical = np.bincount(counts[:, k]) / LAW_TRIALS
        assert _tv(empirical, poisson.pmf(np.arange(empirical.size), means[k])) < 0.01


@_law_cases
def test_the_total_count_is_poisson_of_mu(sampler, state):
    _, counts = _draw(sampler, state, 91)
    empirical = np.bincount(counts.sum(axis=1)) / LAW_TRIALS
    assert _tv(empirical, poisson.pmf(np.arange(empirical.size), LAW_MU)) < 0.01


@_law_cases
def test_given_n_photons_the_record_is_multinomial_in_the_born_weights(sampler, state):
    # at n = 1 this is the single-photon Born rule
    psi, counts = _draw(sampler, state, 92)
    born = np.abs(psi.amplitudes) ** 2
    totals = counts.sum(axis=1)
    for n in (1, 2, 3):
        emp = empirical_distribution(counts[totals == n])
        records = np.array(list(emp))
        exact = multinomial.pmf(records, n, born)
        assert _tv(np.array(list(emp.values())), exact) < 0.03


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
