import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import binom

from cohsim import (
    ClickPattern,
    Outcome,
    Seed,
    check_success_condition,
    click_count_stats,
    decide,
    estimate_success_probability,
    lecam_bound_check,
    map_state,
    poisson_binomial_exact,
    two_block_trial_generator,
    uniform_state,
)
from cohsim import commx
from cohsim.commx import _concentration_term
from cohsim.mapping import ModeCoherentState


def pattern(*bits):
    return ClickPattern(np.array(bits, dtype=bool))


def test_partition_validation():
    # d0 splits d modes into S_0 = 1..d0 and S_1 = d0+1..d: any integer in 0..d.
    # Its type and sign are in test_core's refusal table.
    assert decide(pattern(1, 0, 1), 0) is Outcome.ONE
    assert decide(pattern(1, 0, 1), 3) is Outcome.ZERO
    assert decide(pattern(0, 0, 0, 0), 0) is decide(pattern(0, 0, 0, 0), 4) is Outcome.TIE
    c = ModeCoherentState(np.zeros(2, dtype=complex))
    probs = uniform_block_probs(1.0, 2, 0)
    calls = [
        lambda d0: decide(pattern(1, 0), d0),
        lambda d0: click_count_stats(c, d0),
        lambda d0: check_success_condition(0.1, 1.0, probs, d0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="d0"):
            call(3)


def test_click_count_stats_two_modes():
    # two modes in S_0 with click probability 0.1 each: mu0 = 0.2, tau0 = 0.02
    power = -math.log(0.9)  # per-mode |amp|^2 giving p = 0.1
    amps = np.sqrt([power, power, 0.0, 0.0]).astype(complex)
    c = ModeCoherentState(amps)
    stats = click_count_stats(c, 2)
    assert stats.mu0 == pytest.approx(0.2, abs=1e-12)
    assert stats.tau0 == pytest.approx(0.02, abs=1e-12)
    assert stats.mu1 == 0.0
    stats = click_count_stats(ModeCoherentState(np.zeros(4, dtype=complex)), 2)
    assert stats.mu0 == stats.mu1 == stats.tau == 0.0


def test_click_count_stats_uniform_hundred_modes():
    c = map_state(uniform_state(100), 1.0)
    stats = click_count_stats(c, 100)
    assert stats.mu0 == pytest.approx(100 * (1 - math.exp(-0.01)), abs=1e-9)


def test_poisson_binomial_by_hand():
    np.testing.assert_allclose(poisson_binomial_exact([1.0]), [0.0, 1.0])
    np.testing.assert_allclose(
        poisson_binomial_exact([0.1, 0.1]), [0.81, 0.18, 0.01], atol=1e-15
    )


def test_poisson_binomial_matches_binomial_closed_form():
    pmf = poisson_binomial_exact([0.05] * 20)
    np.testing.assert_allclose(pmf, binom.pmf(np.arange(21), 20, 0.05), atol=1e-12)


def test_poisson_binomial_input_validation():
    with pytest.raises(ValueError):
        poisson_binomial_exact([0.5, 1.2])
    with pytest.raises(ValueError):
        poisson_binomial_exact(np.full(10_001, 0.1))


def test_nan_probabilities_are_refused():
    # nan passed the range check: an all-nan pmf, and a LecamCheck with nan fields
    with pytest.raises(ValueError):
        poisson_binomial_exact([math.nan, 0.2])
    with pytest.raises(ValueError):
        lecam_bound_check([math.nan, 0.2], {0})


@given(st.lists(st.floats(0.0, 1.0) | st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(),
                max_size=20))
def test_any_poisson_binomial_is_a_pmf_or_a_value_error(probs):
    try:
        pmf = poisson_binomial_exact(probs)
    except ValueError:
        return
    assert np.all((pmf >= 0.0) & (pmf <= 1.0))
    assert abs(pmf.sum() - 1.0) < 1e-9


def _dp_poisson_binomial(probs):
    """Reference: the dynamic program, each entry pmf[k] (1 - p) + pmf[k - 1] p."""
    pmf = np.array([1.0])
    for p in probs:
        nxt = np.zeros(pmf.size + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


@given(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]), min_size=1, max_size=60))
def test_poisson_binomial_equals_the_dynamic_program_bit_for_bit(probs):
    np.testing.assert_array_equal(poisson_binomial_exact(probs), _dp_poisson_binomial(probs))


def test_poisson_binomial_equals_the_dynamic_program_at_the_cap():
    probs = Seed(31).rng().uniform(0.0, 1.0, 10_000)
    np.testing.assert_array_equal(poisson_binomial_exact(probs), _dp_poisson_binomial(probs))


# ---------------------------------------------------------------------------
# Poisson approximation bound
# ---------------------------------------------------------------------------


def test_lecam_bound_known_instance():
    check = lecam_bound_check([0.1, 0.1], {0})
    assert check.lhs == pytest.approx(abs(0.81 - math.exp(-0.2)), abs=1e-12)
    assert check.bound == pytest.approx(0.02, abs=1e-12)
    assert check.holds


def test_lecam_bound_zero_probabilities():
    check = lecam_bound_check([0.0, 0.0], {1, 2})
    assert check.lhs == 0.0
    assert check.bound == 0.0
    assert check.holds


def test_lecam_bound_event_beyond_support():
    # Poisson has mass above n, the Poisson-binomial does not
    check = lecam_bound_check([0.3, 0.3], {5, 6, 7})
    assert check.lhs > 0.0
    assert check.holds


@pytest.mark.parametrize("event", [[0.1, 0.2], [0.5, 1.7], [True], {np.float64(1.0)}, ["1"]])
def test_lecam_bound_refuses_non_integer_event_members(event):
    # int() once truncated these onto {0, 1} and evaluated the bound there.
    with pytest.raises(TypeError, match="event"):
        lecam_bound_check([0.1, 0.2], event)


def test_lecam_bound_refuses_negative_event_members():
    with pytest.raises(ValueError, match="event"):
        lecam_bound_check([0.1, 0.2], {0, -1})
    # NumPy integers are integers
    assert lecam_bound_check([0.1, 0.2], {np.int64(1)}) == lecam_bound_check([0.1, 0.2], {1})


# ---------------------------------------------------------------------------
# bounded-error success condition
# ---------------------------------------------------------------------------


def uniform_block_probs(p_s, d0, d1):
    probs = np.empty(d0 + d1)
    probs[:d0] = p_s / d0
    if d1:
        probs[d0:] = (1.0 - p_s) / d1
    return probs


def test_condition_fails_without_photons():
    probs = uniform_block_probs(0.9, 10, 10)
    report = check_success_condition(0.1, 0.0, probs, 10)
    assert report.lhs >= 2.0
    assert not report.holds


def test_condition_holds_for_small_probabilities_large_mu():
    probs = uniform_block_probs(0.95, 20_000, 20_000)
    report = check_success_condition(0.2, 60.0, probs, 20_000)
    assert report.holds
    assert report.stats.mu0 <= 0.95 * 60.0
    assert report.stats.mu1 <= 0.05 * 60.0


def test_condition_degenerate_empty_set_uses_unit_factor():
    # empty S_1: mu1 = 0 and min(1, 1/mu1) resolves to 1
    probs = uniform_block_probs(1.0, 100, 0)
    report = check_success_condition(0.4, 1.0, probs, 100)
    tau = report.stats.tau
    assert report.lhs == pytest.approx(
        2 * math.exp(-1.0) * math.sqrt(2 * math.e) + tau, rel=1e-12
    )


def _sixty_digit_concentration_term(p_s, mu):
    """2 e^{-p_s mu} (2 e p_s)^{mu/2} from its log, to 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p, m = decimal.Decimal(p_s), decimal.Decimal(mu)
        return float((decimal.Decimal(2).ln() - p * m + m / 2 * ((2 * p).ln() + 1)).exp())


# ln 2 - p_s mu + (mu/2)(ln 2 p_s + 1) cancels near p_s = 1/2: at mu = 1e9 it
# was off by 1.4e-8 relative at p_s = 0.5001 (the reference is 9.092098857011577e-05)
# and by 7.3e-8 at p_s = 0.500001.  The mean p_s mu lies above mu/2, so the term
# bounds the lower tail; the upper-tail exponent would give 9.1042e-05 at 0.5001.
@pytest.mark.parametrize(
    "p_s, mu",
    [(0.5001, 1e9), (0.500001, 1e9), (0.5 + 2**-40, 1e12), (0.75, 2.0), (0.9, 50.0),
     (0.95, 60.0), (1.0, 1.0), (1.0, 40.0), (0.9, 0.0)],
)
def test_concentration_term_matches_a_sixty_digit_evaluation(p_s, mu):
    expected = _sixty_digit_concentration_term(p_s, mu)
    assert _concentration_term(p_s, mu) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_condition_validates_inputs():
    probs = uniform_block_probs(0.9, 10, 10)
    with pytest.raises(ValueError, match="p_s"):
        check_success_condition(0.1, 1.0, uniform_block_probs(0.4, 10, 10), 10)  # S_0 mass 0.4
    with pytest.raises(ValueError, match="p_s"):
        check_success_condition(0.1, 1.0, probs, 5)  # S_0 mass 0.45
    with pytest.raises(ValueError):
        check_success_condition(0.6, 1.0, probs, 10)  # epsilon too large
    with pytest.raises(ValueError, match="mu"):
        check_success_condition(0.1, -1.0, probs, 10)
    for bad in (probs * 0.5, np.full(20, math.nan), -probs):
        with pytest.raises(ValueError, match="probs_qubit"):
            check_success_condition(0.1, 1.0, bad, 10)


def test_condition_takes_p_s_as_the_s0_mass_capped_at_one():
    # 40,000 terms of 1/40,000 sum to 1.0000000000000002
    d = 40_000
    probs = uniform_block_probs(1.0, d, 0)
    assert probs.sum() > 1.0
    report = check_success_condition(0.1, 40.0, probs, d)
    assert report.p_s == 1.0
    assert check_success_condition(0.2, 60.0, uniform_block_probs(0.95, 100, 100), 100).p_s == (
        pytest.approx(0.95, abs=1e-12)
    )


def test_condition_report_derives_its_verdict_from_lhs():
    report = check_success_condition(0.2, 60.0, uniform_block_probs(0.95, 100, 100), 100)
    for lhs in (0.1, 0.2, 0.3):
        derived = dataclasses.replace(report, lhs=lhs)
        assert derived.holds == (lhs <= 0.2)
        assert derived.p_alpha_lower_bound == 1.0 - lhs


def test_condition_evaluates_single_set_instance():
    # everything on S_0, uniform over 1e4 modes at mu = 16: the report is a
    # direct evaluation, and the expected clicks stay below the photon budget
    d = 10_000
    probs = uniform_block_probs(1.0, d, 0)
    report = check_success_condition(0.1, 16.0, probs, d)
    assert report.stats.mu0 < 16.0
    assert report.stats.mu1 == 0.0
    expected_tau = d * (-math.expm1(-16.0 / d)) ** 2
    assert report.stats.tau == pytest.approx(expected_tau, rel=1e-12)
    assert report.lhs + report.p_alpha_lower_bound == pytest.approx(1.0, abs=1e-12)


def exact_win_probability(pmf0, pmf1):
    """P(C_0 > C_1) for independent counts with the given pmfs."""
    cdf1 = np.cumsum(pmf1)
    total = 0.0
    for a in range(1, pmf0.size):
        total += pmf0[a] * cdf1[min(a - 1, pmf1.size - 1)]
    return total


def test_win_probability_dominates_threshold_product():
    # P(C_0 > C_1) >= P(C_0 > mu/2) P(C_1 < mu/2) on exact small instances
    rng = Seed(84).rng()
    for _ in range(20):
        d0 = int(rng.integers(1, 12))
        d1 = int(rng.integers(1, 12))
        raw = rng.uniform(0.01, 1.0, d0 + d1)
        qubit_probs = raw / raw.sum()
        mu = float(rng.uniform(0.5, 8.0))
        click = -np.expm1(-mu * qubit_probs)
        pmf0 = poisson_binomial_exact(click[:d0])
        pmf1 = poisson_binomial_exact(click[d0:])
        win = exact_win_probability(pmf0, pmf1)
        half = mu / 2.0
        p0_above = sum(p for k, p in enumerate(pmf0) if k > half)
        p1_below = sum(p for k, p in enumerate(pmf1) if k < half)
        assert win >= p0_above * p1_below - 1e-12


def test_holding_instance_exact_success_exceeds_lower_bound():
    # uniform blocks make the counts Binomial, so the success probability of
    # the decision rule is computable exactly and must beat 1 - lhs
    p_s, eps, mu, d0, d1 = 0.95, 0.2, 60.0, 20_000, 20_000
    probs = uniform_block_probs(p_s, d0, d1)
    report = check_success_condition(eps, mu, probs, d0)
    assert report.holds
    p0 = -math.expm1(-mu * p_s / d0)
    p1 = -math.expm1(-mu * (1 - p_s) / d1)
    ks = np.arange(0, 200)
    pmf1 = binom.pmf(ks, d1, p1)
    win = float(np.sum(pmf1 * binom.sf(ks, d0, p0)))
    assert win >= report.p_alpha_lower_bound
    assert win >= 1.0 - eps


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


def constant_counts(c0, c1):
    """A sampler whose every trial has the click counts (c0, c1)."""
    return lambda rng, size: np.tile(np.array([c0, c1], dtype=np.int64), (size, 1))


def test_mc_counts_sure_successes_and_ties_as_failures():
    assert estimate_success_probability(constant_counts(2, 0), 500, Seed(85)).p_hat == 1.0
    est = estimate_success_probability(constant_counts(0, 0), 500, Seed(86))
    assert est.p_hat == 0.0
    assert est.ties == 500


def test_mc_conclusive_rate_generator():
    # a zero-error protocol that is conclusive with probability 1 - e^{-3}
    p_conclusive = -math.expm1(-3.0)

    def sampler(rng, size):
        counts = np.zeros((size, 2), dtype=np.int64)
        counts[:, 0] = rng.random(size) < p_conclusive
        return counts

    trials = 20_000
    est = estimate_success_probability(sampler, trials, Seed(88))
    sigma = math.sqrt(p_conclusive * (1 - p_conclusive) / trials)
    assert abs(est.p_hat - p_conclusive) < 3 * sigma


def test_mc_draws_every_trial_from_one_generator(monkeypatch):
    seen = []
    rng = Seed.rng
    monkeypatch.setattr(Seed, "rng", lambda self: seen.append(self) or rng(self))
    sample = constant_counts(2, 0)

    def sampler(rng, size):
        seen.append(rng)
        return sample(rng, size)

    estimate_success_probability(sampler, 100, Seed(91))
    # 100 trials fit one block: one Seed.rng call, then one sampler call
    assert seen[0] == Seed(91)
    assert len(seen) == 2 and isinstance(seen[1], np.random.Generator)


def test_mc_makes_one_generator_per_estimate_at_any_block_size(monkeypatch):
    calls = []
    rng = Seed.rng
    monkeypatch.setattr(Seed, "rng", lambda self: calls.append(self) or rng(self))
    sampler = two_block_trial_generator(5, 0.3, 5, 0.2)
    for block in (1, 7, 1 << 16):
        monkeypatch.setattr(commx, "_BLOCK_TRIALS", block)
        calls.clear()
        estimate_success_probability(sampler, 100, Seed(92))
        assert calls == [Seed(92)]


@pytest.mark.parametrize(
    "sampler",
    [
        lambda rng, size: np.zeros((size, 3), dtype=np.int64),
        lambda rng, size: np.zeros(2 * size, dtype=np.int64),
        lambda rng, size: np.zeros((size + 1, 2), dtype=np.int64),
        lambda rng, size: np.zeros((size, 2)),
        constant_counts(-1, 0),
        constant_counts(3, -2),
    ],
    ids=["three-columns", "flat", "extra-row", "float", "negative-c0", "negative-c1"],
)
def test_mc_rejects_malformed_sampler_output(sampler):
    with pytest.raises(ValueError, match="sampler"):
        estimate_success_probability(sampler, 10, Seed(89))


def test_mc_estimate_does_not_depend_on_the_block_size(monkeypatch):
    sampler = two_block_trial_generator(50, 0.2, 60, 0.15)
    trials = 5_000
    reference = estimate_success_probability(sampler, trials, Seed(93))
    for block in (1, 7, trials + 1):
        monkeypatch.setattr(commx, "_BLOCK_TRIALS", block)
        assert estimate_success_probability(sampler, trials, Seed(93)) == reference


def test_two_block_sampler_rows_do_not_depend_on_the_split():
    sampler = two_block_trial_generator(50, 0.2, 60, 0.15)
    whole = sampler(Seed(94).rng(), 1_000)
    rng = Seed(94).rng()
    pieces = np.concatenate([sampler(rng, size) for size in (1, 2, 3, 64, 930)])
    np.testing.assert_array_equal(pieces, whole)


def test_mc_matches_exact_win_and_tie_probabilities():
    # the counts are Binomial(50, 0.2) and Binomial(60, 0.15): P(C0 > C1)
    # and P(C0 = C1) are exact sums over the pmf of C1
    d0, p0, d1, p1 = 50, 0.2, 60, 0.15
    ks = np.arange(d1 + 1)
    pmf1 = binom.pmf(ks, d1, p1)
    win = float(np.sum(pmf1 * binom.sf(ks, d0, p0)))
    tie = float(np.sum(pmf1 * binom.pmf(ks, d0, p0)))
    trials = 200_000
    est = estimate_success_probability(
        two_block_trial_generator(d0, p0, d1, p1), trials, Seed(95)
    )
    for observed, exact in ((est.p_hat, win), (est.ties / trials, tie)):
        assert abs(observed - exact) < 5 * math.sqrt(exact * (1 - exact) / trials)


def test_two_block_generator_count_distribution():
    gen = two_block_trial_generator(50, 0.2, 30, 0.1)
    trials = 20_000
    counts = gen(Seed(90).rng(), trials)
    assert counts.shape == (trials, 2)
    c0_sum, c1_sum = counts.sum(axis=0)
    assert abs(c0_sum / trials - 10.0) < 3 * math.sqrt(50 * 0.2 * 0.8 / trials)
    assert abs(c1_sum / trials - 3.0) < 3 * math.sqrt(30 * 0.1 * 0.9 / trials)


def test_decide_agrees_with_the_estimator_success_event():
    # decide's ZERO on a pattern with counts (c0, c1) is the estimator's success,
    # and every outcome is valued sign(c0 - c1), the estimator's own comparison:
    # the all-dark pattern is a TIE, a majority in S_0 is ZERO and one in S_1 ONE
    for c0 in range(4):
        for c1 in range(4):
            bits = [1] * c0 + [0] * (3 - c0) + [1] * c1 + [0] * (3 - c1)
            assert decide(pattern(*bits), 3) is Outcome(int(np.sign(c0 - c1)))
            assert decide(pattern(*bits), 3).value == commx._compare(c0, c1)
            est = estimate_success_probability(constant_counts(c0, c1), 1, Seed(96))
            assert (decide(pattern(*bits), 3) is Outcome.ZERO) == (est.successes == 1)
            assert (decide(pattern(*bits), 3) is Outcome.TIE) == (est.ties == 1)
