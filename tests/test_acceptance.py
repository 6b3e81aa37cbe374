"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every expected value is either trivial, taken from an
independent reference (scipy.stats's exact laws, or a small brute force
coded in the tests), or cross-checked analytically in the module test suites.
"""

import itertools
import math

import numpy as np
from scipy.stats import multinomial, poisson

from cohsim import (
    Matching,
    QdsConfig,
    Seed,
    bob_unitary,
    check_success_condition,
    effective_dimension_bound,
    estimate_success_probability,
    lecam_bound_check,
    map_state,
    output_port_labels,
    overlap_coherent,
    phase_encoded_state,
    poisson_binomial_exact,
    poisson_tail_bound,
    random_state,
    run_experiment,
    run_qds,
    solve_alpha_for_overlap,
    two_block_trial_generator,
)
from test_hidden_matching import all_matchings


def report(criterion: int, message: str) -> None:
    print(f"[PASS] criterion {criterion}: {message}")


# ---------------------------------------------------------------------------
# 1. overlap law
# ---------------------------------------------------------------------------


def test_criterion_1_overlap_law():
    def product_overlap(psi, phi, alpha):
        out = 1.0 + 0.0j
        for lam, nu in zip(psi.amplitudes, phi.amplitudes):
            beta, gamma = alpha * lam, alpha * nu
            out *= np.exp(
                -(abs(beta) ** 2 + abs(gamma) ** 2 - 2 * np.conj(beta) * gamma) / 2
            )
        return out

    worst = 0.0
    rng = Seed(1000).rng()
    for _ in range(200):
        d = int(rng.integers(2, 65))
        psi = random_state(d, rng)
        phi = random_state(d, rng)
        delta = complex(np.vdot(psi.amplitudes, phi.amplitudes))
        for mu in (0.25, 1.0, 4.0, 10.0):
            alpha = math.sqrt(mu)
            gap = abs(overlap_coherent(delta, alpha) - product_overlap(psi, phi, alpha))
            worst = max(worst, gap)
            assert gap < 1e-9
    report(1, f"overlap law holds on 200 random pairs, worst gap {worst:.2e} < 1e-9")


# ---------------------------------------------------------------------------
# 2. overlap regimes and inversion
# ---------------------------------------------------------------------------


def test_criterion_2_overlap_regimes_and_round_trip():
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    for delta in grid:
        assert overlap_coherent(delta, math.sqrt(0.25)).real > delta
        assert overlap_coherent(delta, 2.0).real < delta
    worst = 0.0
    for delta in grid:
        for target in grid:
            mu = solve_alpha_for_overlap(delta, target)
            gap = abs(overlap_coherent(delta, math.sqrt(mu)).real - target)
            worst = max(worst, gap)
            assert gap < 1e-12
    report(2, f"ordering regimes hold on the grid; round-trip worst gap {worst:.2e} < 1e-12")


# ---------------------------------------------------------------------------
# 3. photon-statistics equivalence
# ---------------------------------------------------------------------------


def records_up_to(d, total):
    if d == 1:
        for n in range(total + 1):
            yield (n,)
        return
    for first in range(total + 1):
        for rest in records_up_to(d - 1, total - first):
            yield (first,) + rest


def test_criterion_3_photon_statistics_equivalence():
    checked = 0
    worst = 0.0
    rng = Seed(1010).rng()
    for d in (1, 2, 3, 4, 6):
        psi = random_state(d, rng)
        for mu in (0.5, 1.5, 3.0):
            c = map_state(psi, math.sqrt(mu))
            born = np.abs(psi.amplitudes) ** 2
            for record in records_up_to(d, 8):
                n = sum(record)
                product_side = float(np.prod(poisson.pmf(record, c.per_mode_mean_photons)))
                mixture_side = float(poisson.pmf(n, mu) * multinomial.pmf(record, n, born))
                gap = abs(product_side - mixture_side)
                worst = max(worst, gap)
                assert gap < 1e-10
                checked += 1
    report(3, f"product-Poisson equals the repetition mixture on {checked} records, worst gap {worst:.2e} < 1e-10")


# ---------------------------------------------------------------------------
# 4. Poisson approximation (Le Cam) bound
# ---------------------------------------------------------------------------


def test_criterion_4_poisson_approximation_bound():
    rng = Seed(1020).rng()
    holds = 0
    for k in range(500):
        n = int(rng.integers(1, 51))
        probs = rng.uniform(0.0, 0.3, n)
        if k % 2 == 0:
            event = set(np.flatnonzero(rng.random(n + 1) < 0.5).tolist())
        else:
            # adversarial event: all points where the exact pmfs disagree upward
            pmf = poisson_binomial_exact(probs)
            mu = probs.sum()
            event = {j for j in range(n + 1) if pmf[j] > poisson.pmf(j, mu)}
        check = lecam_bound_check(probs, event)
        assert check.holds
        holds += 1
    assert holds == 500
    report(4, "Poisson-approximation bound held in 500/500 exact instances")


# ---------------------------------------------------------------------------
# 5. bounded-error success condition soundness
# ---------------------------------------------------------------------------


def uniform_block_probs(p_s, d0, d1):
    probs = np.empty(d0 + d1)
    probs[:d0] = p_s / d0
    if d1:
        probs[d0:] = (1.0 - p_s) / d1
    return probs


CONDITION_INSTANCES = [
    # (p_s, epsilon, mu, d0, d1)
    (0.95, 0.2, 60.0, 20_000, 20_000),
    (0.90, 0.25, 50.0, 10_000, 10_000),
    (1.00, 0.1, 40.0, 40_000, 0),
    (0.75, 0.1, 2.0, 50, 50),
    (0.90, 0.1, 9.0, 500, 500),
]


def test_criterion_5_success_condition_soundness():
    holding = 0
    for i, (p_s, eps, mu, d0, d1) in enumerate(CONDITION_INSTANCES):
        probs = uniform_block_probs(p_s, d0, d1)
        rep = check_success_condition(eps, mu, probs, d0)
        assert rep.stats.mu0 <= p_s * mu + 1e-12
        assert rep.stats.mu1 <= (1.0 - p_s) * mu + 1e-12
        if not rep.holds:
            continue
        holding += 1
        click = -np.expm1(-mu * probs)
        sampler = two_block_trial_generator(
            d0, float(click[0]), d1, float(click[-1]) if d1 else 0.0
        )
        mc = estimate_success_probability(sampler, 100_000, Seed(1030).child(i))
        assert mc.ci95_high >= 1.0 - rep.lhs
    assert holding >= 3

    # photon-budget inequalities on arbitrary random instances
    rng = Seed(1031).rng()
    for _ in range(30):
        d0 = int(rng.integers(1, 100))
        d1 = int(rng.integers(1, 100))
        raw = rng.uniform(0.001, 1.0, d0 + d1)
        probs = raw / raw.sum()
        mass0 = float(probs[:d0].sum())
        if mass0 <= 0.5:
            probs = probs[::-1].copy()
            d0, d1 = d1, d0
            mass0 = float(probs[:d0].sum())
        mu = float(rng.uniform(0.01, 30.0))
        rep = check_success_condition(0.25, mu, probs, d0)
        assert rep.stats.mu0 <= mass0 * mu + 1e-12
        assert rep.stats.mu1 <= (1.0 - mass0) * mu + 1e-12
    report(5, f"{holding} holding instances reach 1 - lhs within the Wilson 95% interval at 1e5 trials; photon-budget inequalities held in all instances")


# ---------------------------------------------------------------------------
# 6. hidden matching
# ---------------------------------------------------------------------------


def test_criterion_6_hidden_matching():
    # exhaustive: every port that can click announces the true parity
    combos = 0
    alpha = math.sqrt(2.0)
    for n in (2, 4, 6, 8):
        for m_pairs in all_matchings(tuple(range(1, n + 1))):
            m = Matching(m_pairs)
            u = bob_unitary(m).matrix
            labels = output_port_labels(m)
            for bits in itertools.product((0, 1), repeat=n):
                x = "".join(map(str, bits))
                out = u @ phase_encoded_state(x, alpha).mode_amplitudes
                for port in np.flatnonzero(np.abs(out) > 1e-12):
                    pair, parity = labels[port]
                    assert parity == bits[pair[0] - 1] ^ bits[pair[1] - 1]
                combos += 1

    # randomized: 1e5 trials at n = 64 per photon budget
    for k, mu in enumerate((1.0, 3.0, 5.0)):
        stats = run_experiment(64, None, None, math.sqrt(mu), 100_000, Seed(1040).child(k))
        assert stats.conclusive_wrong == 0
        expected = math.exp(-mu)
        sigma = math.sqrt(expected * (1 - expected) / stats.trials)
        assert abs(stats.inconclusive_rate - expected) < 3 * sigma

    # the six-mode reference instance, verbatim
    stats = run_experiment(
        6, Matching.parse("1-6,2-5,3-4"), "010101", math.sqrt(3.0), 100_000, Seed(1041)
    )
    assert stats.conclusive_wrong == 0
    expected = math.exp(-3.0)
    sigma = math.sqrt(expected * (1 - expected) / stats.trials)
    assert abs(stats.inconclusive_rate - expected) < 3 * sigma
    report(6, f"zero wrong conclusive outcomes ({combos} exhaustive combos + 4e5 sampled trials); inconclusive rates within 3 sigma of e^-mu")


# ---------------------------------------------------------------------------
# 7. effective-dimension accounting
# ---------------------------------------------------------------------------


def exact_poisson_tail(mu, delta):
    lower_cut = math.floor(mu - delta)
    upper_cut = math.ceil(mu + delta)
    total = float(poisson.sf(upper_cut - 1, mu))
    if lower_cut >= 0:
        total += float(poisson.cdf(lower_cut, mu))
    return total


def test_criterion_7_dimension_accounting():
    ratios = []
    for exp in range(4, 15):
        d = 2**exp
        bound = effective_dimension_bound(1.0, 5, d)
        ratios.append(bound.log2_d_alpha_upper / math.log2(d))
    assert max(ratios) < 6.5

    points = 0
    for mu in (0.5, 1.0, 2.0, 4.0, 8.0):
        for delta in range(1, 21):
            bound = poisson_tail_bound(mu, float(delta))
            assert exact_poisson_tail(mu, float(delta)) <= bound + 1e-12
            points += 1
    assert points == 100
    report(7, f"log2 dimension ratio bounded by {max(ratios):.3f} < 6.5 across 2^4..2^14; tail bound dominated the exact tail at all 100 grid points")


# ---------------------------------------------------------------------------
# 8. digital signatures
# ---------------------------------------------------------------------------


def test_criterion_8_qds():
    # honest completeness at the default working point
    honest = QdsConfig(n=512, alpha_sq=9.0)
    accepted = 0
    tested_positions = 0
    for k in range(1000):
        t = run_qds(honest, Seed(1050).child(k))
        assert not t.aborted
        assert t.bob_verdict.mismatches == 0
        assert t.charlie_verdict.mismatches == 0
        if t.accepted_by_both:
            accepted += 1
        usd = next(
            r for r in t.records
            if r.stage == "usd" and r.data["recipient"] == "bob" and r.data["key_bit"] == 0
        )
        tested_positions += usd.data["tested"]
    assert accepted == 1000

    # conclusive-rate calibration against 1 - e^{-mu/n}
    total_modes = 1000 * 512
    p = -math.expm1(-9.0 / 512)
    sigma = math.sqrt(p * (1 - p) / total_modes)
    assert abs(tested_positions / total_modes - p) < 3 * sigma

    # forged reveal: flipping 20% of the revealed key must fail authentication
    # (run at a brighter working point so enough modes are conclusive for the
    # mismatch statistics to bite; the criterion thresholds are unchanged)
    tamper = QdsConfig(
        n=512, alpha_sq=36.0,
        tamper_model="flip_revealed", tamper_fraction=0.2,
    )
    rejections = sum(
        not run_qds(tamper, Seed(1051).child(k)).bob_verdict.accept for k in range(1000)
    )
    assert rejections / 1000 > 0.99

    # repudiation: states differing in 20% of modes must abort at f = 0.01
    repud = QdsConfig(
        n=512, alpha_sq=36.0, f=0.01,
        tamper_model="repudiation", tamper_fraction=0.2,
    )
    aborts = sum(run_qds(repud, Seed(1052).child(k)).aborted for k in range(1000))
    assert aborts / 1000 > 0.99
    report(8, f"1000/1000 honest runs accepted with zero mismatches; flip tamper rejected {rejections}/1000; repudiation aborted {aborts}/1000; conclusive rate within 3 sigma")
