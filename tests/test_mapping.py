import math

import numpy as np
import pytest
from scipy.stats import poisson

from cohsim import (
    ModeCoherentState,
    Seed,
    apply_unitary,
    basis_state,
    effective_dimension_bound,
    map_state,
    map_unitary_apply,
    normalized,
    overlap_coherent,
    parse_bits,
    phase_encoded_state,
    poisson_tail_bound,
    random_state,
    random_unitary,
    solve_alpha_for_overlap,
    transmitted_info,
    uniform_state,
)
from cohsim.hidden_matching import Matching, bob_unitary


def pairwise_coherent_overlap(beta: complex, gamma: complex) -> complex:
    """<beta|gamma> for single-mode coherent states, straight from the closed form."""
    return np.exp(-(abs(beta) ** 2 + abs(gamma) ** 2 - 2 * np.conj(beta) * gamma) / 2)


def product_overlap(psi, phi, alpha: complex) -> complex:
    """Mode-by-mode overlap product of the two mapped states (test oracle)."""
    out = 1.0 + 0.0j
    for lam, nu in zip(psi.amplitudes, phi.amplitudes):
        out *= pairwise_coherent_overlap(alpha * lam, alpha * nu)
    return out


# ---------------------------------------------------------------------------
# state and unitary translation
# ---------------------------------------------------------------------------


def test_map_state_single_mode():
    c = map_state(basis_state(3, 1), 2.0)
    np.testing.assert_allclose(c.mode_amplitudes, [2.0, 0.0, 0.0])
    assert c.mean_photon_number == pytest.approx(4.0)


def test_map_state_uniform_scaling():
    c = map_state(uniform_state(4), 2.0)
    np.testing.assert_allclose(c.mode_amplitudes, [1.0, 1.0, 1.0, 1.0])


def test_map_state_sign_pattern():
    # signs (+,-,-) normalized over 3 modes, alpha = sqrt(3): amplitudes +-1
    psi = normalized([1.0, -1.0, -1.0])
    c = map_state(psi, math.sqrt(3.0))
    np.testing.assert_allclose(c.mode_amplitudes, [1.0, -1.0, -1.0], atol=1e-12)


def test_phase_encoded_state_matches_map_state():
    psi = normalized([1.0, -1.0, 1.0, -1.0])
    via_map = map_state(psi, 1.7)
    direct = phase_encoded_state("0101", 1.7)
    np.testing.assert_allclose(direct.mode_amplitudes, via_map.mode_amplitudes, atol=1e-12)


@pytest.mark.parametrize(
    "bits", ["0110", [0, 1, 1, 0], [0.0, 1.0, 1.0, 0.0], [False, True, True, False],
             np.array([0, 1, 1, 0], dtype=object)],
)
def test_parse_bits_accepts_zeros_and_ones(bits):
    out = parse_bits(bits)
    assert out.dtype == np.uint8
    np.testing.assert_array_equal(out, [0, 1, 1, 0])


@pytest.mark.parametrize(
    "bits", ["", "012", [], [0, 2], [0.5], [-1], np.array(["0", "1"]),
             np.array([None, 1], dtype=object), [np.nan]],
)
def test_parse_bits_rejects_anything_else(bits):
    with pytest.raises(ValueError, match="bit"):
        parse_bits(bits)


def test_map_unitary_identity():
    rng = Seed(40).rng()
    c = map_state(random_state(5, rng), 1.3)
    eye = random_unitary(5, rng)
    out = map_unitary_apply(eye, c)
    assert out.mean_photon_number == pytest.approx(c.mean_photon_number, abs=1e-9)


def test_balanced_beam_splitter_output_amplitudes():
    bs = bob_unitary(Matching(((1, 2),)))
    beta = 0.8 - 0.3j
    same = ModeCoherentState.from_amplitudes([beta, beta])
    out = map_unitary_apply(bs, same)
    np.testing.assert_allclose(
        out.mode_amplitudes, [math.sqrt(2) * beta, 0.0], atol=1e-12
    )
    opposite = ModeCoherentState.from_amplitudes([beta, -beta])
    out = map_unitary_apply(bs, opposite)
    np.testing.assert_allclose(
        out.mode_amplitudes, [0.0, math.sqrt(2) * beta], atol=1e-12
    )


def test_map_and_apply_commute():
    rng = Seed(42).rng()
    for _ in range(10):
        d = int(rng.integers(2, 20))
        psi = random_state(d, rng)
        u = random_unitary(d, rng)
        alpha = 1.0 + 0.5j
        left = map_unitary_apply(u, map_state(psi, alpha))
        right = map_state(apply_unitary(u, psi), alpha)
        np.testing.assert_allclose(
            left.mode_amplitudes, right.mode_amplitudes, atol=1e-9
        )


def test_mode_power_invariant_is_validated():
    with pytest.raises(ValueError):
        ModeCoherentState(np.array([1.0, 0.0]), 2.0)


def test_from_amplitudes_sets_alpha_to_total_power():
    c = ModeCoherentState.from_amplitudes([1.0, 2.0])
    assert c.mean_photon_number == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# overlap law
# ---------------------------------------------------------------------------


def test_overlap_identical_states():
    assert overlap_coherent(1.0, 123.0) == pytest.approx(1.0)


def test_overlap_orthogonal_states_unit_photon_number():
    # cross-check against the per-mode product for an explicit orthogonal pair
    oracle = product_overlap(basis_state(2, 1), basis_state(2, 2), 1.0)
    assert overlap_coherent(0.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert abs(oracle - math.exp(-1.0)) < 1e-12


def test_overlap_half_with_four_photons():
    assert overlap_coherent(0.5, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_overlap_matches_per_mode_product_for_random_pairs():
    rng = Seed(50).rng()
    for _ in range(30):
        d = int(rng.integers(2, 65))
        psi = random_state(d, rng)
        phi = random_state(d, rng)
        delta = complex(np.vdot(psi.amplitudes, phi.amplitudes))
        for mu in (0.25, 1.0, 4.0, 10.0):
            alpha = math.sqrt(mu)
            closed = overlap_coherent(delta, alpha)
            assert abs(closed - product_overlap(psi, phi, alpha)) < 1e-9


def test_overlap_rejects_impossible_delta():
    with pytest.raises(ValueError):
        overlap_coherent(1.5, 1.0)


def test_overlap_ordering_regimes_on_grid():
    # small photon number pulls overlaps up, large pushes them down
    deltas = [0.05 * k for k in range(1, 20)]
    for delta in deltas:
        assert overlap_coherent(delta, math.sqrt(0.25)).real > delta
        assert overlap_coherent(delta, 1.0).real > delta
        assert overlap_coherent(delta, 2.0).real < delta


def test_solve_alpha_known_values():
    assert solve_alpha_for_overlap(0.5, 0.5) == pytest.approx(2 * math.log(2), abs=1e-12)
    e1 = math.exp(-1.0)
    assert solve_alpha_for_overlap(e1, e1) == pytest.approx(1.0 / (1.0 - e1), abs=1e-12)


def test_solve_alpha_round_trip():
    for delta in (0.1, 0.37, 0.5, 0.82):
        for target in (0.05, 0.3, 0.5, 0.9):
            mu = solve_alpha_for_overlap(delta, target)
            assert abs(overlap_coherent(delta, math.sqrt(mu)).real - target) < 1e-12


def test_solve_alpha_fixed_point():
    # matching the original overlap is always possible for delta in (0, 1)
    for delta in (0.2, 0.5, 0.8):
        mu = solve_alpha_for_overlap(delta, delta)
        assert abs(overlap_coherent(delta, math.sqrt(mu)).real - delta) < 1e-12


def test_solve_alpha_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        solve_alpha_for_overlap(1.0, 0.5)
    with pytest.raises(ValueError):
        solve_alpha_for_overlap(0.5, 0.0)
    with pytest.raises(ValueError):
        solve_alpha_for_overlap(0.5, 1.0)


# ---------------------------------------------------------------------------
# information accounting and photon-number tail
# ---------------------------------------------------------------------------


def test_transmitted_info_values():
    assert transmitted_info(1) == 0.0
    assert transmitted_info(1024) == pytest.approx(10.0)
    assert transmitted_info(6) == pytest.approx(math.log2(6))
    with pytest.raises(ValueError):
        transmitted_info(0)


def test_poisson_tail_bound_matches_direct_expression():
    for mu in (0.5, 1.0, 2.0, 4.0, 8.0):
        for delta in (1.0, 3.0, 9.0, 15.0):
            direct = min(1.0, 2 * np.exp(-mu) * (np.e * mu / (mu + delta)) ** (mu + delta))
            assert poisson_tail_bound(mu, delta) == pytest.approx(direct, rel=1e-12)
    assert poisson_tail_bound(1.0, 9.0) == pytest.approx(
        2 * math.exp(-1) * (math.e / 10.0) ** 10, rel=1e-12
    )


def test_poisson_tail_bound_clamps_at_one():
    assert poisson_tail_bound(1.0, 1e-9) == 1.0


def test_poisson_tail_bound_zero_mean():
    assert poisson_tail_bound(0.0, 1.0) == 0.0


def exact_poisson_tail(mu: float, delta: float) -> float:
    """P(|N - mu| >= delta) by direct pmf summation (scipy as the oracle)."""
    lower_cut = math.floor(mu - delta)
    upper_cut = math.ceil(mu + delta)
    total = 0.0
    if lower_cut >= 0:
        total += float(poisson.cdf(lower_cut, mu))
    total += float(poisson.sf(upper_cut - 1, mu))
    return total


def test_poisson_tail_bound_dominates_exact_tail():
    for mu in (0.5, 1.0, 2.0, 4.0, 8.0):
        for delta in range(1, 21):
            bound = poisson_tail_bound(mu, float(delta))
            if bound < 1.0:
                assert exact_poisson_tail(mu, float(delta)) <= bound + 1e-12


def test_effective_dimension_bound_small_cases():
    b = effective_dimension_bound(1.0, 2, 2)
    # 2 * Delta * C(1 + 2 + 1, 1) = 4 * 4
    assert b.d_alpha_upper == 16
    assert b.log2_d_alpha_upper == pytest.approx(4.0, abs=1e-9)
    b = effective_dimension_bound(0.0, 1, 1)
    assert b.d_alpha_upper == 2
    assert b.tail_probability_upper == 0.0


def test_effective_dimension_log2_matches_exact_integer():
    for mu, delta, d in ((1.0, 5, 64), (2.5, 3, 200), (9.0, 7, 33)):
        b = effective_dimension_bound(mu, delta, d)
        assert b.log2_d_alpha_upper == pytest.approx(math.log2(b.d_alpha_upper), rel=1e-12)


def test_effective_dimension_bound_keeps_only_the_log_of_huge_counts():
    b = effective_dimension_bound(1e6, 5, 16384)
    assert b.d_alpha_upper is None
    assert math.isfinite(b.log2_d_alpha_upper) and b.log2_d_alpha_upper > 1e5
    assert effective_dimension_bound(1.0, 5, 256).d_alpha_upper < 2**53
    assert effective_dimension_bound(1.0, 5, 4096).d_alpha_upper is None


def test_effective_dimension_log2_grows_like_log2_d():
    ratios = []
    for exp in range(6, 13):
        d = 2**exp
        b = effective_dimension_bound(1.0, 5, d)
        ratios.append(b.log2_d_alpha_upper / math.log2(d))
    assert max(ratios) < 6.5


def test_effective_dimension_bound_validation():
    with pytest.raises(ValueError):
        effective_dimension_bound(-1.0, 1, 1)
    with pytest.raises(ValueError):
        effective_dimension_bound(1.0, 0, 1)
    with pytest.raises(ValueError):
        effective_dimension_bound(1.0, 1, 0)
