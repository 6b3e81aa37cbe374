import decimal
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import poisson

import cohsim
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
from cohsim.mapping import _poisson_deviance, _poisson_log_pmf


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


def test_map_state_scales_the_amplitudes_by_alpha():
    c = map_state(basis_state(3, 1), 2.0)
    np.testing.assert_allclose(c.mode_amplitudes, [2.0, 0.0, 0.0])
    assert c.mean_photon_number == pytest.approx(4.0)
    np.testing.assert_allclose(map_state(uniform_state(4), 2.0).mode_amplitudes, [1.0, 1.0, 1.0, 1.0])
    # signs (+,-,-) normalized over 3 modes, alpha = sqrt(3): amplitudes +-1
    c = map_state(normalized([1.0, -1.0, -1.0]), math.sqrt(3.0))
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


# A string array or [None, 1] holds no numbers, a TypeError (test_core's
# VECTOR_REGRESSIONS). The explicit ids keep the last two rows' names stable.
@pytest.mark.parametrize(
    "bits", ["", "012", [], [0, 2], [0.5], [-1], pytest.param([np.nan], id="bits8"),
             pytest.param(np.array([0, 2], dtype=np.uint8), id="bits9")],
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
    same = ModeCoherentState([beta, beta])
    out = map_unitary_apply(bs, same)
    np.testing.assert_allclose(
        out.mode_amplitudes, [math.sqrt(2) * beta, 0.0], atol=1e-12
    )
    opposite = ModeCoherentState([beta, -beta])
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


@pytest.mark.parametrize("power", [1e7, 1e12, 1e300])
def test_mode_power_is_checked_relative_to_its_size(power):
    amps = np.full(6, math.sqrt(power / 6))
    c = ModeCoherentState(amps)
    assert c.mean_photon_number == pytest.approx(power, rel=1e-12)


# A power past the double range overflowed with a RuntimeWarning, not a clear error.
@pytest.mark.parametrize(
    "amps",
    [[1e160, 1.0], [math.inf], [math.nan], [1e200], [-math.inf, 1.0], [complex(1.0, math.nan)]],
)
def test_non_finite_mode_power_is_a_value_error(amps):
    with pytest.raises(ValueError, match="mode power .* must be finite"):
        ModeCoherentState(np.array(amps))


def test_mean_photon_number_is_the_summed_power_of_core(monkeypatch):
    # One statement of the power: the property reads core's sum, not its own.
    c = ModeCoherentState([1.0, 2.0j])
    assert c.mean_photon_number == pytest.approx(5.0)
    assert not c.mode_amplitudes.flags.writeable
    monkeypatch.setattr(cohsim.mapping, "_power", lambda amps: -1.0)
    assert c.mean_photon_number == -1.0


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


def test_overlap_rejects_impossible_delta_and_overflowing_alpha():
    # alpha = 1e200 overflowed squaring |alpha|; non-finite input is in test_core's refusal table
    with pytest.raises(ValueError, match="delta"):
        overlap_coherent(1.5, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        overlap_coherent(0.5, 1e200)


def test_overlap_takes_a_rounded_unit_delta_as_one():
    # |delta| = 1 + 1e-12 is rounding; at mu = 1e14 it overflowed exp to inf
    assert overlap_coherent(1.0 + 1e-12, 1e7) == 1.0
    assert abs(overlap_coherent(1j * (1.0 + 1e-12), 1.0)) == pytest.approx(math.exp(-1.0))


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


def test_poisson_tail_bound_matches_direct_expression():
    for mu in (0.5, 1.0, 2.0, 4.0, 8.0):
        for delta in (1.0, 3.0, 9.0, 15.0):
            direct = min(1.0, 2 * np.exp(-mu) * (np.e * mu / (mu + delta)) ** (mu + delta))
            assert poisson_tail_bound(mu, delta) == pytest.approx(direct, rel=1e-12)
    assert poisson_tail_bound(1.0, 9.0) == pytest.approx(
        2 * math.exp(-1) * (math.e / 10.0) ** 10, rel=1e-12
    )


@pytest.mark.parametrize(
    "mu, deltas",
    [(1.0, (5.0, 9.0)), (100.0, (30.0, 45.0)), (1e6, (4e3, 6e3)), (1e15, (5e7, 1e8, 2e8))],
)
def test_poisson_tail_bound_matches_a_fifty_digit_evaluation(mu, deltas):
    # The difference form lost the bound to cancellation at mu = 1e15: it gave
    # 0.0342 for 0.01348 at delta = 1e8, and 1.0 for 0.573 at delta = 5e7.
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for delta in deltas:
            m, d = decimal.Decimal(mu), decimal.Decimal(delta)
            log_raw = decimal.Decimal(2).ln() - m + (m + d) * (1 + m.ln() - (m + d).ln())
            expected = float(min(decimal.Decimal(1), log_raw.exp()))
            assert expected < 1.0
            assert poisson_tail_bound(mu, delta) == pytest.approx(expected, rel=1e-9)


def test_poisson_tail_bound_clamps_at_one_and_vanishes_at_zero_mean():
    assert poisson_tail_bound(1.0, 1e-9) == 1.0
    assert poisson_tail_bound(0.0, 1.0) == 0.0


def test_poisson_tail_bound_refuses_nan_promptly():
    # The deviance series ran forever on nan; a subprocess keeps a hang from stalling the suite.
    src = str(Path(cohsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import math\n"
        "from cohsim import poisson_tail_bound\n"
        "for mu, delta in ((math.nan, 1.0), (1.0, math.nan)):\n"
        "    try:\n"
        "        poisson_tail_bound(mu, delta)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "mu must be finite, got nan",
        "delta must be finite, got nan",
    ]


def test_poisson_log_pmf_closed_form_matches_scipy():
    for mu in (1e-3, 0.05, 0.5, 1.0, 3.7, 12.0, 40.0):
        for a in range(60):
            assert math.exp(_poisson_log_pmf(a, mu)) == pytest.approx(poisson.pmf(a, mu), rel=1e-12)
    # Poisson(0) is the point mass at 0
    assert math.exp(_poisson_log_pmf(0, 0.0)) == 1.0
    assert _poisson_log_pmf(3, 0.0) == -math.inf
    assert cohsim.lecam_bound_check([0.0, 0.0], {0}).lhs == 0.0


@given(st.data())
def test_poisson_log_pmf_matches_scipy_within_ten_sigma(data):
    mu = data.draw(st.just(0.0) | st.floats(0.0, 1e5), label="mu")
    half = 10.0 * math.sqrt(mu)
    k = data.draw(st.integers(max(0, math.ceil(mu - half)), math.floor(mu + half)), label="k")
    expected = poisson.pmf(k, mu)
    assert abs(math.exp(_poisson_log_pmf(k, mu)) - expected) <= 1e-9 * expected


@pytest.mark.parametrize("mu", [1e-3, 0.7, 37.5, 1e3, 1e9, 1e15])
def test_poisson_deviance_matches_a_sixty_digit_evaluation(mu):
    # Both sides of the mean: the lower tail is the bounded-error concentration term.
    ratios = (-0.999, -0.5, -0.1, -0.0999, -1e-2, -1e-8, 1e-8, 1e-2, 0.0999, 0.1, 0.5, 1.0, 3.0)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for delta in (ratio * mu for ratio in ratios):
            m, d = decimal.Decimal(mu), decimal.Decimal(delta)
            expected = float((m + d) * ((m + d) / m).ln() - d)
            assert _poisson_deviance(mu, delta) == pytest.approx(expected, rel=1e-13, abs=0.0)


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


@pytest.mark.parametrize("d", [16, 1024])
@pytest.mark.parametrize("mu", [1.0, 1e6, 1e15, 1e20, 1e40])
def test_effective_dimension_log2_matches_the_exact_count_at_any_mu(mu, d):
    # The log-gamma difference cancelled: at mu = 1e20 it read log2(2 delta) = 3.32.
    delta = 5
    n_top = math.floor(mu) + delta + d - 1
    exact = math.log2(2 * delta * math.comb(n_top, d - 1))
    b = effective_dimension_bound(mu, delta, d)
    assert b.log2_d_alpha_upper == pytest.approx(exact, rel=1e-9)
    assert (b.d_alpha_upper is None) == (exact >= 53.0)


def test_effective_dimension_bound_rejects_counts_past_the_double_range():
    effective_dimension_bound(1e308, 5, 2**20)
    with pytest.raises(ValueError, match="double range"):
        effective_dimension_bound(1.7e308, 10**307, 2)
    with pytest.raises(ValueError, match="double range"):
        effective_dimension_bound(1.0, 5, 10**309)


def test_effective_dimension_bound_refuses_a_negative_mu():
    # Types, non-finite values and counts below 1 are in test_core's refusal table.
    with pytest.raises(ValueError, match="mu must be non-negative"):
        effective_dimension_bound(-1.0, 1, 1)


# A third of the draws are non-finite, which st.floats() alone seldom gives, and a
# third lie in the valid range, so each property also reaches past the checks.
_any_float = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(0.0, 1e308) | st.floats()
_any_complex = st.complex_numbers(max_magnitude=1.0) | st.builds(complex, _any_float, _any_float)


@given(mu=_any_float, delta=_any_float)
def test_any_poisson_tail_bound_is_a_probability_or_a_value_error(mu, delta):
    try:
        bound = poisson_tail_bound(mu, delta)
    except ValueError:
        return
    assert 0.0 <= bound <= 1.0


# delta is a count: a float there is a TypeError, and integers reach past the checks.
@given(mu=_any_float, delta=st.integers(-1, 10**308) | _any_float, d=st.integers(1, 2**20))
def test_any_effective_dimension_bound_is_finite_or_a_value_error(mu, delta, d):
    try:
        b = effective_dimension_bound(mu, delta, d)
    except TypeError:
        assert isinstance(delta, float)
        return
    except ValueError:
        return
    assert 1.0 <= b.log2_d_alpha_upper < math.inf
    assert b.d_alpha_upper is None or b.d_alpha_upper >= 1
    assert 0.0 <= b.tail_probability_upper <= 1.0


@given(delta=_any_complex, alpha=_any_complex)
def test_any_overlap_coherent_is_in_the_unit_disk_or_a_value_error(delta, alpha):
    try:
        z = overlap_coherent(delta, alpha)
    except ValueError:
        return
    assert math.isfinite(z.real) and math.isfinite(z.imag)
    assert abs(z) <= 1.0
