import collections
import dataclasses
import itertools
import json
import math
import warnings
from types import MappingProxyType

import numpy as np
import pytest
from scipy.stats import binom

from cohsim import (
    ModeCoherentState,
    QdsConfig,
    Seed,
    equality_test,
    keygen,
    phase_encoded_state,
    qds,
    run_qds,
    split,
    usd_measure,
    verify_message,
)
from cohsim.mapping import beam_splitter
from cohsim.qds import (
    StageRecord,
    _equality_report,
    _flip_mask,
    _port_law,
    _sparse_events,
    _usd_signs,
)


def test_keygen_returns_a_read_only_row_of_exactly_n_bits_per_bit_value():
    # A length that is not a positive integer is in test_core's refusal table.
    np.testing.assert_array_equal(keygen(64, Seed(120).rng()), keygen(64, Seed(120).rng()))
    for n in (1, 7, 9, 13):
        keys = keygen(n, Seed(124).rng())
        assert keys.shape == (2, n) and keys.dtype == np.uint8
        assert set(keys.ravel().tolist()) <= {0, 1}
    assert not keys.flags.writeable and not keys[1].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        keys[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        keys[1] ^= 1


def test_keygen_bits_are_balanced():
    keys = keygen(10_000, Seed(121).rng())
    for k in keys:
        freq = k.mean()
        assert abs(freq - 0.5) < 3 * math.sqrt(0.25 / 10_000)


def test_independent_keys_disagree_on_half_the_bits():
    a = keygen(10_000, Seed(122).rng())[0]
    b = keygen(10_000, Seed(123).rng())[0]
    distance = np.count_nonzero(a ^ b)
    assert abs(distance - 5_000) < 3 * math.sqrt(10_000 * 0.25)


def test_signature_state_is_local_in_the_key_and_keeps_its_power():
    c = phase_encoded_state(np.zeros(4, dtype=np.uint8), 2.0)
    np.testing.assert_allclose(c.mode_amplitudes, np.full(4, 1.0), atol=1e-12)
    diff = phase_encoded_state("0100", 1.0).mode_amplitudes - phase_encoded_state("0000", 1.0).mode_amplitudes
    assert np.count_nonzero(np.abs(diff) > 1e-15) == 1
    for key in ("0000", "1111", "0110"):
        c = phase_encoded_state(key, 1.7)
        assert c.mean_photon_number == pytest.approx(1.7**2, abs=1e-12)


def test_split_halves_amplitudes_and_conserves_energy():
    c = phase_encoded_state("0101", 2.0)
    a, b = split(c)
    np.testing.assert_allclose(a.mode_amplitudes, c.mode_amplitudes / math.sqrt(2))
    np.testing.assert_allclose(b.mode_amplitudes, a.mode_amplitudes)
    total_out = a.mean_photon_number + b.mean_photon_number
    assert total_out == pytest.approx(c.mean_photon_number, abs=1e-12)
    a, b = split(ModeCoherentState(np.zeros(3, dtype=complex)))
    assert a.mean_photon_number == b.mean_photon_number == 0.0


# ---------------------------------------------------------------------------
# unambiguous state discrimination
# ---------------------------------------------------------------------------


def test_usd_zero_reference_all_inconclusive():
    c = ModeCoherentState(np.zeros(16, dtype=complex))
    signs = usd_measure(c, 0.0, Seed(130).rng())
    assert np.count_nonzero(signs) == 0


def test_usd_conclusive_rate_half():
    # 2 beta^2 = ln 2 makes the conclusive probability exactly 1/2
    beta = math.sqrt(math.log(2.0) / 2.0)
    n = 10_000
    amps = np.full(n, beta, dtype=complex)
    c = ModeCoherentState(amps)
    signs = usd_measure(c, beta, Seed(131).rng())
    assert abs(np.count_nonzero(signs) / n - 0.5) < 3 * math.sqrt(0.25 / n)


def test_usd_honest_runs_never_err_exhaustively():
    # every key of every length up to 10: conclusive outcomes match the sign
    beta = 0.4
    rng = Seed(132).rng()
    for n in range(1, 11):
        for bits in itertools.product((0, 1), repeat=n):
            key = np.array(bits, dtype=np.uint8)
            signs = 1 - 2 * key.astype(np.int8)
            c = ModeCoherentState(signs * beta)
            found = usd_measure(c, beta, rng)
            conclusive = found != 0
            assert np.all(found[conclusive] == signs[conclusive])


def _sign_probabilities(amps, beta):
    """(P(+), P(-)) of the receiver against +beta: a = p_1 (1 - p_2) and a + p_2 - p_1 = p_2 (1 - p_1)."""
    law = _port_law(amps, beta)
    return law[0], law[2] - law[1]


def test_usd_of_tampered_vacuum_is_symmetric_and_of_a_bright_plus_state_biased():
    beta = 0.5
    p_plus, p_minus = _sign_probabilities(np.array([0.0 + 0.0j]), beta)
    assert p_plus[0] == pytest.approx(p_minus[0], rel=1e-12)
    assert p_plus[0] + p_minus[0] < 1.0
    p_plus, p_minus = _sign_probabilities(np.array([3 * beta + 0.0j]), beta)
    assert p_plus[0] > 3 * p_minus[0]
    assert p_minus[0] >= 0.0
    assert p_plus[0] + p_minus[0] <= 1.0



def test_usd_measure_refuses_a_negative_reference_magnitude():
    # nan reached numpy's binomial; it is in test_core's refusal table with the other reals.
    with pytest.raises(ValueError, match="reference_magnitude must be non-negative"):
        usd_measure(ModeCoherentState([1.0, -1.0]), -1.0, Seed(132).rng())


@pytest.mark.parametrize("beta", [1e160, 1e200, 1.7e308])
def test_usd_measure_lights_both_ports_at_a_huge_reference_without_warnings(beta):
    # These references were refused, since the POVM law overflowed (beta -+ x)^2.
    # Against the receiver both ports carry an infinite power and click surely.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        signs = usd_measure(ModeCoherentState([1.0, -1.0]), beta, Seed(132).rng())
    assert signs.tolist() == [0, 0]


def test_bright_equality_test_finishes_without_warnings():
    # A valid state whose EQ port power 3.4e308 overflowed under -W error.
    s = ModeCoherentState([1.3e154])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = equality_test(s, s, 0.5, Seed(132).rng())
    assert (report.neq_clicks, report.total_clicks) == (0, 1)


def test_port_law_gives_the_optimal_usd_rate_with_no_error_at_every_scale():
    # The POVM form cancelled at small beta: P(+) was 0 for beta <= 1e-9.  Earlier
    # still, beta = 30 overflowed exp(beta * gamma) and beta = 1e-9 made its
    # normalisation 0/0: both gave nan, so every mode read inconclusive.
    for beta in [0.3, 1e-9, *np.logspace(-150, math.log10(30.0), 301)]:
        p_plus, p_minus = _sign_probabilities(np.array([beta, -beta]), beta)
        rate = -math.expm1(-2.0 * beta * beta)
        assert p_plus[0] == pytest.approx(rate, rel=2e-15, abs=0.0)
        assert p_minus[1] == pytest.approx(rate, rel=2e-15, abs=0.0)
        assert p_minus[0] == 0.0 and p_plus[1] == 0.0


def test_usd_measure_is_exact_just_inside_the_magnitude_bound():
    # beta + |gamma| = 8e153 < 1e154: honest modes are conclusive with certainty
    beta = 4e153
    c = ModeCoherentState([beta, -beta])
    assert usd_measure(c, beta, Seed(133).rng()).tolist() == [1, -1]
    signs = usd_measure(ModeCoherentState([1.0, -1.0]), beta, Seed(133).rng())
    assert np.count_nonzero(signs) == 0


def test_usd_measure_returns_a_read_only_int8_sign_vector():
    beta = 0.8
    signs = usd_measure(ModeCoherentState([beta, -beta, 0.0, 3 * beta]), beta, Seed(134).rng())
    assert signs.shape == (4,) and signs.dtype == np.int8
    assert set(signs.tolist()) <= {-1, 0, 1}
    assert not signs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        signs[0] = 0


def test_usd_record_validation():
    # The record is the sign vector itself, so verify_message checks it; 0.5 used
    # to be truncated to an inconclusive 0.
    for signs in ([2, 0], [2], [-2], [0.5, 1], [1.0, math.nan], [[1, -1]], 1):
        with pytest.raises(ValueError, match="signs must be"):
            verify_message("01", signs, 0.5)
    for key in ("0", "011"):
        with pytest.raises(ValueError, match="length"):
            verify_message(key, np.array([1, -1], dtype=np.int8), 0.5)
    verdict = verify_message("011", np.array([1, -1, 0], dtype=np.int8), 0.5)
    assert (verdict.mismatches, verdict.tested) == (0, 2)
    assert verify_message("011", [1.0, -1.0, 0.0], 0.5) == verdict


# ---------------------------------------------------------------------------
# equality test
# ---------------------------------------------------------------------------


def test_equality_test_identical_states_never_abort():
    c = phase_encoded_state("010011", 3.0)
    a, b = split(c)
    rng = Seed(133).rng()
    for _ in range(50):
        report = equality_test(a, b, 0.01, rng)
        assert report.neq_clicks == 0
        assert not report.aborted


def test_equality_test_single_sign_flip_click_rate():
    beta = 0.45
    n = 4_000
    # every mode of a fully differing pair has NEQ amplitude sqrt(2) beta and
    # click probability 1 - e^{-2 beta^2}
    u = np.full(n, beta, dtype=complex)
    w = -u
    a = ModeCoherentState(u)
    b = ModeCoherentState(w)
    report = equality_test(a, b, 0.5, Seed(134).rng())
    p = -math.expm1(-2 * beta * beta)
    assert abs(report.neq_clicks / n - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_equality_test_opposite_keys_expected_neq_clicks():
    # protocol wiring: keys of length 100 at |alpha|^2 = 20, split once, so
    # per-mode power is 0.1 and the NEQ click probability is 1 - e^{-0.2}
    n, alpha_sq = 100, 20.0
    alpha = math.sqrt(alpha_sq)
    sa = split(phase_encoded_state("0" * n, alpha))[0]
    sb = split(phase_encoded_state("1" * n, alpha))[0]
    runs = 400
    clicks = 0
    rng = Seed(135).rng()
    for _ in range(runs):
        clicks += equality_test(sa, sb, 0.99, rng).neq_clicks
    p = -math.expm1(-alpha_sq / n)
    expected = n * p  # = 18.13 clicks per run
    assert expected == pytest.approx(18.1269, abs=1e-3)
    sigma_mean = math.sqrt(n * p * (1 - p) / runs)
    assert abs(clicks / runs - expected) < 3 * sigma_mean


def test_equality_test_validates_fraction():
    c = phase_encoded_state("01", 1.0)
    with pytest.raises(ValueError):
        equality_test(c, c, 0.0, Seed(136).rng())
    with pytest.raises(ValueError):
        equality_test(c, c, 1.0, Seed(136).rng())


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_verify_honest_and_empty_records_accept():
    verdict = verify_message("0110", np.array([1, -1, -1, 1], dtype=np.int8), 0.02)
    assert verdict.mismatches == 0
    assert verdict.accept
    verdict = verify_message("00000000", np.zeros(8, dtype=np.int8), 0.02)
    assert verdict.tested == 0
    assert verdict.fraction == 0.0
    assert verdict.accept


def test_verify_flipped_bits_are_detected_exactly():
    rng = Seed(137).rng()
    n = 2_000
    key = rng.integers(0, 2, n).astype(np.uint8)
    signs = (1 - 2 * key.astype(np.int8)).astype(np.int8)
    conclusive = rng.random(n) < 0.7
    outcomes = np.where(conclusive, signs, 0).astype(np.int8)
    flips = rng.random(n) < 0.2
    revealed = key ^ flips.astype(np.uint8)
    verdict = verify_message(revealed, outcomes, 0.5)
    # flips are visible exactly at conclusive positions
    assert verdict.mismatches == int(np.count_nonzero(conclusive & flips))
    assert verdict.tested == int(np.count_nonzero(conclusive))


def test_verify_threshold_ordering_property():
    outcomes = np.array([1, 1, -1, 0, -1, 1], dtype=np.int8)
    key = "010010"
    strict = verify_message(key, outcomes, 0.02)
    for threshold in (0.05, 0.1, 0.5, 0.9):
        loose = verify_message(key, outcomes, threshold)
        if strict.accept:
            assert loose.accept


def test_acceptance_and_survival_are_strict_at_their_thresholds():
    # Kills the catalogued mutant "fraction <= threshold" in _verdict, which the
    # suite let through before; "fraction >= f" in _equality_report failed one
    # statistical test only.
    verdict = verify_message("01", np.array([1, 1], dtype=np.int8), 0.5)
    assert (verdict.fraction, verdict.accept) == (0.5, False)
    # column 0 clicks EQ alone and column 1 NEQ alone: a NEQ share of exactly f
    report = _equality_report(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]), 0.5)
    assert (report.neq_fraction, report.aborted) == (0.5, False)


def test_tamper_masks_flip_round_fraction_n_distinct_positions_and_at_least_one():
    # Kills the catalogued mutant "count = round(fraction * n)" in _flip_mask, which
    # the suite let through before; "replace=True" failed one statistical test only.
    rng = Seed(184).rng()
    for n, fraction, flips in ((100, 0.5, 50), (2, 0.1, 1), (1, 0.2, 1)):
        assert int(_flip_mask(n, fraction, rng).sum()) == flips
    config = QdsConfig(n=2, tamper_model="flip_revealed", tamper_params={"fraction": 0.1})
    reveal = next(r.data for r in run_qds(config, Seed(1)).records if r.stage == "reveal")
    assert reveal["flipped_bits"] == 1


# ---------------------------------------------------------------------------
# full protocol runs
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        QdsConfig(s_a=0.05, s_v=0.05)
    with pytest.raises(ValueError):
        QdsConfig(s_a=0.1, s_v=0.05)
    with pytest.raises(ValueError):
        QdsConfig(f=0.0)
    with pytest.raises(ValueError):
        QdsConfig(tamper_model="jam")
    with pytest.raises(ValueError):
        QdsConfig(tamper_model="flip_revealed")  # missing fraction
    with pytest.raises(ValueError):
        QdsConfig.from_dict({"n": 8, "bogus": 1})


def test_transcript_records_every_stage():
    t = run_qds(QdsConfig(n=32, alpha_sq=4.0), Seed(139))
    stages = [r.stage for r in t.records]
    assert stages[0] == "keygen"
    assert "distribution" in stages
    assert stages.count("usd") == 4          # two recipients x two key bits
    assert stages.count("equality_test") == 2
    assert "reveal" in stages
    assert "authentication" in stages and "verification" in stages


def test_tampered_runs_follow_their_exact_binomial_laws():
    # A fifth of the 512 modes tampered at |alpha|^2 = 36.  Every EQ or NEQ port
    # that receives light clicks with p = 1 - e^{-|alpha|^2 / n}, which is also
    # the conclusive USD rate, so both laws count k_bad of the tampered modes
    # against k_good of the others, independent Binomials at p.
    n, alpha_sq, runs = 512, 36.0, 3000
    p = -math.expm1(-alpha_sq / n)
    bad = round(0.2 * n)
    k_bad, k_good = np.arange(bad + 1)[:, None], np.arange(n - bad + 1)[None, :]
    joint = binom.pmf(k_bad, bad, p) * binom.pmf(k_good, n - bad, p)
    share = k_bad / np.maximum(k_bad + k_good, 1)
    # repudiation: each key bit's test aborts when its NEQ share exceeds f = 0.2
    p_abort = 1.0 - (1.0 - joint[share > 0.2].sum()) ** 2
    # flip_revealed: Bob accepts while his mismatch share stays below s_a = 0.2
    p_accept = joint[share < 0.2].sum()
    assert p_abort == pytest.approx(0.71114, abs=1e-5)
    assert p_accept == pytest.approx(0.50253, abs=1e-5)
    params = {"fraction": 0.2}
    repudiation = QdsConfig(n=n, alpha_sq=alpha_sq, f=0.2,
                            tamper_model="repudiation", tamper_params=params)
    flip = QdsConfig(n=n, alpha_sq=alpha_sq, s_a=0.2, s_v=0.5,
                     tamper_model="flip_revealed", tamper_params=params)
    bob_accepts = lambda t: not t.aborted and t.bob_verdict.accept
    laws = ((repudiation, Seed(178), lambda t: t.aborted, p_abort),
            (flip, Seed(179), bob_accepts, p_accept))
    for config, seed, outcome, p_exact in laws:
        count = sum(outcome(run_qds(config, seed.child(k))) for k in range(runs))
        assert abs(count / runs - p_exact) <= 5.0 * math.sqrt(p_exact * (1.0 - p_exact) / runs)


def test_run_is_deterministic_per_seed():
    config = QdsConfig(n=64, alpha_sq=9.0)
    a = run_qds(config, Seed(143))
    b = run_qds(config, Seed(143))
    assert a.records == b.records


def test_runs_and_stages_draw_from_pairwise_distinct_streams(monkeypatch):
    # Flat offsets made the USD stream of run k the keygen stream of run k + 2.
    streams = []
    rng = Seed.rng
    monkeypatch.setattr(Seed, "rng", lambda self: streams.append(self) or rng(self))
    config = QdsConfig(n=16, alpha_sq=9.0)
    for run in range(4):
        run_qds(config, Seed(144).child(run))
    assert len(streams) == 4 * 1  # every stage of a run draws from the run's one generator
    assert len(set(streams)) == len(streams)
    heads = {tuple(rng(s).integers(0, 2**63, 4)) for s in streams}
    assert len(heads) == len(streams)


@pytest.mark.parametrize("value", [[], "fraction"])
def test_config_tamper_params_must_be_an_object(value):
    # The count and real fields, and the fraction, are in test_core's refusal table.
    with pytest.raises(TypeError, match="^tamper_params must be an object"):
        QdsConfig.from_dict({"tamper_params": value})


@pytest.mark.parametrize(
    "model, params, key",
    [
        ("none", {"fraction": 7}, "fraction"),
        ("flip_revealed", {"fraction": 0.2, "fracton": 0.5}, "fracton"),
        ("repudiation", {"fraction": 0.2, "seed": 1}, "seed"),
    ],
)
def test_config_rejects_stray_tamper_params(model, params, key):
    with pytest.raises(ValueError, match=f"tamper_params key '{key}'"):
        QdsConfig(tamper_model=model, tamper_params=params)


def test_config_accepts_integer_valued_reals():
    config = QdsConfig.from_dict({"n": 8, "alpha_sq": 9, "s_a": 0, "tamper_params": {}})
    assert config.alpha_sq == 9 and config.s_a == 0


def test_config_keeps_the_values_it_checked():
    # "alpha_sq": 9 was echoed as 9 and 9.0 as 9.0, so one run printed two ways.
    spelled = [QdsConfig(n=8, alpha_sq=9, s_a=0), QdsConfig(n=8, alpha_sq=9.0, s_a=0.0)]
    for config in spelled:
        assert type(config.alpha_sq) is float and type(config.s_a) is float
    records = [json.dumps([r.data for r in run_qds(c, Seed(7)).records]) for c in spelled]
    assert records[0] == records[1] and '"alpha_sq": 9.0' in records[0]


def test_config_with_numpy_counts_gives_a_json_transcript():
    # n = np.int64(16) was kept as given, and json.dumps refused the keygen record.
    config = QdsConfig(n=np.int64(16), message_bit=np.int64(1))
    assert type(config.n) is int and type(config.message_bit) is int
    assert json.dumps(run_qds(config, Seed(1)).records[0].data) == '{"n": 16}'


def _reference_run(config, seed):
    """Records of run_qds, mode by mode through the library's general state path.

    Every stage draws from the run's one generator in the same order as run_qds,
    so the two must agree exactly.
    """
    n, b_msg = config.n, config.message_bit
    alpha = math.sqrt(config.alpha_sq)
    beta = math.sqrt(config.alpha_sq / (2.0 * n))
    rng = seed.rng()
    keys = keygen(n, rng)
    fraction = config.tamper_params.get("fraction")
    masks = {0: 0, 1: 0}
    if config.tamper_model == "repudiation":
        masks = {b: _flip_mask(n, fraction, rng) for b in (0, 1)}
    records = [
        StageRecord("keygen", {"n": n}),
        StageRecord("distribution", {"alpha_sq": config.alpha_sq, "usd_reference_magnitude": beta}),
    ]
    usd, shared = {}, {}
    for b in (0, 1):
        for who, bits in (("bob", keys[b]), ("charlie", keys[b] ^ masks[b])):
            kept, shared[who, b] = split(phase_encoded_state(bits, alpha))
            signs = usd[who, b] = usd_measure(kept, beta, rng)
            counts = {"tested": np.count_nonzero(signs), "plus": int(np.sum(signs == 1)),
                      "minus": int(np.sum(signs == -1))}
            records.append(StageRecord("usd", {"recipient": who, "key_bit": b, **counts}))
    aborted = False
    for b in (0, 1):
        report = equality_test(shared["bob", b], shared["charlie", b], config.f, rng)
        aborted = aborted or report.aborted
        records.append(StageRecord("equality_test", {
            "key_bit": b, "neq_clicks": report.neq_clicks, "total_clicks": report.total_clicks,
            "neq_fraction": report.neq_fraction, "aborted": report.aborted,
        }))
    if aborted:
        return records + [StageRecord("messaging", {"skipped": True, "reason": "aborted"})]
    revealed = keys[b_msg]
    flipped = np.zeros(n, dtype=np.uint8)
    if config.tamper_model == "flip_revealed":
        flipped = _flip_mask(n, fraction, rng)
    records.append(StageRecord("reveal", {"message_bit": b_msg, "flipped_bits": int(flipped.sum())}))
    stages = (("authentication", "bob", config.s_a), ("verification", "charlie", config.s_v))
    for stage, who, threshold in stages:
        v = verify_message(revealed ^ flipped, usd[who, b_msg], threshold)
        records.append(StageRecord(stage, {
            "recipient": who, "mismatches": v.mismatches, "tested": v.tested,
            "fraction": v.fraction, "threshold": v.threshold, "accept": v.accept,
        }))
    return records


@pytest.mark.parametrize("tamper_model", ["none", "flip_revealed", "repudiation"])
@pytest.mark.parametrize("n", [1, 2, 17, 512])
def test_run_qds_matches_the_per_mode_reference(n, tamper_model):
    params = {} if tamper_model == "none" else {"fraction": 0.2}
    for k, alpha_sq in enumerate((0.5, 9.0, 36.0, 400.0)):
        config = QdsConfig(
            n=n, alpha_sq=alpha_sq, f=0.05, message_bit=k % 2,
            tamper_model=tamper_model, tamper_params=params,
        )
        seed = Seed(150).child(n, tamper_model, k)
        assert list(run_qds(config, seed).records) == _reference_run(config, seed)


def test_run_qds_evaluates_the_usd_law_on_amplitude_levels(monkeypatch):
    pairs = []
    law = qds._port_law
    monkeypatch.setattr(qds, "_port_law", lambda u, w: pairs.append(np.broadcast(u, w).size) or law(u, w))
    t = run_qds(QdsConfig(n=4096, alpha_sq=9.0), Seed(151))
    assert pairs and max(pairs) <= 4
    assert t.accepted_by_both


@pytest.mark.parametrize("tamper_model", ["none", "flip_revealed", "repudiation"])
def test_run_qds_evaluates_its_laws_once_per_config(monkeypatch, tamper_model):
    calls = []
    law = qds._port_law
    monkeypatch.setattr(qds, "_port_law", lambda u, w: calls.append(1) or law(u, w))
    params = {} if tamper_model == "none" else {"fraction": 0.01}
    config = QdsConfig(n=512, alpha_sq=36.0, tamper_model=tamper_model, tamper_params=params)
    for run in range(50):
        run_qds(config, Seed(152).child(run))
    assert len(calls) == 2
    usd, eq = config.tables  # the two laws, and nothing besides
    assert usd.shape == (3, 2) and eq.shape == (3, 4)
    assert not usd.flags.writeable and not eq.flags.writeable


def test_each_stage_thins_at_its_own_laws_rate():
    # Honest USD and EQ/NEQ events both have probability 1 - e^{-alpha_sq/n}, so a stage
    # thinned at the other law's rate shows only once the laws part: halving the
    # config's equality table must leave the USD stages, drawn first, as they were.
    config = QdsConfig(n=512, alpha_sq=36.0)

    def usd_records():
        return [r for r in run_qds(config, Seed(7)).records if r.stage == "usd"]

    before = usd_records()
    usd, eq = config.tables
    vars(config)["tables"] = usd, eq / 2  # the cached value run_qds reads
    assert config.tables[1][-1].max() < 0.04
    assert usd_records() == before


def test_config_keeps_a_read_only_copy_of_the_tamper_params():
    # The caller's dict was kept: a fraction changed after the check reached run_qds.
    params = {"fraction": 0.2}
    config = QdsConfig(n=16, tamper_model="flip_revealed", tamper_params=params)
    before = run_qds(config, Seed(1)).records
    params["fraction"] = 7.0
    assert config.tamper_params == {"fraction": 0.2}
    assert run_qds(config, Seed(1)).records == before
    with pytest.raises(TypeError):
        config.tamper_params["fraction"] = 0.9
    assert config == QdsConfig(n=16, tamper_model="flip_revealed", tamper_params={"fraction": 0.2})
    assert dataclasses.replace(config) == config
    whole = QdsConfig(tamper_model="repudiation", tamper_params={"fraction": np.int64(1)})
    assert type(whole.tamper_params["fraction"]) is float


def test_equal_configs_hash_equal_and_key_a_dict():
    # hash(QdsConfig()) raised TypeError: the tamper_params mapping proxy is unhashable.
    params = {"fraction": 0.2}
    spellings = [
        QdsConfig(n=16, tamper_model="repudiation", tamper_params=params),
        QdsConfig(n=np.int64(16), tamper_model="repudiation", tamper_params=MappingProxyType(params)),
    ]
    assert spellings[0] == spellings[1] and hash(spellings[0]) == hash(spellings[1])
    assert hash(QdsConfig()) == hash(QdsConfig(n=np.int64(512), tamper_params=MappingProxyType({})))
    cache = {QdsConfig(): "default", spellings[0]: "repudiation"}
    assert cache[QdsConfig(n=512)] == "default" and cache[spellings[1]] == "repudiation"
    assert QdsConfig(n=17, tamper_model="repudiation", tamper_params=params) not in cache


def test_vanishing_reference_magnitude_is_inconclusive_without_warnings():
    # alpha_sq / (2n) underflows to 0, so beta = 0 and the USD law would be 0/0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = run_qds(QdsConfig(n=4, alpha_sq=5e-324), Seed(0))
    usd = [r.data for r in t.records if r.stage == "usd"]
    assert len(usd) == 4 and all(d["tested"] == 0 for d in usd)


# ---------------------------------------------------------------------------
# sparse detection draws against the one-uniform-per-mode law
# ---------------------------------------------------------------------------


def _port_probabilities(u, w):
    """Click probabilities (p_1, p_2) of the two beam_splitter ports, each port on its own."""
    return tuple(-np.expm1(-np.abs(port) ** 2) for port in beam_splitter(u, w))


def _law_of(p_1, p_2):
    """The port law (a, p_1, a + p_2), a = p_1 (1 - p_2), of given port click probabilities."""
    one_only = p_1 * (1.0 - p_2)
    return np.array([one_only, p_1, one_only + p_2])


def _dense_usd_signs(plus, minus):
    """The reference decoding of port clicks: +1 for "+" alone, -1 for "-" alone, else 0."""
    return np.where(plus & ~minus, 1, np.where(minus & ~plus, -1, 0))


def _dense_usd(ports, levels, rng):
    """The reference law: each port of each mode clicks on its own uniform, at (p_1, p_2) columns."""
    p_1, p_2 = ports[:, levels]
    return _dense_usd_signs(rng.random(levels.size) < p_1, rng.random(levels.size) < p_2)


def _sparse_usd(law, levels, rng):
    """Per-mode signs of one thinned USD draw, mode i reading law column levels[i]."""
    modes, u = _sparse_events(law[-1].max(), levels.size, rng)
    outcomes = np.zeros(levels.size, dtype=np.int8)
    outcomes[modes] = _usd_signs(law[:, levels[modes]], u)
    return outcomes


def _sparse_equality(law, n, rng, f):
    """Report of one thinned equality draw over n modes that all read law column 0."""
    modes, u = _sparse_events(law[-1].max(), n, rng)
    return _equality_report(law[:, np.zeros(modes.size, dtype=np.intp)], u, f)


def _uniforms_at(thresholds, rng, columns):
    """Per column: each threshold, the doubles either side of it, and 20 uniforms on [0, 1)."""
    rows = [np.nextafter(t, side) for t in thresholds for side in (-np.inf, np.inf)]
    return np.array(list(thresholds) + rows + list(rng.random((20, columns))))


def test_usd_signs_match_the_dense_reference_at_every_threshold():
    beta = 0.5
    amps = np.array([beta, -beta, 0.0, 3 * beta, 0.2 - 0.4j, -1.1 + 0.3j, 1e-3])
    p_1, p_2 = _port_probabilities(amps, beta)
    one_only = p_1 * (1.0 - p_2)
    u = _uniforms_at((one_only, p_1, one_only + p_2), Seed(182).rng(), amps.size)
    columns = np.broadcast_to(np.arange(amps.size), u.shape)
    signs = _usd_signs(_port_law(amps, beta)[:, columns.ravel()], u.ravel())
    plus, minus = u < p_1, (one_only <= u) & (u < one_only + p_2)
    dense = _dense_usd_signs(plus, minus)
    assert signs.dtype == np.int8 and set(dense.ravel().tolist()) == {-1, 0, 1}
    # honest columns leave one port dark; vacuum, 3 beta and the complex amplitudes light both
    assert (plus & minus).any(axis=0).tolist() == [False, False] + [True] * 5
    np.testing.assert_array_equal(signs.reshape(u.shape), dense)


def test_equality_report_matches_the_dense_reference_at_every_threshold():
    u_amps = np.array([0.5, 0.5, 0.5, 0.0, 1.2j, 2.0, 0.3 - 0.1j])
    w_amps = np.array([0.5, -0.5, 0.0, 0.0, -0.7, 1.5, 0.9j])
    p_eq, p_neq = _port_probabilities(u_amps, w_amps)
    eq_only = p_eq * (1.0 - p_neq)
    law = _port_law(u_amps, w_amps)
    u = _uniforms_at((eq_only, p_eq, eq_only + p_neq), Seed(183).rng(), u_amps.size)
    clicks = collections.Counter()
    for row in u:
        for column, value in enumerate(row):
            eq = bool(value < p_eq[column])
            neq = bool(eq_only[column] <= value < eq_only[column] + p_neq[column])
            report = _equality_report(law[:, [column]], np.array([value]), 0.5)
            assert (report.total_clicks - report.neq_clicks, report.neq_clicks) == (eq, neq)
            clicks[eq, neq] += 1
    assert len(clicks) == 4  # no click, EQ only, NEQ only, both


@pytest.mark.parametrize(
    "ports",
    [
        # q_max = 0.5, with p = 0 entries on either port
        [[0.3, 0.0, 0.25, 0.1, 0.0], [0.1, 0.5, 0.0, 0.15, 0.0]],
        # q_max = 1
        [[0.6, 0.0, 1.0], [0.4, 1.0, 0.1]],
        # every mode dark
        [[0.0, 0.0], [0.0, 0.0]],
    ],
)
def test_sparse_usd_draw_has_the_per_mode_law(ports):
    ports = np.array(ports)
    runs, per_level = 40, 500
    levels = np.tile(np.arange(ports.shape[1]), per_level).astype(np.uint8)
    rng, dense_rng = Seed(170).rng(), Seed(171).rng()
    law = _law_of(*ports)
    sparse = np.array([_sparse_usd(law, levels, rng) for _ in range(runs)])
    dense = np.array([_dense_usd(ports, levels, dense_rng) for _ in range(runs)])
    samples = runs * per_level
    for level, (p_1, p_2) in enumerate(ports.T):
        for sign, p in ((1, p_1 * (1.0 - p_2)), (-1, p_2 * (1.0 - p_1))):
            freqs = [np.count_nonzero(d[:, levels == level] == sign) / samples
                     for d in (sparse, dense)]
            sigma = math.sqrt(p * (1.0 - p) / samples)
            assert abs(freqs[0] - p) <= 5.0 * sigma, (level, sign)
            assert abs(freqs[0] - freqs[1]) <= 5.0 * math.sqrt(2.0) * sigma, (level, sign)


@pytest.mark.parametrize(
    "p_eq, p_neq",
    [(0.35, 0.0), (0.0, 0.35), (0.3, 0.2), (1.0, 0.05), (0.0, 0.0)],
)
def test_sparse_equality_counts_are_binomial(p_eq, p_neq):
    n, runs = 400, 300
    eq_only = p_eq * (1.0 - p_neq)
    law = np.array([[eq_only], [p_eq], [eq_only + p_neq]])
    rng = Seed(172).rng()
    reports = [_sparse_equality(law, n, rng, 0.5) for _ in range(runs)]
    neq = np.array([r.neq_clicks for r in reports])
    eq = np.array([r.total_clicks for r in reports]) - neq
    for counts, p in ((eq, p_eq), (neq, p_neq)):
        # Binomial(n, p): the mean of `runs` counts, and their variance
        var = n * p * (1.0 - p)
        assert abs(counts.mean() - n * p) <= 5.0 * math.sqrt(var / runs)
        assert abs(counts.var() - var) <= 5.0 * math.sqrt(2.0 / (runs - 1)) * var + 1e-12
    for r in reports:
        assert r.aborted == (r.neq_fraction > 0.5)


def test_run_qds_counts_are_binomial_in_the_dense_regime():
    # n = 17 at |alpha|^2 = 9: about 41 % of the modes click in every stage.
    n, alpha_sq, runs = 17, 9.0, 200
    p = -math.expm1(-alpha_sq / n)  # USD rate 1 - e^{-2 beta^2}, also the EQ click rate
    tested, eq_clicks = [], []
    for k in range(runs):
        t = run_qds(QdsConfig(n=n, alpha_sq=alpha_sq), Seed(173).child(k))
        tested += [r.data["tested"] for r in t.records if r.stage == "usd"]
        eq_clicks += [r.data["total_clicks"] for r in t.records if r.stage == "equality_test"]
        assert t.accepted_by_both
    for counts in (np.array(tested), np.array(eq_clicks)):
        sigma = math.sqrt(n * p * (1.0 - p) / counts.size)
        assert abs(counts.mean() - n * p) <= 5.0 * sigma


class _RecordingGenerator:
    """Forwards every draw to a Generator; records each method and how many values it returned."""

    def __init__(self, rng):
        self._rng = rng
        self.names, self.sizes = [], []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.names.append(name)
            self.sizes.append(int(np.size(out)))
            return out

        return draw


def test_detection_draws_scale_with_clicks_not_modes():
    n, alpha_sq = 65536, 9.0
    key = keygen(n, Seed(174).rng())[0]
    kept, shared = split(phase_encoded_state(key, math.sqrt(alpha_sq)))
    beta = math.sqrt(alpha_sq / (2.0 * n))
    usd_rng = _RecordingGenerator(Seed(175).rng())
    usd_law = _port_law(kept.mode_amplitudes, beta)
    signs = _sparse_usd(usd_law, np.arange(n), usd_rng)
    eq_rng = _RecordingGenerator(Seed(176).rng())
    eq_law = _port_law(shared.mode_amplitudes, shared.mode_amplitudes)
    modes, u = _sparse_events(eq_law[-1].max(), n, eq_rng)
    report = _equality_report(eq_law[:, modes], u, 0.01)
    # About 9 clicks a stage are expected; each costs two draws.
    assert usd_rng.sizes and eq_rng.sizes
    assert sum(usd_rng.sizes) + sum(eq_rng.sizes) < n / 200
    assert 0 < np.count_nonzero(signs) and 0 < report.total_clicks and report.neq_clicks == 0


def test_honest_run_draws_from_one_generator_without_choice(monkeypatch):
    generators = []
    rng = Seed.rng
    recording = lambda self: generators.append(_RecordingGenerator(rng(self))) or generators[-1]
    monkeypatch.setattr(Seed, "rng", recording)
    for n in (17, 65536):
        t = run_qds(QdsConfig(n=n, alpha_sq=9.0), Seed(180).child(n))
        assert t.accepted_by_both
    assert len(generators) == 2
    for generator in generators:
        assert generator.names[0] == "bytes" and "choice" not in generator.names


@pytest.mark.parametrize("n", [1, 17, 65536])
@pytest.mark.parametrize("q_max", [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0])
def test_sparse_events_draw_sorted_distinct_modes_at_any_rate(q_max, n):
    # Near 1e-300 numpy's geometric gaps are 2**63 - 1; summed unclipped they wrap.
    rng = Seed(181).child(n).rng()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [_sparse_events(q_max, n, rng) for _ in range(20)]
    for modes, u in draws:
        assert modes.shape == u.shape
        assert np.all(np.diff(modes) > 0) and np.all((0 <= modes) & (modes < n))
        assert np.all((0.0 <= u) & (u <= q_max))
    counts = [modes.size for modes, _ in draws]
    if q_max == 1.0:
        assert counts == [n] * 20
    elif q_max == 0.5:
        assert abs(sum(counts) - 10 * n) <= 5.0 * math.sqrt(5 * n)
    else:
        assert counts == [0] * 20


def test_config_bounds_the_power_per_mode():
    QdsConfig(n=2, alpha_sq=2e16)
    with pytest.raises(ValueError, match="alpha_sq / n"):
        QdsConfig(n=2, alpha_sq=2.1e16)
    with pytest.raises(ValueError, match="alpha_sq / n"):
        QdsConfig(n=1, alpha_sq=1.7e308)


def test_run_qds_verifies_without_per_mode_records(monkeypatch):
    # After key generation a run keeps only the modes its draws touched: it
    # neither measures nor verifies a per-mode sign vector.
    calls = []
    for name in ("usd_measure", "verify_message"):
        dense = getattr(qds, name)
        monkeypatch.setattr(qds, name, lambda *args, f=dense, name=name: calls.append(name) or f(*args))
    t = run_qds(QdsConfig(n=65536, alpha_sq=9.0), Seed(177))
    assert t.accepted_by_both and t.bob_verdict.tested > 0
    assert calls == []
    # the counters do see the dense path
    signs = qds.usd_measure(ModeCoherentState([1.0, -1.0]), 1.0, Seed(178).rng())
    qds.verify_message("01", signs, 0.02)
    assert calls == ["usd_measure", "verify_message"]
