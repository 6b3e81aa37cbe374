import itertools
import math

import numpy as np
import pytest

import cohsim.hidden_matching as hm
from cohsim import (
    Matching,
    Seed,
    bob_unitary,
    output_port_labels,
    phase_encoded_state,
    random_matching,
    run_experiment,
)

FIG_MATCHING = Matching.parse("1-6,2-5,3-4")


def all_matchings(labels: tuple[int, ...]):
    """Every perfect matching of the given labels (test-only enumeration)."""
    if not labels:
        yield ()
        return
    first, rest = labels[0], labels[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for sub in all_matchings(remaining):
            yield ((first, partner),) + sub


def test_matching_validation():
    # A missing or reused label, an empty pairs or a wrong shape is a ValueError.
    with pytest.raises(ValueError, match="^pairs must cover"):
        Matching(((1, 2), (2, 3)))  # label reused
    with pytest.raises(ValueError, match="^pairs must cover"):
        Matching(((1, 3),))  # label 2 missing
    for pairs in ((), (1, 2), ((1, 2, 3),), ((1,),)):
        with pytest.raises(ValueError, match="^pairs must"):
            Matching(pairs)


# int() once truncated both onto the matching 1-2.
@pytest.mark.parametrize("pairs", [((1.7, 2.2),), ((True, 2.9),)])
def test_matching_labels_must_be_integers(pairs):
    with pytest.raises(TypeError, match="^pairs must hold integers"):
        Matching(pairs)


def test_matching_takes_numpy_integer_labels():
    m = Matching(((np.int64(2), np.int32(1)),))
    assert m.pairs == ((1, 2),) and type(m.pairs[0][0]) is int


def test_matching_canonical_order():
    m = Matching(((5, 2), (6, 1), (4, 3)))
    assert m.pairs == ((1, 6), (2, 5), (3, 4))
    assert m.n == 6


def test_matching_parse_and_format():
    assert Matching.parse("3-4,1-6,5-2").format() == "1-6,2-5,3-4"
    with pytest.raises(ValueError):
        Matching.parse("1-2,3")
    with pytest.raises(ValueError):
        Matching.parse("1-2,x-4")


def test_random_matching_is_valid_and_seeded():
    a = random_matching(10, Seed(100).rng())
    b = random_matching(10, Seed(100).rng())
    assert a.pairs == b.pairs
    assert a.n == 10


def test_alice_state_carries_the_signs_of_x():
    for x, signs in (("000000", [1] * 6), ("111111", [-1] * 6), ("010101", [1, -1, 1, -1, 1, -1])):
        c = phase_encoded_state(x, math.sqrt(6.0))
        np.testing.assert_allclose(c.mode_amplitudes, signs, atol=1e-12)


def test_bob_unitary_two_modes_is_hadamard():
    u = bob_unitary(Matching(((1, 2),)))
    np.testing.assert_allclose(
        u.matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
    )


def test_bob_unitary_is_unitary_for_random_matchings():
    rng = Seed(101).rng()
    for n in (4, 8, 16, 32):
        m = random_matching(n, rng)
        u = bob_unitary(m)
        deviation = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(n)))
        assert deviation <= 1e-10


def test_port_labels_cover_pairs_in_order():
    labels = output_port_labels(FIG_MATCHING)
    assert labels == (
        ((1, 6), 0), ((1, 6), 1),
        ((2, 5), 0), ((2, 5), 1),
        ((3, 4), 0), ((3, 4), 1),
    )


def test_bob_unitary_is_the_pairwise_network():
    m = random_matching(16, Seed(111).rng())
    amps = Seed(112).rng().standard_normal((16, 3))
    np.testing.assert_allclose(bob_unitary(m).matrix @ amps, hm._ports(m, amps), atol=1e-15)


def output_amplitudes(x, m: Matching, alpha: float) -> np.ndarray:
    return hm._ports(m, phase_encoded_state(x, alpha).mode_amplitudes)


def test_output_amplitude_formula_per_pair():
    # port "+" of pair (i, j) carries (-1)^{x_i} (1 + (-1)^{x_i xor x_j}) a/sqrt(2n)
    # and port "-" the matching expression with a minus sign; one of the two
    # is always exactly zero
    alpha = math.sqrt(3.0)
    n = 6
    for bits in itertools.product("01", repeat=n):
        x = "".join(bits)
        out = output_amplitudes(x, FIG_MATCHING, alpha)
        for t, (i, j) in enumerate(FIG_MATCHING.pairs):
            sign_i = (-1) ** int(x[i - 1])
            parity = int(x[i - 1]) ^ int(x[j - 1])
            scale = alpha / math.sqrt(2 * n)
            expected_plus = sign_i * (1 + (-1) ** parity) * scale
            expected_minus = sign_i * (1 - (-1) ** parity) * scale
            assert abs(out[2 * t] - expected_plus) < 1e-12
            assert abs(out[2 * t + 1] - expected_minus) < 1e-12


def test_wide_network_leaves_wrong_parity_ports_exactly_dark():
    rng = Seed(113).rng()
    n = 2048
    m = random_matching(n, rng)
    bits = rng.integers(0, 2, n).astype(np.uint8)
    out = output_amplitudes(bits, m, math.sqrt(3.0))
    for port, (pair, parity) in enumerate(output_port_labels(m)):
        if parity != bits[pair[0] - 1] ^ bits[pair[1] - 1]:
            assert out[port] == 0.0


def test_exhaustive_small_sizes_only_correct_ports_lit():
    for n in (2, 4, 6):
        alpha = math.sqrt(2.5)
        for m_pairs in all_matchings(tuple(range(1, n + 1))):
            m = Matching(m_pairs)
            labels = output_port_labels(m)
            for bits in itertools.product((0, 1), repeat=n):
                out = output_amplitudes(np.array(bits), m, alpha)
                for port, (pair, parity) in enumerate(labels):
                    truth = bits[pair[0] - 1] ^ bits[pair[1] - 1]
                    if parity != truth:
                        assert abs(out[port]) < 1e-12
                    else:
                        assert abs(out[port]) > 0.1


def test_randomized_midsize_instances_never_answer_wrong():
    for k, n in enumerate((10, 12, 14, 16)):
        stats = run_experiment(n, None, None, math.sqrt(2.0), 3_000, Seed(110).child(k))
        assert stats.conclusive_wrong == 0


def test_no_click_probability_closed_form():
    # the network preserves total power, so the all-dark probability is
    # exp(-sum |out_k|^2) = e^{-mu} exactly
    from cohsim import click_probabilities, map_unitary_apply

    for x, mu in (("0110", 2.0), ("010101", 3.0)):
        m = Matching(((1, 2), (3, 4))) if len(x) == 4 else FIG_MATCHING
        out = map_unitary_apply(bob_unitary(m), phase_encoded_state(x, math.sqrt(mu)))
        p_dark = np.prod(1.0 - click_probabilities(out))
        assert p_dark == pytest.approx(math.exp(-mu), rel=1e-12)


def test_run_experiment_zero_amplitude_always_inconclusive():
    stats = run_experiment(4, Matching(((1, 2), (3, 4))), "0101", 0.0, 20, Seed(102))
    assert stats.inconclusive == 20
    assert stats.conclusive_correct == stats.conclusive_wrong == 0


def test_run_experiment_conclusive_answers_are_correct():
    stats = run_experiment(6, FIG_MATCHING, "011010", math.sqrt(3.0), 300, Seed(103))
    assert stats.conclusive_wrong == 0
    assert stats.conclusive_correct > 0
    assert stats.conclusive_correct + stats.inconclusive == 300


def test_run_experiment_tallies_by_the_port_labels(monkeypatch):
    # The tally reads each port's meaning from output_port_labels: with every
    # announced parity swapped, every conclusive trial counts as wrong.
    labels = hm.output_port_labels
    monkeypatch.setattr(hm, "output_port_labels", lambda m: tuple((p, 1 - parity) for p, parity in labels(m)))
    stats = run_experiment(6, FIG_MATCHING, "011010", math.sqrt(3.0), 300, Seed(103))
    assert stats.conclusive_correct == 0
    assert stats.conclusive_wrong + stats.inconclusive == 300 and stats.conclusive_wrong > 0


def test_run_experiment_builds_no_dense_network(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("run_experiment built an n x n network")

    monkeypatch.setattr(hm, "bob_unitary", dense)
    monkeypatch.setattr(hm, "UnitaryOp", dense)
    stats = run_experiment(4096, None, None, math.sqrt(3.0), 3, Seed(104))
    assert stats.trials == 3
    assert stats.conclusive_wrong == 0


def test_run_experiment_weak_light_mostly_inconclusive():
    stats = run_experiment(4, None, None, math.sqrt(0.01), 10_000, Seed(106))
    expected = math.exp(-0.01)
    sigma = math.sqrt(expected * (1 - expected) / stats.trials)
    assert abs(stats.inconclusive_rate - expected) < 3 * sigma


def test_run_experiment_trivial_two_mode_even_parity():
    stats = run_experiment(2, Matching(((1, 2),)), "00", 1.0, 2_000, Seed(107))
    assert stats.conclusive_wrong == 0
    assert stats.conclusive_correct + stats.inconclusive == 2_000


def test_run_experiment_is_deterministic_per_seed():
    a = run_experiment(8, None, None, 1.5, 500, Seed(108))
    b = run_experiment(8, None, None, 1.5, 500, Seed(108))
    assert a == b


@pytest.mark.parametrize("trials", [1, 10, 1_000])
def test_run_experiment_makes_at_most_two_generators(monkeypatch, trials):
    # One stream for the set-up draws and one for all trials, at any trial count.
    calls = []
    rng = Seed.rng
    monkeypatch.setattr(Seed, "rng", lambda self: calls.append(self.path) or rng(self))
    stats = run_experiment(8, None, None, 1.5, trials, Seed(114))
    assert stats.trials == trials
    assert len(calls) <= 2
    assert len(set(calls)) == len(calls)


def test_run_experiment_setup_and_trial_streams_are_separate():
    # Drawing the matching and x from the set-up stream must not shift the
    # trials: fixing them to the drawn values gives the same tally.
    drawn = run_experiment(8, None, None, 1.5, 2_000, Seed(115))
    fixed = run_experiment(
        8, Matching.parse(drawn.matching), drawn.x, 1.5, 2_000, Seed(115)
    )
    assert fixed == drawn


def test_run_experiment_validates_inputs():
    with pytest.raises(ValueError):
        run_experiment(4, FIG_MATCHING, None, 1.0, 100, Seed(109))
    with pytest.raises(ValueError, match="2 bits"):
        run_experiment(6, FIG_MATCHING, "01", 1.0, 100, Seed(109))
    # With a matching given, n = 2.0 ran and n = True was "matching covers 2 modes, expected True".
    for n in (2.0, True):
        with pytest.raises(TypeError, match="^n must be an integer"):
            run_experiment(n, Matching(((1, 2),)), "01", 1.0, 3, Seed(1))
    for matching in (Matching(((1, 2),)), None):
        with pytest.raises(ValueError, match="^n must be even, got 3"):
            run_experiment(3, matching, None, 1.0, 3, Seed(1))
