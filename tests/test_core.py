import dataclasses
import inspect
import math
import types
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohsim
from cohsim import (
    DimensionMismatchError,
    PureState,
    Seed,
    UnitaryOp,
    apply_unitary,
    basis_state,
    inner_product,
    normalized,
    random_state,
    random_unitary,
    uniform_state,
)
from cohsim.core import _spawn_key

HADAMARD = UnitaryOp(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))


def test_inner_product_by_hand():
    s = basis_state(3, 1)
    assert inner_product(s, s) == pytest.approx(1.0)
    assert inner_product(basis_state(3, 1), basis_state(3, 2)) == pytest.approx(0.0)
    # sum_k conj(1/2) * delta_{k,3} = 1/2
    assert inner_product(uniform_state(4), basis_state(4, 3)) == pytest.approx(0.5)


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_product(basis_state(2, 1), basis_state(3, 1))


def test_inner_product_magnitude_bounded():
    rng = Seed(100).rng()
    for _ in range(20):
        a = random_state(8, rng)
        b = random_state(8, rng)
        assert abs(inner_product(a, b)) <= 1.0 + 1e-10


def test_apply_identity_and_hadamard():
    s = random_state(5, Seed(1).rng())
    eye = UnitaryOp(np.eye(5, dtype=complex))
    np.testing.assert_allclose(apply_unitary(eye, s).amplitudes, s.amplitudes)
    out = apply_unitary(HADAMARD, basis_state(2, 1))
    np.testing.assert_allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_unitary_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_unitary(HADAMARD, basis_state(3, 1))


def test_unitary_preserves_inner_products():
    rng = Seed(4).rng()
    for _ in range(25):
        d = int(rng.integers(2, 33))
        u = random_unitary(d, rng)
        a = random_state(d, rng)
        b = random_state(d, rng)
        before = inner_product(a, b)
        after = inner_product(apply_unitary(u, a), apply_unitary(u, b))
        assert abs(after - before) < 1e-9


def test_random_unitary_unitarity_across_dimensions():
    rng = Seed(8).rng()
    for d in (1, 2, 3, 5, 8, 16, 33, 64):
        u = random_unitary(d, rng)
        deviation = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(d)))
        assert deviation <= 1e-10


def test_random_state_single_mode_has_unit_modulus():
    s = random_state(1, Seed(9).rng())
    assert abs(s.amplitudes[0]) == pytest.approx(1.0)


def test_randomness_is_deterministic_per_seed():
    seed = Seed(10).child(3)
    a = random_state(6, seed.rng())
    b = random_state(6, seed.rng())
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    u = random_unitary(6, seed.rng())
    v = random_unitary(6, seed.rng())
    np.testing.assert_array_equal(u.matrix, v.matrix)


def test_distinct_trial_indices_give_distinct_draws():
    a = random_state(6, Seed(11).child(0).rng())
    b = random_state(6, Seed(11).child(1).rng())
    assert not np.allclose(a.amplitudes, b.amplitudes)


def test_state_norm_is_validated():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


def test_normalized_builds_unit_states():
    s = normalized([3.0, 4.0])
    np.testing.assert_allclose(s.amplitudes, [0.6, 0.8])
    with pytest.raises(ValueError):
        normalized([0.0, 0.0])


# The unscaled sum of squares underflowed (1e-160, 1e-300) or overflowed (1e160).
@pytest.mark.parametrize(
    "amplitudes, unit",
    [([1e-160, 0.0], [1.0, 0.0]), ([5e-324, 0.0], [1.0, 0.0]), ([1e160], [1.0]),
     ([1e-300, 1e-300j], [0.5**0.5, 0.5**0.5 * 1j]), ([1e308, -1e308j], [0.5**0.5, -(0.5**0.5) * 1j])],
)
def test_normalized_scales_before_it_sums(amplitudes, unit):
    np.testing.assert_allclose(normalized(amplitudes).amplitudes, unit, rtol=1e-15)


@pytest.mark.parametrize(
    "amplitudes", [[0.0], [0.0, 0.0j], [math.nan, 1.0], [1.0, math.inf], [complex(0, math.inf)]]
)
def test_normalized_refuses_zero_and_non_finite_vectors(amplitudes):
    with pytest.raises(ValueError, match="^amplitudes must be finite and not all zero"):
        normalized(amplitudes)


def test_unitary_matrix_is_validated():
    with pytest.raises(ValueError):
        UnitaryOp(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        UnitaryOp(np.ones((2, 3)))


def test_seed_validation():
    # Seed's master_seed is a count in the refusal table below; these are its other bounds.
    with pytest.raises(ValueError):
        Seed(2**64)
    with pytest.raises(ValueError):
        Seed(1).child(-2)
    for bad_key in (False, 2.0, None, (1,)):
        with pytest.raises(TypeError):
            Seed(1).child(bad_key)


def test_seed_child_extends_the_path():
    s = Seed(21).child("a")
    assert s.path == ("a",)
    assert s.child(5) == Seed(21, ("a", 5))
    # child("a", 1) and child("a").child(1) name the same stream.
    assert Seed(21).child("a", 1) == Seed(21).child("a").child(1)
    np.testing.assert_array_equal(
        Seed(21).child("a", 1).rng().random(4), Seed(21).child("a").child(1).rng().random(4)
    )


def test_seed_without_a_path_is_numpy_default_rng_of_the_master_seed():
    np.testing.assert_array_equal(Seed(33).rng().random(8), np.random.default_rng(33).random(8))


# Seed.rng is NumPy's SeedSequence of the master seed and the path's spawn key;
# these pin that, so a NumPy release that changed SeedSequence would fail here.
@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("path", [(), ("keygen",), ("usd", 1, "charlie"), (2**40,), ("nœud→σ",)])
def test_seed_streams_are_numpy_seed_sequence_streams(master, path):
    ours = Seed(master).child(*path).rng()
    numpy_ss = np.random.SeedSequence(master, spawn_key=_spawn_key(path))
    np.testing.assert_array_equal(
        ours.bit_generator.seed_seq.generate_state(8), numpy_ss.generate_state(8)
    )
    theirs = np.random.default_rng(numpy_ss)
    np.testing.assert_array_equal(ours.integers(0, 2**63, 4), theirs.integers(0, 2**63, 4))
    np.testing.assert_array_equal(ours.random(4), theirs.random(4))
    direct = Seed(master, path).rng()
    np.testing.assert_array_equal(direct.random(4), Seed(master).child(*path).rng().random(4))


@pytest.mark.parametrize(
    "master, path, head",
    [
        (5, ("keygen",), [8851013023958489176, 5988380284351781657,
                          1758731300131739306, 6346734010945100703]),
        (2**64 - 1, ("usd", 1, "charlie"), [4388104325059307093, 3077427983348128254,
                                            4359092864905280595, 4847239470603552212]),
        (2**32, (7, "equality", 0), [3577659354808043165, 60576001547806458,
                                     3271260129212650866, 4221538673624306214]),
    ],
)
def test_named_streams_keep_their_recorded_draws(master, path, head):
    assert Seed(master).child(*path).rng().integers(0, 2**63, 4).tolist() == head


# Paths that a flat counter or a naive flattening of keys would confuse.  A flat
# (master, index) counter made (1000, 1000) and (2000, 0) the same stream.
_DISTINCT_PATHS = [
    (), (0,), (1,), ("0",), ("1",), ("",), (0, 0), ("a",), ("a", 1), ("a", "1"),
    ("a", 1, 0), ("a1",), (1, "a"), (2**32,), (0, 1), (1, 0), (256,), (1, 0, 0),
    ("usd", 0, "bob"), ("usd", 0, "charlie"), ("usd", 1, "bob"), ("mc", 0), ("mc", 1),
    ("mc", 2), ("lecam",), ("setup",), ("trials",), (1000,), (2000,), (1000, 1000),
    (2000, 0), ("\x00",), ("\x00\x00",), (2**64,), (2**64 - 1,),
]


def test_distinct_paths_give_distinct_streams():
    draws = {}
    for path in _DISTINCT_PATHS:
        head = tuple(Seed(7).child(*path).rng().integers(0, 2**63, 4))
        assert head not in draws, f"{path} repeats the stream of {draws.get(head)}"
        draws[head] = path
    assert len(draws) == len(set(_DISTINCT_PATHS))


def test_str_and_int_keys_differ_at_every_level():
    for prefix in ((), ("mc",), ("usd", 1)):
        as_int = Seed(5).child(*prefix, 3).rng().random(4)
        as_str = Seed(5).child(*prefix, "3").rng().random(4)
        assert not np.array_equal(as_int, as_str)


def test_distinct_master_seeds_give_distinct_streams():
    a = Seed(1).child("x").rng().random(4)
    b = Seed(2).child("x").rng().random(4)
    assert not np.array_equal(a, b)


def test_states_are_immutable():
    s = uniform_state(4)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_all_lists_exactly_the_public_names():
    # A stale name in __all__ breaks "from cohsim import *" but not "import cohsim".
    public = [
        name for name, value in vars(cohsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(cohsim.__all__) == sorted(public)



class Row(NamedTuple):
    """One public argument: its kind, and the public call with it (the other arguments valid)."""

    kind: str  # "count", "real", "complex" or "vector"
    call: Callable
    low: int = 1  # a count's smallest value
    form: str = ""  # a vector's "bits" or "matrix"; "" is a vector of numbers
    name: str = ""  # the name its errors use, where that is not the argument's


_STATE = cohsim.ModeCoherentState([1.0, 0.5])
_rng = lambda: Seed(13).rng()
_qds_field = lambda field: Row("real", lambda value: cohsim.QdsConfig(**{field: value}))

# The refusal table: every public count, real, complex and vector argument,
# keyed "public name:argument".  Before one policy held, transmitted_info
# returned nan for nan and 0.0 for True, basis_state(3, True) was |1>,
# effective_dimension_bound truncated delta = 2.5, check_success_condition took
# "0.1", float() let True through, complex() parsed "2" into amplitudes, and
# numpy read a bool among numbers as 1.
ARGUMENTS = {
    "Seed:master_seed": Row("count", Seed, low=0),
    "basis_state:d": Row("count", lambda d: cohsim.basis_state(d, 1)),
    "basis_state:k": Row("count", lambda k: cohsim.basis_state(3, k)),
    "uniform_state:d": Row("count", cohsim.uniform_state),
    "random_state:d": Row("count", lambda d: cohsim.random_state(d, _rng())),
    "random_unitary:d": Row("count", lambda d: cohsim.random_unitary(d, _rng())),
    "transmitted_info:d": Row("count", cohsim.transmitted_info),
    "effective_dimension_bound:d": Row("count", lambda d: cohsim.effective_dimension_bound(1.0, 5, d)),
    "effective_dimension_bound:delta": Row("count", lambda delta: cohsim.effective_dimension_bound(1.0, delta, 4)),
    "multinomial_oracle:n": Row("count", lambda n: cohsim.multinomial_oracle(cohsim.uniform_state(2), n), low=0),
    "sample_photon_numbers:trials": Row("count", lambda t: cohsim.sample_photon_numbers(_STATE, _rng(), t), low=0),
    "poissonized_repetition_oracle:trials": Row("count", lambda trials: cohsim.poissonized_repetition_oracle(
        cohsim.uniform_state(2), 1.0, _rng(), trials), low=0),
    "check_success_condition:d0": Row("count", lambda d0: cohsim.check_success_condition(0.1, 60.0, [1.0], d0),
                                      low=0),
    "click_count_stats:d0": Row("count", lambda d0: cohsim.click_count_stats(_STATE, d0), low=0),
    "decide:d0": Row("count", lambda d0: cohsim.decide(cohsim.ClickPattern([1, 0]), d0), low=0),
    "estimate_success_probability:trials": Row("count", lambda trials: cohsim.estimate_success_probability(
        lambda rng, size: np.zeros((size, 2), dtype=np.int64), trials, Seed(13))),
    "two_block_trial_generator:d0": Row("count", lambda d0: cohsim.two_block_trial_generator(d0, 0.5, 1, 0.5), low=0),
    "two_block_trial_generator:d1": Row("count", lambda d1: cohsim.two_block_trial_generator(1, 0.5, d1, 0.5), low=0),
    "random_matching:n": Row("count", lambda n: cohsim.random_matching(n, _rng()), low=2),
    "run_experiment:n": Row("count", lambda n: cohsim.run_experiment(n, None, None, 1.0, 1, Seed(13)), low=2),
    "run_experiment:trials": Row("count", lambda trials: cohsim.run_experiment(2, None, None, 1.0, trials, Seed(13))),
    "keygen:n": Row("count", lambda n: cohsim.keygen(n, _rng())),
    "QdsConfig:n": Row("count", lambda n: cohsim.QdsConfig(n=n)),
    "QdsConfig:message_bit": Row("count", lambda bit: cohsim.QdsConfig(message_bit=bit), low=0),
    "poisson_tail_bound:mu": Row("real", lambda mu: cohsim.poisson_tail_bound(mu, 1.0)),
    "poisson_tail_bound:delta": Row("real", lambda delta: cohsim.poisson_tail_bound(1.0, delta)),
    "effective_dimension_bound:mu": Row("real", lambda mu: cohsim.effective_dimension_bound(mu, 5, 4)),
    "solve_alpha_for_overlap:delta": Row("real", lambda delta: cohsim.solve_alpha_for_overlap(delta, 0.5)),
    "solve_alpha_for_overlap:target_delta_alpha": Row("real", lambda t: cohsim.solve_alpha_for_overlap(0.5, t)),
    "poissonized_repetition_oracle:mu": Row("real", lambda mu: cohsim.poissonized_repetition_oracle(
        cohsim.uniform_state(2), mu, _rng(), 1)),
    "check_success_condition:epsilon": Row("real", lambda e: cohsim.check_success_condition(e, 1.0, [1.0], 1)),
    "check_success_condition:mu": Row("real", lambda mu: cohsim.check_success_condition(0.1, mu, [1.0], 1)),
    "two_block_trial_generator:p_click_0": Row("real", lambda p: cohsim.two_block_trial_generator(1, p, 1, 0.5)),
    "two_block_trial_generator:p_click_1": Row("real", lambda p: cohsim.two_block_trial_generator(1, 0.5, 1, p)),
    **{f"QdsConfig:{field}": _qds_field(field) for field in ("alpha_sq", "f", "s_a", "s_v")},
    "QdsConfig:fraction": Row("real", lambda fraction: cohsim.QdsConfig(
        tamper_model="repudiation", tamper_params={"fraction": fraction})),
    "verify_message:threshold": Row("real", lambda threshold: cohsim.verify_message(
        "01", np.array([1, -1], dtype=np.int8), threshold)),
    "equality_test:f": Row("real", lambda f: cohsim.equality_test(_STATE, _STATE, f, _rng())),
    "usd_measure:reference_magnitude": Row("real", lambda beta: cohsim.usd_measure(_STATE, beta, _rng())),
    "map_state:alpha": Row("complex", lambda alpha: cohsim.map_state(cohsim.uniform_state(2), alpha)),
    "phase_encoded_state:alpha": Row("complex", lambda alpha: cohsim.phase_encoded_state("01", alpha)),
    "run_experiment:alpha": Row("complex", lambda alpha: cohsim.run_experiment(2, None, None, alpha, 1, Seed(13))),
    "overlap_coherent:delta": Row("complex", lambda delta: cohsim.overlap_coherent(delta, 1.0)),
    "overlap_coherent:alpha": Row("complex", lambda alpha: cohsim.overlap_coherent(0.5, alpha)),
    "PureState:amplitudes": Row("vector", cohsim.PureState),
    "normalized:amplitudes": Row("vector", cohsim.normalized),
    "UnitaryOp:matrix": Row("vector", cohsim.UnitaryOp, form="matrix"),
    "ModeCoherentState:mode_amplitudes": Row("vector", cohsim.ModeCoherentState),
    "parse_bits:bits": Row("vector", cohsim.parse_bits, form="bits"),
    "phase_encoded_state:bits": Row("vector", lambda v: cohsim.phase_encoded_state(v, 1.0), form="bits"),
    "verify_message:revealed_key": Row("vector", lambda v: cohsim.verify_message(v, [1, -1], 0.5), form="bits",
                                       name="bits"),
    "ClickPattern:clicks": Row("vector", cohsim.ClickPattern, form="bits"),
    "photon_count_probability:counts": Row("vector", lambda v: cohsim.photon_count_probability(_STATE, v)),
    "poisson_binomial_exact:probs": Row("vector", cohsim.poisson_binomial_exact),
    "lecam_bound_check:probs": Row("vector", lambda v: cohsim.lecam_bound_check(v, {0})),
    "check_success_condition:probs_qubit": Row("vector", lambda v: cohsim.check_success_condition(0.1, 60.0, v, 1)),
    "verify_message:signs": Row("vector", lambda v: cohsim.verify_message("01", v, 0.5)),
}
# Arguments checked by their own rules: beam_splitter interferes arrays or
# scalars of any shape, and run_experiment draws x when it is None.
UNCHECKED = {"beam_splitter:u", "beam_splitter:w", "run_experiment:x"}
RESULTS = {"DimensionBound", "ClickCountStats", "LecamCheck", "McEstimate", "SuccessConditionReport",
           "TrialStats", "EqualityTestReport", "VerificationVerdict", "QdsTranscript"}
_KINDS = {"int": "count", "float": "real", "complex": "complex", "np.ndarray": "vector", "_empty": "vector"}


def _refusals(name: str, row: Row):
    """(value, error, message start) for each value ``row`` must refuse, its errors naming ``name``."""
    if row.kind == "count":
        wrong = (math.nan, 2.5, 1.0, np.float64(1.0), True, "1", None)
        yield from ((v, TypeError, f"{name} must be an integer") for v in wrong)
        yield from ((v, ValueError, f"{name} must be") for v in {-1, row.low - 1} if v < row.low)
    elif row.kind in ("real", "complex"):
        noun = "a real number" if row.kind == "real" else "a complex number"
        yield from ((v, TypeError, f"{name} must be {noun}") for v in ("1", True, None, [1.0]))
        parts = [complex(0.5, math.nan), complex(math.inf, 0.5)] if row.kind == "complex" else []
        yield from ((v, ValueError, f"{name} must be finite") for v in [math.nan, math.inf, -math.inf, *parts])
    else:
        # A list or array of strings, or None among numbers, holds no numbers; nor does a
        # whole string, except as a bit string.  numpy read a bool among numbers as 1.
        wrap = (lambda v: [v]) if row.form == "matrix" else (lambda v: v)
        not_numbers = [wrap(["1", "0"]), None, wrap([None, 1.0]), np.array(["0", "1"]),
                       np.array([None, 1], dtype=object)]
        if row.form != "bits":
            not_numbers += ["1", wrap([True, False]), wrap([True, 0.5]), wrap([np.True_, 0.5])]
        yield from ((v, TypeError, f"{name} must") for v in not_numbers)
        ndim = 2 if row.form == "matrix" else 1
        shapes = [np.float64(1.0), np.ones((1,) * (ndim + 1)), np.ones((1,) * (ndim - 1) + (0,)),
                  [[1.0], [0.0, 1.0]]]
        yield from ((v, ValueError, f"{name} must be a non-empty") for v in shapes)


def _acceptances(row: Row):
    """Values of another type that ``row`` must take: numpy integers as counts, any finite number as complex."""
    if row.kind == "count":
        yield np.int64(max(row.low, 1))
    elif row.kind == "complex":
        yield from (1, 0.5, 0.5 - 0.5j, np.float64(0.5), np.complex128(0.5j))


def _cases(values):
    """One case per (key, value), its id the value's repr without spaces."""
    return [pytest.param(key, *value, id=f"{key}-{''.join(repr(value[0]).split())}")
            for key in sorted(ARGUMENTS) for value in values(key, ARGUMENTS[key])]


@pytest.mark.parametrize("key, value, error, start", _cases(
    lambda key, row: _refusals(row.name or key.partition(":")[2], row)))
def test_every_argument_refuses_what_its_kind_refuses(key, value, error, start):
    with pytest.raises(error, match=f"^{start}"):
        ARGUMENTS[key].call(value)


@pytest.mark.parametrize("key, value", _cases(lambda key, row: ((v,) for v in _acceptances(row))))
def test_every_argument_accepts_what_its_kind_accepts(key, value):
    ARGUMENTS[key].call(value)


def test_every_public_argument_has_a_row_of_its_kind():
    # The kind is read from the annotation; an unannotated argument is a vector.
    found = {
        f"{name}:{parameter.name}": kind
        for name in sorted(set(cohsim.__all__) - RESULTS)
        if inspect.isfunction(value := getattr(cohsim, name)) or dataclasses.is_dataclass(value)
        for parameter in inspect.signature(value).parameters.values()
        if (kind := _KINDS.get(getattr(parameter.annotation, "__name__", parameter.annotation)))
    }
    rows = {key: row.kind for key, row in ARGUMENTS.items() if key != "QdsConfig:fraction"}
    assert {key: kind for key, kind in found.items() if key not in UNCHECKED} == rows


def test_bit_vectors_take_bools_and_whole_numbers():
    np.testing.assert_array_equal(cohsim.ClickPattern([True, 0, 1.0]).clicks, [True, False, True])
    np.testing.assert_array_equal(cohsim.parse_bits(np.array([True, False])), [1, 0])


# Calls that got through, or failed in numpy's own terms, before vectors had one
# policy: (call, the error it raises now, the argument that error names).
VECTOR_REGRESSIONS = {
    "lecam-str": (lambda: cohsim.lecam_bound_check("0.1", {0}), TypeError, "probs"),
    "state-str": (lambda: cohsim.PureState(["1"]), TypeError, "amplitudes"),
    "mode-state-str": (lambda: cohsim.ModeCoherentState(["1", "2"]), TypeError, "mode_amplitudes"),
    "unitary-str": (lambda: cohsim.UnitaryOp([["1"]]), TypeError, "matrix"),
    "clicks-str": (lambda: cohsim.ClickPattern(["0", "1"]), TypeError, "clicks"),
    "condition-2d": (lambda: cohsim.check_success_condition(0.1, 60.0, [[0.5, 0.5], [0, 0]], 1),
                     ValueError, "probs_qubit"),
    "bits-2d": (lambda: cohsim.parse_bits([[0, 1], [1, 0]]), ValueError, "bits"),
    "counts-2d": (lambda: cohsim.photon_count_probability(_STATE, [[1], [0]]), ValueError, "counts"),
    "state-nan": (lambda: cohsim.PureState([math.nan, 1.0]), ValueError, "amplitudes"),
    "unitary-nan": (lambda: cohsim.UnitaryOp([[math.nan]]), ValueError, "matrix"),
    "unitary-overflow": (lambda: cohsim.UnitaryOp([[1e200, 0.0], [0.0, 1.0]]), ValueError, "matrix"),
    "normalized-inf": (lambda: cohsim.normalized([math.inf, 1.0]), ValueError, "amplitudes"),
    "clicks-half": (lambda: cohsim.ClickPattern([0.5, 0.0]), ValueError, "clicks"),
    "clicks-two": (lambda: cohsim.ClickPattern([2, 0]), ValueError, "clicks"),
    # k ln m overflowed, then lgamma raised a bare OverflowError.
    "counts-past-double": (lambda: cohsim.photon_count_probability(
        cohsim.ModeCoherentState([1e150]), [1e308]), ValueError, "counts"),
    "counts-past-2**53": (lambda: cohsim.photon_count_probability(
        cohsim.ModeCoherentState([1.0]), [2**53 + 2]), ValueError, "counts"),
    # The label reached float() and raised a bare OverflowError.
    "lecam-event-past-2**53": (lambda: cohsim.lecam_bound_check([0.1], {10**400}), ValueError, "event"),
    # Entries past 1 are refused before the sum, which would overflow here.
    "condition-overflowing-sum": (lambda: cohsim.check_success_condition(0.1, 60.0, [1e308, 1e308], 1),
                                  ValueError, "probs_qubit"),
}


@pytest.mark.parametrize("case", list(VECTOR_REGRESSIONS))
def test_vector_regressions(case):
    call, error, name = VECTOR_REGRESSIONS[case]
    with pytest.raises(error, match=f"^{name} must"):
        call()


def test_counts_up_to_two_to_the_53_are_priced():
    assert cohsim.photon_count_probability(cohsim.ModeCoherentState([1.0]), [2**53]) == 0.0
    assert cohsim.photon_count_probability(cohsim.ModeCoherentState([1.0]), (2.0,)) == pytest.approx(
        math.exp(-1.0) / 2)


@pytest.mark.parametrize(
    "build, value",
    [(cohsim.PureState, [1.0, 0.0j]), (cohsim.ModeCoherentState, [1.0, 0.5j]),
     (cohsim.ClickPattern, [True, False])],
)
def test_the_callers_array_stays_writable_and_the_value_unchanged(build, value):
    a = np.array(value)
    built = build(a)
    a[0] = a[1]
    (stored,) = (getattr(built, f.name) for f in dataclasses.fields(built))
    np.testing.assert_array_equal(stored, value)
    assert not stored.flags.writeable


def _finite(result) -> bool:
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    return bool(np.all(np.isfinite(result)))


@settings(max_examples=60)
@given(values=st.lists(
    st.one_of(st.floats(), st.integers(), st.booleans(), st.text(max_size=2), st.none()), max_size=4
))
def test_any_list_is_refused_by_name_or_gives_a_finite_result(values):
    # Refused means TypeError or ValueError of cohsim's own: numpy's UFuncTypeError
    # is a TypeError too, so the exception's module is checked as well.
    for key, row in sorted(ARGUMENTS.items()):
        if row.kind != "vector":
            continue
        try:
            result = row.call([values] if row.form == "matrix" else values)
        except (TypeError, ValueError) as exc:
            assert type(exc).__module__ == "builtins", (key, exc)
        else:
            assert _finite(result), (key, values, result)
