import dataclasses
import inspect
import math
import types

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


def test_inner_product_identity():
    s = basis_state(3, 1)
    assert inner_product(s, s) == pytest.approx(1.0)


def test_inner_product_orthogonal_basis():
    assert inner_product(basis_state(3, 1), basis_state(3, 2)) == pytest.approx(0.0)


def test_inner_product_uniform_against_basis():
    # sum_k conj(1/2) * delta_{k,3} = 1/2, evaluated by hand
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


def test_apply_identity():
    s = random_state(5, Seed(1).rng())
    eye = UnitaryOp(np.eye(5, dtype=complex))
    np.testing.assert_allclose(apply_unitary(eye, s).amplitudes, s.amplitudes)


def test_hadamard_on_first_basis_state():
    out = apply_unitary(HADAMARD, basis_state(2, 1))
    np.testing.assert_allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_unitary_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_unitary(HADAMARD, basis_state(3, 1))


def test_random_unitary_preserves_norm():
    rng = Seed(2).rng()
    u = random_unitary(16, rng)
    s = random_state(16, rng)
    out = apply_unitary(u, s)
    assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)


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


def test_zero_dimension_rejected():
    with pytest.raises(ValueError):
        random_state(0, Seed(12).rng())
    with pytest.raises(ValueError):
        random_unitary(0, Seed(12).rng())
    with pytest.raises(ValueError):
        basis_state(0, 1)


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
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(2**64)
    with pytest.raises(ValueError):
        Seed(1).child(-2)
    for bad in (True, 1.5, "7"):
        with pytest.raises(TypeError):
            Seed(bad)
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


# Paths that a flat counter or a naive flattening of keys would confuse.
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


def test_the_counter_collision_of_flat_offsets_is_gone():
    # A flat (master, index) counter made Seed(7, 1000).derive(1000) and
    # Seed(7, 2000).derive(0) the same stream.
    a = Seed(7).child(1000, 1000).rng().random(4)
    b = Seed(7).child(2000, 0).rng().random(4)
    assert not np.array_equal(a, b)


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


# Each function taking a count or a dimension: (argument name, call with that
# argument[, its smallest valid value where that is not 1]).
POSITIVE_INTEGER_ARGUMENTS = {
    "basis_state": ("d", lambda d: cohsim.basis_state(d, 1)),
    "basis_state:k": ("k", lambda k: cohsim.basis_state(3, k)),
    "uniform_state": ("d", cohsim.uniform_state),
    "random_state": ("d", lambda d: cohsim.random_state(d, Seed(13).rng())),
    "random_unitary": ("d", lambda d: cohsim.random_unitary(d, Seed(13).rng())),
    "transmitted_info": ("d", cohsim.transmitted_info),
    "effective_dimension_bound": ("d", lambda d: cohsim.effective_dimension_bound(1.0, 5, d)),
    "effective_dimension_bound:delta": ("delta", lambda delta: cohsim.effective_dimension_bound(1.0, delta, 4)),
    "estimate_success_probability": ("trials", lambda trials: cohsim.estimate_success_probability(
        lambda rng, size: np.zeros((size, 2), dtype=np.int64), trials, Seed(13))),
    "run_experiment": ("trials", lambda trials: cohsim.run_experiment(2, None, None, 1.0, trials, Seed(13))),
    "random_matching": ("n", lambda n: cohsim.random_matching(n, Seed(13).rng()), 2),
    "keygen": ("n", lambda n: cohsim.keygen(n, Seed(13).rng())),
    "QdsConfig": ("n", lambda n: cohsim.QdsConfig(n=n)),
}


# transmitted_info returned nan for nan, 1.32 for 2.5 and 0.0 for True; the
# states and unitaries raised numpy TypeErrors on 2.5 or nan that did not name d.
# basis_state(3, True) returned |1>, and effective_dimension_bound truncated delta = 2.5.
@pytest.mark.parametrize(
    "value, error",
    [(math.nan, TypeError), (2.5, TypeError), (True, TypeError), (0, ValueError), (-1, ValueError)],
)
@pytest.mark.parametrize("function", sorted(POSITIVE_INTEGER_ARGUMENTS))
def test_counts_and_dimensions_must_be_positive_integers(function, value, error):
    name, call, *_ = POSITIVE_INTEGER_ARGUMENTS[function]
    with pytest.raises(error, match=f"^{name} must be"):
        call(value)


@pytest.mark.parametrize("function", sorted(POSITIVE_INTEGER_ARGUMENTS))
def test_counts_and_dimensions_accept_a_numpy_one(function):
    _, call, *smallest = POSITIVE_INTEGER_ARGUMENTS[function]
    call(np.int64(smallest[0] if smallest else 1))


# Counts for which 0 is valid: (argument name, call with that argument).
NON_NEGATIVE_INTEGER_ARGUMENTS = {
    "multinomial_oracle": ("n", lambda n: cohsim.multinomial_oracle(cohsim.uniform_state(2), n)),
    "two_block_trial_generator:d0": ("d0", lambda d0: cohsim.two_block_trial_generator(d0, 0.5, 1, 0.5)),
    "two_block_trial_generator:d1": ("d1", lambda d1: cohsim.two_block_trial_generator(1, 0.5, d1, 0.5)),
}


# multinomial_oracle accepted True and raised an unnamed TypeError on 1.5; a
# negative block size built a sampler that failed at its first draw.
@pytest.mark.parametrize(
    "value, error", [(math.nan, TypeError), (2.5, TypeError), (True, TypeError), (-1, ValueError)]
)
@pytest.mark.parametrize("function", sorted(NON_NEGATIVE_INTEGER_ARGUMENTS))
def test_counts_must_be_non_negative_integers(function, value, error):
    name, call = NON_NEGATIVE_INTEGER_ARGUMENTS[function]
    with pytest.raises(error, match=f"^{name} must be"):
        call(value)


@pytest.mark.parametrize("function", sorted(NON_NEGATIVE_INTEGER_ARGUMENTS))
def test_counts_accept_a_numpy_zero(function):
    _, call = NON_NEGATIVE_INTEGER_ARGUMENTS[function]
    call(np.int64(0))


def _qds_field(field):
    return field, lambda value: cohsim.QdsConfig(**{field: value})


# Each real argument: (argument name, call with that argument, the others valid).
REAL_ARGUMENTS = {
    "poisson_tail_bound:mu": ("mu", lambda mu: cohsim.poisson_tail_bound(mu, 1.0)),
    "poisson_tail_bound:delta": ("delta", lambda delta: cohsim.poisson_tail_bound(1.0, delta)),
    "effective_dimension_bound:mu": ("mu", lambda mu: cohsim.effective_dimension_bound(mu, 5, 4)),
    "solve_alpha_for_overlap:delta": ("delta", lambda delta: cohsim.solve_alpha_for_overlap(delta, 0.5)),
    "solve_alpha_for_overlap:target_delta_alpha": (
        "target_delta_alpha", lambda target: cohsim.solve_alpha_for_overlap(0.5, target)),
    "check_success_condition:epsilon": (
        "epsilon", lambda epsilon: cohsim.check_success_condition(epsilon, 1.0, [1.0], 1)),
    "check_success_condition:mu": ("mu", lambda mu: cohsim.check_success_condition(0.1, mu, [1.0], 1)),
    "two_block_trial_generator:p_click_0": (
        "p_click_0", lambda p: cohsim.two_block_trial_generator(1, p, 1, 0.5)),
    "two_block_trial_generator:p_click_1": (
        "p_click_1", lambda p: cohsim.two_block_trial_generator(1, 0.5, 1, p)),
    "poissonized_repetition_oracle:mu": ("mu", lambda mu: cohsim.poissonized_repetition_oracle(
        cohsim.uniform_state(2), mu, Seed(13).rng(), 1)),
    **{f"QdsConfig:{field}": _qds_field(field) for field in ("alpha_sq", "f", "s_a", "s_v")},
    "QdsConfig:fraction": ("fraction", lambda fraction: cohsim.QdsConfig(
        tamper_model="repudiation", tamper_params={"fraction": fraction})),
    "verify_message:threshold": ("threshold", lambda threshold: cohsim.verify_message(
        "01", np.array([1, -1], dtype=np.int8), threshold)),
    "equality_test:f": ("f", lambda f: cohsim.equality_test(
        cohsim.phase_encoded_state("01", 1.0), cohsim.phase_encoded_state("01", 1.0), f,
        Seed(13).rng())),
    "usd_measure:reference_magnitude": ("reference_magnitude", lambda beta: cohsim.usd_measure(
        cohsim.ModeCoherentState([1.0, -1.0]), beta, Seed(13).rng())),
}


# check_success_condition("0.1", "3", [1.0], 1) returned a report, float() let
# True through, and poissonized_repetition_oracle raised numpy's unnamed error on nan.
@pytest.mark.parametrize("value", ["1", True, None])
@pytest.mark.parametrize("function", sorted(REAL_ARGUMENTS))
def test_reals_refuse_a_wrong_type(function, value):
    name, call = REAL_ARGUMENTS[function]
    with pytest.raises(TypeError, match=f"^{name} must be"):
        call(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("function", sorted(REAL_ARGUMENTS))
def test_reals_refuse_a_non_finite_value(function, value):
    name, call = REAL_ARGUMENTS[function]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(value)


# Each complex argument: (argument name, call with that argument, the others valid).
COMPLEX_ARGUMENTS = {
    "map_state:alpha": ("alpha", lambda alpha: cohsim.map_state(cohsim.uniform_state(2), alpha)),
    "phase_encoded_state:alpha": ("alpha", lambda alpha: cohsim.phase_encoded_state("01", alpha)),
    "run_experiment:alpha": ("alpha", lambda alpha: cohsim.run_experiment(
        2, None, None, alpha, 1, Seed(13))),
    "overlap_coherent:delta": ("delta", lambda delta: cohsim.overlap_coherent(delta, 1.0)),
    "overlap_coherent:alpha": ("alpha", lambda alpha: cohsim.overlap_coherent(0.5, alpha)),
}


# complex() parses strings: overlap_coherent("0.5", 1.0) returned 0.607 and
# phase_encoded_state("01", "2") built a state with amplitudes +-1.414.
@pytest.mark.parametrize("value", ["1", True, None, [1.0]])
@pytest.mark.parametrize("function", sorted(COMPLEX_ARGUMENTS))
def test_complex_arguments_refuse_a_wrong_type(function, value):
    name, call = COMPLEX_ARGUMENTS[function]
    with pytest.raises(TypeError, match=f"^{name} must be a complex number"):
        call(value)


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(math.inf, 0.5)]
)
@pytest.mark.parametrize("function", sorted(COMPLEX_ARGUMENTS))
def test_complex_arguments_refuse_a_non_finite_value(function, value):
    name, call = COMPLEX_ARGUMENTS[function]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(value)


@pytest.mark.parametrize("value", [1, 0.5, 0.5 - 0.5j, np.float64(0.5), np.complex128(0.5j)])
@pytest.mark.parametrize("function", sorted(COMPLEX_ARGUMENTS))
def test_complex_arguments_accept_any_finite_number(function, value):
    _, call = COMPLEX_ARGUMENTS[function]
    call(value)


# Each vector argument: (argument name, call with that argument, the others valid).
# A vector of bools is refused everywhere but in BIT_VECTORS.
VECTOR_ARGUMENTS = {
    "PureState:amplitudes": ("amplitudes", cohsim.PureState),
    "normalized:amplitudes": ("amplitudes", cohsim.normalized),
    "UnitaryOp:matrix": ("matrix", cohsim.UnitaryOp),
    "ModeCoherentState:mode_amplitudes": ("mode_amplitudes", cohsim.ModeCoherentState),
    "parse_bits:bits": ("bits", cohsim.parse_bits),
    "phase_encoded_state:bits": ("bits", lambda v: cohsim.phase_encoded_state(v, 1.0)),
    "ClickPattern:clicks": ("clicks", cohsim.ClickPattern),
    "photon_count_probability:counts": ("counts", lambda v: cohsim.photon_count_probability(
        cohsim.ModeCoherentState([1.0, 0.5]), v)),
    "poisson_binomial_exact:probs": ("probs", cohsim.poisson_binomial_exact),
    "lecam_bound_check:probs": ("probs", lambda v: cohsim.lecam_bound_check(v, {0})),
    "check_success_condition:probs_qubit": (
        "probs_qubit", lambda v: cohsim.check_success_condition(0.1, 60.0, v, 1)),
    "verify_message:signs": ("signs", lambda v: cohsim.verify_message("01", v, 0.5)),
}
BIT_VECTORS = {"parse_bits:bits", "phase_encoded_state:bits", "ClickPattern:clicks"}
MATRICES = {"UnitaryOp:matrix"}  # two axes; every other argument is a vector
_NOT_NUMBERS = [["1", "0"], None, [None, 1.0], np.array(["1", "0"]), np.array([1.0, None])]


@pytest.mark.parametrize(
    "function, value",
    [(f, v) for f in sorted(VECTOR_ARGUMENTS) for v in _NOT_NUMBERS + ["10"] * (f not in BIT_VECTORS)],
)
def test_vectors_refuse_entries_that_are_not_numbers(function, value):
    # A whole string is a TypeError too, except where it is a bit string.
    name, call = VECTOR_ARGUMENTS[function]
    with pytest.raises(TypeError, match=f"^{name} must"):
        call([value] if function in MATRICES and isinstance(value, list) else value)


@pytest.mark.parametrize("function", sorted(set(VECTOR_ARGUMENTS) - BIT_VECTORS))
def test_vectors_of_numbers_refuse_bools(function):
    name, call = VECTOR_ARGUMENTS[function]
    value = np.array([True, False])
    with pytest.raises(TypeError, match=f"^{name} must"):
        call([value, value] if function in MATRICES else value)


@pytest.mark.parametrize("shape", ["0-d", "one axis too many", "empty"])
@pytest.mark.parametrize("function", sorted(VECTOR_ARGUMENTS))
def test_vectors_refuse_a_wrong_shape(function, shape):
    name, call = VECTOR_ARGUMENTS[function]
    ndim = 2 if function in MATRICES else 1
    value = {"0-d": np.float64(1.0), "one axis too many": np.ones((1,) * (ndim + 1)),
             "empty": np.ones((1,) * (ndim - 1) + (0,))}[shape]
    with pytest.raises(ValueError, match=f"^{name} must be a non-empty"):
        call(value)


@pytest.mark.parametrize("function", sorted(VECTOR_ARGUMENTS))
def test_vectors_refuse_ragged_rows(function):
    name, call = VECTOR_ARGUMENTS[function]
    with pytest.raises(ValueError, match=f"^{name} must be a non-empty"):
        call([[1.0], [0.0, 1.0]])


def test_bit_vectors_take_bools_and_whole_numbers():
    np.testing.assert_array_equal(cohsim.ClickPattern([True, 0, 1.0]).clicks, [True, False, True])
    np.testing.assert_array_equal(cohsim.parse_bits(np.array([True, False])), [1, 0])


_STATE = cohsim.ModeCoherentState([1.0, 0.5])

# Each call that got through, or failed in numpy's own terms, before vectors
# had one policy: (call, the error it raises now, the argument that error names).
VECTOR_REGRESSIONS = {
    "condition-str": (lambda: cohsim.check_success_condition(0.1, 60.0, "1", 1), TypeError, "probs_qubit"),
    "lecam-str": (lambda: cohsim.lecam_bound_check("0.1", {0}), TypeError, "probs"),
    "state-str": (lambda: cohsim.PureState(["1"]), TypeError, "amplitudes"),
    "mode-state-str": (lambda: cohsim.ModeCoherentState(["1", "2"]), TypeError, "mode_amplitudes"),
    "unitary-str": (lambda: cohsim.UnitaryOp([["1"]]), TypeError, "matrix"),
    "condition-2d": (lambda: cohsim.check_success_condition(0.1, 60.0, [[0.5, 0.5], [0, 0]], 1),
                     ValueError, "probs_qubit"),
    "bits-2d": (lambda: cohsim.parse_bits([[0, 1], [1, 0]]), ValueError, "bits"),
    "mode-state-bool": (lambda: cohsim.ModeCoherentState([True, False]), TypeError, "mode_amplitudes"),
    "pmf-bool": (lambda: cohsim.poisson_binomial_exact([True, False]), TypeError, "probs"),
    "counts-bool": (lambda: cohsim.photon_count_probability(_STATE, [True, False]), TypeError, "counts"),
    "state-nan": (lambda: cohsim.PureState([math.nan, 1.0]), ValueError, "amplitudes"),
    "unitary-nan": (lambda: cohsim.UnitaryOp([[math.nan]]), ValueError, "matrix"),
    "unitary-overflow": (lambda: cohsim.UnitaryOp([[1e200, 0.0], [0.0, 1.0]]), ValueError, "matrix"),
    "normalized-inf": (lambda: cohsim.normalized([math.inf, 1.0]), ValueError, "amplitudes"),
    "clicks-str": (lambda: cohsim.ClickPattern(["0", "1"]), TypeError, "clicks"),
    "clicks-half": (lambda: cohsim.ClickPattern([0.5, 0.0]), ValueError, "clicks"),
    "clicks-two": (lambda: cohsim.ClickPattern([2, 0]), ValueError, "clicks"),
    "counts-2d": (lambda: cohsim.photon_count_probability(_STATE, [[1], [0]]), ValueError, "counts"),
    "counts-str": (lambda: cohsim.photon_count_probability(_STATE, ["1", "0"]), TypeError, "counts"),
    # k ln m overflowed, then lgamma raised a bare OverflowError.
    "counts-past-double": (lambda: cohsim.photon_count_probability(
        cohsim.ModeCoherentState([1e150]), [1e308]), ValueError, "counts"),
    "counts-past-2**53": (lambda: cohsim.photon_count_probability(
        cohsim.ModeCoherentState([1.0]), [2**53 + 2]), ValueError, "counts"),
    # numpy read the bool among numbers as 1.0.
    "mode-state-bool-among-numbers": (lambda: cohsim.ModeCoherentState([True, 0.5]), TypeError,
                                      "mode_amplitudes"),
    "pmf-numpy-bool-among-numbers": (lambda: cohsim.poisson_binomial_exact([np.True_, 0.5]), TypeError,
                                     "probs"),
    # The label reached float() and raised a bare OverflowError.
    "lecam-event-past-2**53": (lambda: cohsim.lecam_bound_check([0.1], {10**400}), ValueError, "event"),
    # Entries past 1 are refused before the sum, which would overflow here.
    "condition-overflowing-sum": (lambda: cohsim.check_success_condition(0.1, 60.0, [1e308, 1e308], 1),
                                  ValueError, "probs_qubit"),
    # Both raised ValueError from the 0/1 test when no entry was a number.
    "bits-str-array": (lambda: cohsim.parse_bits(np.array(["0", "1"])), TypeError, "bits"),
    "bits-none-object-array": (lambda: cohsim.parse_bits(np.array([None, 1], dtype=object)), TypeError, "bits"),
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


def test_poisson_binomial_of_no_probabilities_is_refused():
    # The empty vector had the pmf [1.0]; every vector argument now needs an entry.
    with pytest.raises(ValueError, match="^probs must be a non-empty vector"):
        cohsim.poisson_binomial_exact([])


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
    for function in sorted(VECTOR_ARGUMENTS):
        _, call = VECTOR_ARGUMENTS[function]
        try:
            result = call([values] if function in MATRICES else values)
        except (TypeError, ValueError) as exc:
            assert type(exc).__module__ == "builtins", (function, exc)
        else:
            assert _finite(result), (function, values, result)


def test_every_public_vector_argument_has_a_row():
    names = {"amplitudes", "mode_amplitudes", "matrix", "probs", "probs_qubit", "counts", "bits",
             "clicks", "signs"}
    found = {
        f"{public}:{parameter}"
        for public, value in ((name, getattr(cohsim, name)) for name in cohsim.__all__)
        if inspect.isfunction(value) or dataclasses.is_dataclass(value)
        for parameter in inspect.signature(value).parameters
        if parameter in names
    }
    assert found == set(VECTOR_ARGUMENTS)
