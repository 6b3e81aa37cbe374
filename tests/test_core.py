import math
import types

import numpy as np
import pytest

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
