"""Complex linear-algebra substrate: pure states, unitaries, seeded randomness.

States and operators are immutable value objects backed by numpy arrays, and
every operation is a pure function of its inputs.  Randomness is always routed
through an explicit :class:`Seed`: runners name their streams with
:meth:`Seed.child` (one per experiment, or per independent part of one) and
hand each stream's ``np.random.Generator`` to the functions that draw, in a
fixed order, so a fixed seed reproduces bit-identical results.  A stream's
generator is seeded by NumPy's own ``SeedSequence(master_seed, spawn_key)``.
Scalar arguments are checked here: counts by :func:`_index`, reals by
:func:`_real`; a wrong type raises ``TypeError`` and a non-finite or
out-of-range value ``ValueError``, both naming the argument.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

# Tolerance for structural invariants (state norm, unitarity).
NORM_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Raised when two objects act on different numbers of modes/basis states."""


def _check_same_dim(da: int, db: int, what: str) -> None:
    if da != db:
        raise DimensionMismatchError(f"incompatible {what}: dimensions {da} and {db}")


def _index(value, what: str, low: int = 0) -> int:
    """``value`` as a Python int of at least ``low``; bools and non-integers are refused."""
    if type(value) is int and value >= low:  # the common case, without the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if value < low:
        bound = f"at least {low}" if low else "non-negative"
        raise ValueError(f"{what} must be {bound}, got {value}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a finite Python float; bools and non-reals are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, inf and ints past the double range
        raise ValueError(f"{what} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Seed:
    """Root of all randomness: a master seed and a path of named keys.

    ``Seed(master).child("mc", i)`` names one random stream; each key is a
    ``str`` or a non-negative ``int``.  The path becomes the ``spawn_key`` of
    a NumPy ``SeedSequence``, so distinct paths give independent streams.
    """

    master_seed: int
    path: tuple[str | int, ...] = ()

    def __post_init__(self) -> None:
        if (master := _index(self.master_seed, "master_seed")) >= 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        path = tuple(k if isinstance(k, str) else _index(k, "seed key") for k in self.path)
        object.__setattr__(self, "master_seed", master)
        object.__setattr__(self, "path", path)

    def child(self, *keys: str | int) -> "Seed":
        """The stream named by this path extended with ``keys``."""
        return Seed(self.master_seed, self.path + keys)

    def rng(self) -> np.random.Generator:
        """Fresh generator determined entirely by (master_seed, path)."""
        return np.random.default_rng(
            np.random.SeedSequence(self.master_seed, spawn_key=_spawn_key(self.path))
        )


def _spawn_key(path: tuple[str | int, ...]) -> tuple[int, ...]:
    """Path as a prefix-free word sequence: per key a type tag, a length, its bytes.

    Every word is below 2**32, so NumPy reads each as one entropy word.
    """
    words: list[int] = []
    for key in path:
        if isinstance(key, str):
            tag, data = 1, key.encode("utf-8")
        else:
            tag, data = 0, key.to_bytes((key.bit_length() + 7) // 8, "little")
        words += (tag, len(data), *data)
    return tuple(words)


def _as_complex_vector(values, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional vector")
    if arr.size < 1:
        raise ValueError(f"{name} must have at least one entry")
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector of complex amplitudes over a canonical basis of dimension d."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _as_complex_vector(self.amplitudes, "amplitudes")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |amp|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)


@dataclass(frozen=True, eq=False)
class UnitaryOp:
    """Dense d x d unitary matrix (U^dagger U = I entrywise within NORM_TOL)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("matrix must be square and non-empty")
        deviation = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if deviation > NORM_TOL:
            raise ValueError(f"matrix is not unitary: max |U^H U - I| = {deviation!r}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def normalized(amplitudes) -> PureState:
    """Build a PureState from an arbitrary non-zero amplitude vector."""
    arr = _as_complex_vector(amplitudes, "amplitudes")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return PureState(arr / norm)


def basis_state(d: int, k: int) -> PureState:
    """Canonical basis state labelled k, with k in 1..d (mode numbering)."""
    d, k = _index(d, "d", 1), _index(k, "k", 1)
    if k > d:
        raise ValueError(f"k must be at most d = {d}, got {k}")
    amps = np.zeros(d, dtype=np.complex128)
    amps[k - 1] = 1.0
    return PureState(amps)


def uniform_state(d: int) -> PureState:
    """Equal-amplitude superposition over all d basis states."""
    d = _index(d, "d", 1)
    return PureState(np.full(d, 1.0 / np.sqrt(d), dtype=np.complex128))


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b> = sum_k conj(a_k) b_k."""
    _check_same_dim(a.dim, b.dim, "states")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def apply_unitary(u: UnitaryOp, s: PureState) -> PureState:
    """|s'> = U|s>."""
    _check_same_dim(u.dim, s.dim, "operator and state")
    return PureState(u.matrix @ s.amplitudes)


def random_state(d: int, rng: np.random.Generator) -> PureState:
    """State drawn uniformly from the complex unit sphere in dimension d."""
    d = _index(d, "d", 1)
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(vec / np.linalg.norm(vec))


def random_unitary(d: int, rng: np.random.Generator) -> UnitaryOp:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phases fixed.

    Multiplying Q by the phases of diag(R) makes the decomposition unique and
    the resulting distribution exactly Haar.
    """
    d = _index(d, "d", 1)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return UnitaryOp(q)
