"""Complex linear-algebra substrate: pure states, unitaries, seeded randomness.

States and operators are immutable value objects backed by numpy arrays, and
every operation is a pure function of its inputs.  Randomness is always routed
through an explicit :class:`Seed`: runners name their streams with
:meth:`Seed.child` (one per experiment, or per independent part of one) and
hand each stream's ``np.random.Generator`` to the functions that draw, in a
fixed order, so a fixed seed reproduces bit-identical results.  A stream's
generator is seeded by NumPy's own ``SeedSequence(master_seed, spawn_key)``.
Arguments are checked by :func:`_index` (counts), :func:`_real` (reals), :func:`_complex`
(complex numbers) and :func:`_vector` (a new array of numbers, never parsed from strings):
a wrong type raises ``TypeError``, a wrong shape or value ``ValueError``, both naming it.
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


def _complex(value, what: str) -> complex:
    """``value`` as a finite Python complex; bools, strings and non-numbers are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise TypeError(f"{what} must be a complex number, got {value!r}")
    return complex(_real(value.real, what), _real(value.imag, what))


def _vector(values, what: str, dtype=np.float64, ndim: int = 1) -> np.ndarray:
    """``values`` as a new non-empty ``dtype`` array with ``ndim`` axes; entries must be numbers.

    Bools pass only as bits, into a bool ``dtype`` where every entry must be 0
    or 1; complex entries only into a complex one; into an integer one only
    integers that fit it.  Domain checks are the caller's.
    numpy reads a bool among numbers as 1, so input not in an ndarray is scanned per entry.
    """
    if type(values) is np.ndarray and values.dtype == dtype and values.ndim == ndim and values.size:
        return values.copy()  # the common case, without the element checks
    shape, kind = ("vector", "matrix")[ndim - 1], np.dtype(dtype).kind
    try:
        arr = np.asarray(values)
        arr = np.asarray(arr.tolist()) if arr.dtype == object else arr  # None stays an object
    except ValueError:  # ragged nesting
        raise ValueError(f"{what} must be a non-empty {shape}, got rows of unequal length") from None
    noun = {"b": "bools or 0/1 numbers", "i": "integers", "f": "real numbers", "c": "numbers"}[kind]
    if arr.size and arr.dtype.kind not in {"b": "biuf", "i": "iu", "f": "iuf", "c": "iufc"}[kind]:
        raise TypeError(f"{what} must hold {noun}, got {arr.dtype} entries")  # an empty array has no entry type
    if kind == "i" and arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(dtype).max:
        raise TypeError(f"{what} must hold {noun} of at most {np.iinfo(dtype).max}, got {arr.max()}")
    if kind != "b" and not isinstance(values, np.ndarray) and not {bool, np.bool_}.isdisjoint(
        map(type, np.asarray(values, dtype=object).flat)
    ):
        raise TypeError(f"{what} must hold {noun}, got a bool entry")
    if arr.ndim != ndim or arr.size < 1:
        raise ValueError(f"{what} must be a non-empty {shape}, got shape {arr.shape}")
    if kind == "b" and not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{what} must be 0 or 1 in every entry")
    return arr.astype(dtype)


def _power(amps: np.ndarray) -> float:
    """sum |a_k|^2; inf, not an overflow warning, past the double range."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(amps) ** 2))


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
        if not isinstance(self.path, tuple):  # a str or a dict would give one key per character or key
            raise TypeError(f"path must be a tuple of seed keys, got {self.path!r}")
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


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector of complex amplitudes over a canonical basis of dimension d."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _vector(self.amplitudes, "amplitudes", np.complex128)
        if not abs((norm_sq := _power(amps)) - 1.0) <= NORM_TOL:
            raise ValueError(f"amplitudes must have unit norm, got sum |amp|^2 = {norm_sq!r}")
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
        mat = _vector(self.matrix, "matrix", np.complex128, ndim=2)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        with np.errstate(all="ignore"):  # nan, inf or an overflow leave the deviation non-finite
            deviation = float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))
        if not deviation <= NORM_TOL:
            raise ValueError(f"matrix must be unitary, got max |U^H U - I| = {deviation!r}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def normalized(amplitudes) -> PureState:
    """PureState of a finite non-zero vector; dividing first by its largest |Re| or |Im| keeps squares in range."""
    parts = _vector(amplitudes, "amplitudes", np.complex128).view(np.float64)  # Re and Im, interleaved
    if not 0.0 < (scale := float(np.abs(parts).max())) < np.inf:
        raise ValueError(f"amplitudes must be finite and not all zero, got largest part {scale!r}")
    parts /= scale  # a real division: a complex one by a subnormal scale overflows
    return PureState((parts / np.sqrt(_power(parts))).view(np.complex128))


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
    return normalized(rng.standard_normal(d) + 1j * rng.standard_normal(d))


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
