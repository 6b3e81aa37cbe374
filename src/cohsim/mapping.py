"""Coherent-state mapping of qubit protocols onto optical modes.

A qubit-protocol state |psi> = sum_k lambda_k |k> of dimension d becomes a
tensor product of d coherent states with per-mode amplitudes alpha*lambda_k.
That amplitude vector alone fixes the state, and |alpha|^2 is its summed power.
Unitaries act directly on the amplitude vector (linear optics keeps products
of coherent states coherent), and a canonical-basis measurement becomes one
threshold detector per mode.

Alongside the translation itself this module provides the analytic quantities
used to reason about such protocols:

* ``overlap_coherent``: the overlap law delta_alpha = exp[|alpha|^2 (delta-1)]
  relating the qubit-state overlap delta to the coherent-version overlap.
* ``transmitted_info``: information accounting, log2 of the state-space
  dimension.
* ``effective_dimension_bound`` / ``poisson_tail_bound``: the total photon
  number is Poisson with mean |alpha|^2, so the states live (up to a small
  tail probability) in the span of Fock states with photon number within a
  window Delta of the mean; the dimension of that span grows only like a
  polynomial in d, keeping the log-dimension O(log2 d).
* ``_xlog`` (0 ln 0 = 0), ``_poisson_log_pmf`` and ``_poisson_deviance`` (the
  Chernoff exponent): the one home of the Poisson photon-number law.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import PureState, UnitaryOp, _check_same_dim, _complex, _index, _power, _real, _vector

# Amplitude transmission of a balanced beam splitter.
_BALANCED = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class ModeCoherentState:
    """Product of coherent states over d modes with amplitudes alpha*lambda_k.

    The amplitude vector fixes the state; its summed power |alpha|^2 is the
    mean total photon number.
    """

    mode_amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _vector(self.mode_amplitudes, "mode_amplitudes", np.complex128)
        if not math.isfinite(power := _power(amps)):
            raise ValueError(f"mode power {power!r} must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "mode_amplitudes", amps)

    @property
    def dim(self) -> int:
        return int(self.mode_amplitudes.size)

    @property
    def mean_photon_number(self) -> float:
        """mu = |alpha|^2, the summed power and mean of the (Poisson) total photon number."""
        return _power(self.mode_amplitudes)

    @property
    def per_mode_mean_photons(self) -> np.ndarray:
        return np.abs(self.mode_amplitudes) ** 2


def map_state(s: PureState, alpha: complex) -> ModeCoherentState:
    """Translate a qubit-protocol state: mode k carries amplitude alpha*lambda_k."""
    return ModeCoherentState(_complex(alpha, "alpha") * s.amplitudes)


def map_unitary_apply(u: UnitaryOp, c: ModeCoherentState) -> ModeCoherentState:
    """Apply a linear-optics unitary: the amplitude vector transforms as U v.

    |alpha| is preserved because U preserves the vector norm.
    """
    _check_same_dim(u.dim, c.dim, "operator and coherent state")
    return ModeCoherentState(u.matrix @ c.mode_amplitudes)


def beam_splitter(u, w):
    """Balanced beam splitter: inputs u, w leave as ((u + w)/sqrt(2), (u - w)/sqrt(2)).

    Acts elementwise on amplitude arrays (or scalars) of any broadcastable
    shape, so one call interferes many mode pairs at once.  Equal inputs put
    exactly zero amplitude on the difference port.
    """
    return (u + w) * _BALANCED, (u - w) * _BALANCED


def parse_bits(bits) -> np.ndarray:
    """Normalize a bit string ('0110') or a vector of 0/1 numbers or bools into a uint8 array."""
    if isinstance(bits, str):
        if not bits or any(ch not in "01" for ch in bits):
            raise ValueError(f"bit string must be non-empty over {{0,1}}: {bits!r}")
        return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    return _vector(bits, "bits", bool).view(np.uint8)


def phase_encoded_state(bits, alpha: complex) -> ModeCoherentState:
    """Binary phase encoding: mode i carries (-1)^{bits_i} * alpha / sqrt(n).

    This is the coherent-state translation of the n-dimensional sign state
    (1/sqrt(n)) sum_i (-1)^{bits_i} |i>, used both by the hidden-matching
    sender and as the signature-key encoding.
    """
    signs = 1.0 - 2.0 * parse_bits(bits).astype(np.float64)
    return ModeCoherentState(signs * (_complex(alpha, "alpha") / math.sqrt(signs.size)))


def overlap_coherent(delta: complex, alpha: complex) -> complex:
    """Overlap of the coherent versions of two states with overlap delta.

    Equals exp[|alpha|^2 (delta - 1)]; obtained by multiplying the per-mode
    coherent overlaps and using the normalization of both state vectors.
    A |delta| above 1 by at most 1e-10 is rounding and is scaled onto the unit
    circle; an |alpha| whose square overflows is refused.
    """
    delta, size = _complex(delta, "delta"), abs(_complex(alpha, "alpha"))
    if not abs(delta) <= 1.0 + 1e-10:
        raise ValueError(f"|delta| must be at most 1, got {abs(delta)!r}")
    if not size <= math.sqrt(sys.float_info.max):
        raise ValueError(f"|alpha|^2 must stay within the double range, got alpha = {alpha!r}")
    return complex(np.exp(size**2 * (delta / max(1.0, abs(delta)) - 1.0)))


def solve_alpha_for_overlap(delta: float, target_delta_alpha: float) -> float:
    """Mean photon number |alpha|^2 making the coherent overlap hit a target.

    Inverts exp[mu (delta - 1)] = target for real delta in (0, 1) and target
    in (0, 1): mu = ln(target) / (delta - 1).
    """
    delta = _real(delta, "delta")
    target = _real(target_delta_alpha, "target_delta_alpha")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly in (0, 1), got {delta!r}")
    if not 0.0 < target < 1.0:
        raise ValueError(f"target_delta_alpha must lie strictly in (0, 1), got {target!r}")
    return math.log(target) / (delta - 1.0)


def transmitted_info(d: int) -> float:
    """Transmitted information in bits: log2 of the state-space dimension."""
    return math.log2(_index(d, "d", 1))


def _xlog(k, m: float) -> float:
    """k ln m, with 0 ln 0 = 0: k > 0 events at rate m = 0 have log-weight -inf."""
    return k * math.log(m) if m > 0.0 else (-math.inf if k else 0.0)


def _poisson_log_pmf(k, mu: float) -> float:
    """ln Pr(N = k) for N ~ Poisson(mu), mu >= 0; Poisson(0) is the point mass at 0."""
    return -mu + _xlog(k, mu) - math.lgamma(k + 1)


def _poisson_deviance(mu: float, delta: float) -> float:
    """(mu + delta) ln(1 + delta/mu) - delta, for mu > 0 and delta > -mu.

    This is the Chernoff exponent of Poisson(mu) at mu + delta.  Where delta
    is small against mu the two terms nearly cancel, so there the value is
    summed as a series in v = delta / (2 mu + delta) (Loader's bd0):
    delta [v + (1 + v) sum_{j>=1} v^{2j} / (2j + 1)].
    """
    v = 1.0 / (1.0 + 2.0 * (mu / delta))
    if abs(v) >= 0.1:
        return (mu + delta) * math.log1p(delta / mu) - delta
    total, power = 0.0, 1.0
    for j in range(1, 12):  # v^2 < 0.01, so by the tenth term the rest is below one ulp of the sum
        power *= v * v
        if (nxt := total + power / (2 * j + 1)) == total:
            break
        total = nxt
    return delta * (v + (1.0 + v) * total)


def poisson_tail_bound(mu: float, delta: float) -> float:
    """Upper bound on P(|N - mu| >= delta) for N ~ Poisson(mu).

    Returns min(1, 2 e^{-mu} (e mu / (mu + delta))^{mu + delta}), evaluated in
    log space as ln 2 - D with D = (mu + delta) ln(1 + delta/mu) - delta (see
    :func:`_poisson_deviance`).  The raw expression exceeds 1 for small
    windows, hence the clamp; it is a probability bound either way.
    """
    mu, delta = _real(mu, "mu"), _real(delta, "delta")  # on nan the deviance series never ends
    if mu < 0.0:
        raise ValueError(f"mu must be non-negative, got {mu!r}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if mu == 0.0:
        return 0.0
    log_raw = math.log(2.0) - _poisson_deviance(mu, delta)
    if log_raw >= 0.0:
        return 1.0
    return math.exp(log_raw)


@dataclass(frozen=True)
class DimensionBound:
    """Effective-dimension certificate for a photon-number window of half-width delta.

    ``d_alpha_upper`` bounds the dimension of the span of Fock states over d
    modes whose total photon number lies within delta of the mean.  It is the
    exact integer while its log2 is below 53, so any JSON reader holds it
    exactly, and None above, where ``log2_d_alpha_upper`` carries the bound.
    ``tail_probability_upper`` bounds the probability of falling outside that
    window.
    """

    delta: int
    d_alpha_upper: int | None
    log2_d_alpha_upper: float
    tail_probability_upper: float

    def __post_init__(self) -> None:
        if self.d_alpha_upper is not None and self.d_alpha_upper < 1:
            raise ValueError("d_alpha_upper must be at least 1")
        if not 0.0 <= self.tail_probability_upper <= 1.0:
            raise ValueError("tail_probability_upper must lie in [0, 1]")


def _log_comb(n: int, k: int) -> float:
    """ln C(n, k) from log1p terms, never as a difference of near-equal log-gammas."""
    a, b = sorted((k, n - k))
    if a < 64:  # the sum of ln(1 + b / j) over j = 1..a
        return math.fsum(math.log1p(b / j) for j in range(1, a + 1))
    rest = lambda z: (1.0 - 1.0 / (30.0 * z * z)) / (12.0 * z)  # ln z! - Stirling, to O(z^-5)
    return (a * math.log1p(b / a) + (b + 0.5) * math.log1p(a / b)
            - 0.5 * math.log(2.0 * math.pi * a) + rest(n) - rest(a) - rest(b))


def effective_dimension_bound(mu: float, delta: int, d: int) -> DimensionBound:
    """Bound the dimension of the effectively occupied state space.

    Photon numbers n in the window give at most 2*delta values of n, and each
    n contributes a span of dimension C(n + d - 1, d - 1), maximal at the top
    of the window.  For non-integer mu the top of the window is taken as
    floor(mu) + delta (a conservative integer photon count):

        d_alpha_upper = 2 * delta * C(floor(mu) + delta + d - 1, d - 1)

    The log2 value comes from :func:`_log_comb`, so the sweep never overflows,
    and the tail probability comes from :func:`poisson_tail_bound`.
    """
    mu, delta, d = _real(mu, "mu"), _index(delta, "delta", 1), _index(d, "d", 1)
    if mu < 0.0:
        raise ValueError(f"mu must be non-negative, got {mu!r}")

    n_top = math.floor(mu) + delta + d - 1
    k = d - 1
    if n_top > sys.float_info.max:
        raise ValueError("floor(mu) + delta + d must stay within the double range")
    log2_upper = math.log2(2 * delta) + _log_comb(n_top, k) / math.log(2.0)
    # The exact count can run to millions of digits; build it only when small.
    d_upper = 2 * delta * math.comb(n_top, k) if log2_upper < 53.0 else None
    return DimensionBound(
        delta=delta,
        d_alpha_upper=d_upper,
        log2_d_alpha_upper=log2_upper,
        tail_probability_upper=poisson_tail_bound(mu, delta),
    )
