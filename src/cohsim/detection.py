"""Threshold detection and photon-number statistics of mode coherent states.

The measurement model is one ideal threshold detector per mode (unit
efficiency, no dark counts): "click" is the complement of the vacuum
projection, so mode k of a coherent product state clicks independently with
probability 1 - exp(-|amplitude_k|^2).

Photon counts, when needed, are exact: mode k carries Poisson(|amplitude_k|^2)
photons independently, which makes the total Poisson(|alpha|^2).  The same
joint count law arises from a Poisson-distributed number of repetitions of the
single-photon protocol, each repetition landing in mode k with the original
outcome probability |lambda_k|^2; ``multinomial_oracle`` and
``poissonized_repetition_oracle`` are the brute-force reference implementations
of that equivalence used by the test suite.  Both count samplers return one
record per row of a (trials, d) int64 array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PureState, _index, _real
from .mapping import ModeCoherentState

# Refuse to enumerate photon-number records beyond this many compositions.
_MAX_ENUMERATION = 2_000_000


@dataclass(frozen=True, eq=False)
class ClickPattern:
    """Boolean outcome of one threshold measurement, one entry per mode."""

    clicks: np.ndarray

    def __post_init__(self) -> None:
        arr = np.atleast_1d(np.asarray(self.clicks, dtype=bool))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("clicks must be a non-empty boolean vector")
        arr.setflags(write=False)
        object.__setattr__(self, "clicks", arr)

    @property
    def dim(self) -> int:
        return int(self.clicks.size)

    @property
    def any_click(self) -> bool:
        return bool(self.clicks.any())

    @property
    def total_clicks(self) -> int:
        return int(self.clicks.sum())


def click_probabilities(c: ModeCoherentState) -> np.ndarray:
    """Per-mode click probability p_k = 1 - exp(-|amplitude_k|^2)."""
    return -np.expm1(-c.per_mode_mean_photons)


def sample_click_pattern(c: ModeCoherentState, rng: np.random.Generator) -> ClickPattern:
    """One threshold measurement: modes click independently with p_k."""
    return ClickPattern(rng.random(c.dim) < click_probabilities(c))


def sample_photon_numbers(
    c: ModeCoherentState, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """Exact counts of ``trials`` measurements, one per row of a (trials, d) int64 array.

    Mode k draws Poisson(|amplitude_k|^2) independently.  numpy fills the array
    in C order, so row t is what the t-th of ``trials`` one-row calls would draw.
    """
    return rng.poisson(c.per_mode_mean_photons, size=(_index(trials, "trials"), c.dim))


def photon_count_probability(c: ModeCoherentState, counts) -> float:
    """Exact probability of a full count record under the product-Poisson law."""
    counts = np.atleast_1d(np.asarray(counts))
    if counts.size != c.dim:
        raise ValueError("record length does not match the mode count")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    if counts.dtype.kind not in "biu":  # an integer dtype holds whole counts already
        if not np.all(np.isfinite(counts) & (counts == np.floor(counts))):
            raise ValueError(f"counts must be integers, got {counts.tolist()!r}")
    means = c.per_mode_mean_photons
    log_p = 0.0
    for m, n in zip(means, counts):
        if m == 0.0:
            if n > 0:
                return 0.0
            continue
        log_p += -m + n * math.log(m) - math.lgamma(n + 1)
    return math.exp(log_p)


def _compositions(n: int, d: int):
    """Yield all ways to place n photons into d modes, as count tuples."""
    if d == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, d - 1):
            yield (first,) + rest


def multinomial_oracle(s: PureState, n: int) -> dict[tuple[int, ...], float]:
    """Exact count distribution for n photons in the single-photon mode of s.

    Returns {record: probability} over every composition of n into d modes,
    with Pr(n_1, ..., n_d) = n! / (n_1! ... n_d!) * prod_k |lambda_k|^{2 n_k};
    this is also the tally law of n independent canonical-basis measurements
    of s.  Keys are plain count tuples.
    """
    n, d = _index(n, "n"), s.dim
    n_records = math.comb(n + d - 1, d - 1)
    if n_records > _MAX_ENUMERATION:
        raise ValueError(
            f"enumeration of {n_records} records exceeds the cap {_MAX_ENUMERATION}"
        )
    log_probs = [math.log(p) if p > 0.0 else -math.inf for p in np.abs(s.amplitudes) ** 2]
    log_n_fact = math.lgamma(n + 1)
    out: dict[tuple[int, ...], float] = {}
    for record in _compositions(n, d):
        # log of n!/(n_1!...n_d!) prod_k p_k^{n_k}; a mode with p_k = 0 adds
        # nothing when empty and rules the record out when it holds photons.
        log_p = log_n_fact
        for n_k, log_p_k in zip(record, log_probs):
            if n_k:
                log_p += n_k * log_p_k - math.lgamma(n_k + 1)
        out[record] = math.exp(log_p)
    return out


def poissonized_repetition_oracle(
    s: PureState, mu: float, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """Counts of ``trials`` runs of N ~ Poisson(mu) single-photon repetitions.

    Each of a run's N repetitions lands in mode k with probability |lambda_k|^2;
    row t of the (trials, d) int64 result holds run t's per-mode tallies.  The
    law of a row is identical to :func:`sample_photon_numbers` with |alpha|^2 = mu.
    """
    if (mu := _real(mu, "mu")) < 0.0:
        raise ValueError(f"mu must be non-negative, got {mu!r}")
    n = rng.poisson(mu, _index(trials, "trials"))
    probs = np.abs(s.amplitudes) ** 2
    return rng.multinomial(n, probs / probs.sum())
