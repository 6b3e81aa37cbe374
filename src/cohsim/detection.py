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

from .core import PureState, _index, _real, _vector
from .mapping import ModeCoherentState, _poisson_log_pmf, _xlog

# Refuse to enumerate photon-number records beyond this many compositions.
_MAX_ENUMERATION = 2_000_000


@dataclass(frozen=True, eq=False)
class ClickPattern:
    """Boolean outcome of one threshold measurement, one entry per mode."""

    clicks: np.ndarray

    def __post_init__(self) -> None:
        arr = _vector(self.clicks, "clicks", bool)
        arr.setflags(False)  # write=False; the keyword costs 0.1 us of a trial
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


def _click_probability(power):
    """Threshold-detector click probability 1 - e^{-power} of a mode carrying mean power photons."""
    return -np.expm1(-power)


def click_probabilities(c: ModeCoherentState) -> np.ndarray:
    """Per-mode click probability p_k = 1 - exp(-|amplitude_k|^2)."""
    return _click_probability(c.per_mode_mean_photons)


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
    if (counts := _vector(counts, "counts")).size != c.dim:
        raise ValueError(f"counts must have one entry per mode ({c.dim}), got {counts.size}")
    if not np.all((counts >= 0) & (counts <= 2.0**53) & (counts == np.floor(counts))):
        raise ValueError(f"counts must be whole numbers in 0..2**53 (exact in a double), got {counts.tolist()!r}")
    return math.exp(sum(map(_poisson_log_pmf, counts, c.per_mode_mean_photons)))


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
    # ln of n!/(n_1!...n_d!) prod_k p_k^{n_k}, summed from ln n! in mode order.
    probs = (np.abs(s.amplitudes) ** 2).tolist()
    log_n_fact = math.lgamma(n + 1)
    return {
        record: math.exp(sum(
            (_xlog(n_k, p_k) - math.lgamma(n_k + 1) for n_k, p_k in zip(record, probs)),
            log_n_fact))
        for record in _compositions(n, d)
    }


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
