"""Threshold detection and photon-number statistics of mode coherent states.

The measurement model is one ideal threshold detector per mode (unit
efficiency, no dark counts): "click" is the complement of the vacuum
projection, so mode k of a coherent product state clicks independently with
probability 1 - exp(-|amplitude_k|^2).

Photon counts, when needed, are exact: mode k carries Poisson(|amplitude_k|^2)
photons independently, which makes the total Poisson(|alpha|^2).  The same
joint count law arises from a Poisson-distributed number of repetitions of the
single-photon protocol, each repetition landing in mode k with the original
outcome probability |lambda_k|^2; ``poissonized_repetition_oracle`` draws
counts that way.  Both count samplers return one record per row of a
(trials, d) int64 array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PureState, _index, _real, _vector
from .mapping import ModeCoherentState


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
