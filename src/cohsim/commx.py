"""Bounded-error decision machinery for two-outcome coherent-state protocols.

A projective decision between two subspaces turns, after the coherent-state
translation, into counting clicks over two disjoint sets of modes S_0 and S_1
and picking the set with more clicks.  Modes are numbered so that S_0 is modes
1..d0 and S_1 the other modes, and every function here takes the split as
``d0``, an integer in 0..d.  Each click count is a Poisson-binomial random
variable; this module provides

* the click-count decision rule on one click pattern (:func:`decide`, whose
  :class:`Outcome` is valued sign(C_0 - C_1): ZERO 1, ONE -1, TIE 0),
* exact Poisson-binomial pmfs (:func:`poisson_binomial_exact`),
* Le Cam's Poisson-approximation bound
  |Pr(C in A) - Pr(L in A)| <= min(1, 1/mu) * sum_k p_k^2
  for a Poisson L of matched mean (:func:`lecam_bound_check`),
* a sufficient condition for the translated protocol to keep the original
  bounded error (:func:`check_success_condition`), and
* seeded Monte Carlo estimation of the success probability
  Pr(C_0 > C_1) from blocks of sampled click-count pairs
  (:func:`estimate_success_probability`, :func:`two_block_trial_generator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .core import Seed, _index, _real, _vector
from .detection import ClickPattern, _click_probability, click_probabilities
from .mapping import ModeCoherentState, _poisson_deviance, _poisson_log_pmf

_POISSON_BINOMIAL_CAP = 10_000


class Outcome(Enum):  # valued sign(C_0 - C_1), as _compare gives it
    ZERO = 1
    ONE = -1
    TIE = 0


def _check_d0(d0, d: int) -> int:
    """S_0 is modes 1..d0 and S_1 modes d0+1..d, so d0 must be an integer in 0..d."""
    if (d0 := _index(d0, "d0")) > d:
        raise ValueError(f"d0 = {d0} exceeds the {d} modes")
    return d0


def _compare(c0, c1):
    """sign(c0 - c1) per trial: +1 is the success event C_0 > C_1, 0 a tie."""
    return np.sign(np.subtract(c0, c1, dtype=np.int64))


def decide(pattern: ClickPattern, d0: int) -> Outcome:
    """More clicks in S_0 (modes 1..d0) means ZERO, more in S_1 means ONE, equal means TIE.

    Ties (all-vacuum too) are caller policy; :func:`estimate_success_probability` counts them as failures.
    """
    d0 = _check_d0(d0, pattern.dim)
    return Outcome(int(_compare(pattern.clicks[:d0].sum(), pattern.clicks[d0:].sum())))


@dataclass(frozen=True)
class ClickCountStats:
    """Moments of the per-set click counts: mu_b = E[C_b], tau_b = sum p_k^2."""

    mu0: float
    mu1: float
    tau0: float
    tau1: float

    @property
    def tau(self) -> float:
        return self.tau0 + self.tau1


def _count_stats(click_probs: np.ndarray, d0: int) -> ClickCountStats:
    p0, p1 = click_probs[:d0], click_probs[d0:]
    return ClickCountStats(
        mu0=float(p0.sum()),
        mu1=float(p1.sum()),
        tau0=float((p0**2).sum()),
        tau1=float((p1**2).sum()),
    )


def click_count_stats(c: ModeCoherentState, d0: int) -> ClickCountStats:
    """Click-count moments of S_0 (modes 1..d0) and S_1 (the other modes)."""
    return _count_stats(click_probabilities(c), _check_d0(d0, c.dim))


def poisson_binomial_exact(probs) -> np.ndarray:
    """Exact pmf of a sum of independent Bernoulli(p_k), k = 1..n.

    One convolution with the Bernoulli pmf (1 - p, p) per probability,
    O(n^2); index k of the result is Pr(sum = k).
    """
    probs = _vector(probs, "probs")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):  # nan fails the test too
        raise ValueError("probs must lie in [0, 1]")
    if probs.size > _POISSON_BINOMIAL_CAP:
        raise ValueError(f"probs must have at most {_POISSON_BINOMIAL_CAP} entries, got {probs.size}")
    pmf = np.array([1.0])
    for p in probs:
        pmf = np.convolve(pmf, (1.0 - p, p))
    return pmf


@dataclass(frozen=True)
class LecamCheck:
    lhs: float
    bound: float
    holds: bool


def _min_one_inverse(mu: float) -> float:
    # min(1, 1/mu), with the degenerate mu = 0 resolved to the min's first arm.
    return 1.0 if mu <= 1.0 else 1.0 / mu


def lecam_bound_check(probs, event: Iterable[int]) -> LecamCheck:
    """Check |Pr(C in A) - Pr(L in A)| <= min(1, 1/mu) * tau on an explicit event.

    C is the Poisson-binomial sum of the given Bernoulli probabilities, L is
    Poisson with the same mean mu = sum p_k, and tau = sum p_k^2.  Both sides
    are exact pmf sums.
    """
    probs = _vector(probs, "probs")
    event_set = {_index(a, "event") for a in event}
    if any(a > 2**53 for a in event_set):
        raise ValueError("event must hold labels in 0..2**53 (exact in a double)")
    pmf = poisson_binomial_exact(probs)
    mu = float(probs.sum())
    tau = float((probs**2).sum())
    pr_c = float(sum(pmf[a] for a in event_set if a < pmf.size))
    pr_l = sum(math.exp(_poisson_log_pmf(a, mu)) for a in event_set)
    lhs = abs(pr_c - pr_l)
    bound = _min_one_inverse(mu) * tau
    return LecamCheck(lhs=lhs, bound=bound, holds=bool(lhs <= bound + 1e-12))


@dataclass(frozen=True)
class SuccessConditionReport:
    """Evaluation of the bounded-error sufficient condition at one (mu, epsilon).

    ``lhs`` is the concentration term 2 e^{-P_s mu} (2 e P_s)^{mu/2} plus the
    Poisson-approximation term max_b min(1, 1/mu_b) * tau; the condition holds
    when lhs <= epsilon, in which case the translated protocol's success
    probability is at least p_alpha_lower_bound = 1 - lhs.
    """

    mu: float
    p_s: float
    epsilon: float
    lhs: float
    stats: ClickCountStats

    @property
    def holds(self) -> bool:
        return bool(self.lhs <= self.epsilon)

    @property
    def p_alpha_lower_bound(self) -> float:
        return 1.0 - self.lhs


def _concentration_term(p_s: float, mu: float) -> float:
    # 2 e^{-p_s mu} (2 e p_s)^{mu/2}: twice the Chernoff bound on Poisson(p_s mu)
    # at mu/2, below its mean; equals 2 at mu = 0.
    return 2.0 * math.exp(-_poisson_deviance(p_s * mu, (0.5 - p_s) * mu)) if mu > 0.0 else 2.0


def check_success_condition(
    epsilon: float, mu: float, probs_qubit, d0: int
) -> SuccessConditionReport:
    """Decide whether mean photon number mu preserves the bounded error.

    Args:
        epsilon: target error bound, in (0, 1/2).
        mu: mean photon number |alpha|^2 of the translated protocol, finite
            and non-negative.
        probs_qubit: original outcome probabilities p_k over all modes,
            summing to 1.  Click probabilities are computed per mode as
            p_{alpha,k} = 1 - e^{-mu p_k}.
        d0: S_0, the correct outcome set, is modes 1..d0; S_1 is the rest.

    The original protocol's success probability p_s is the mass of
    ``probs_qubit`` on S_0 (capped at 1 against rounding), and must lie in
    (1/2, 1].

    Returns:
        A report with the condition's left-hand side, whether it holds, and
        the implied lower bound 1 - lhs on the translated success probability.
    """
    epsilon, mu = _real(epsilon, "epsilon"), _real(mu, "mu")
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    if mu < 0.0:
        raise ValueError(f"mu must be non-negative, got {mu!r}")

    probs_qubit = _vector(probs_qubit, "probs_qubit")
    # Entries in [0, 1] first, so that the sum cannot overflow.
    if not (np.all((probs_qubit >= 0.0) & (probs_qubit <= 1.0)) and abs(probs_qubit.sum() - 1.0) <= 1e-9):
        raise ValueError("probs_qubit must be non-negative and sum to 1")
    d0 = _check_d0(d0, probs_qubit.size)
    p_s = min(1.0, float(probs_qubit[:d0].sum()))
    if not p_s > 0.5:
        raise ValueError(f"the S_0 mass p_s = {p_s!r} must lie in (1/2, 1]")

    stats = _count_stats(_click_probability(mu * probs_qubit), d0)
    approx_term = max(_min_one_inverse(stats.mu0), _min_one_inverse(stats.mu1)) * stats.tau
    lhs = _concentration_term(p_s, mu) + approx_term
    return SuccessConditionReport(mu=mu, p_s=p_s, epsilon=epsilon, lhs=lhs, stats=stats)


def two_block_trial_generator(
    d0: int, p_click_0: float, d1: int, p_click_1: float
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Click-count sampler for uniform click probability within each mode block.

    Per-set click counts of d independent Bernoulli modes with a common p are
    Binomial(d, p), and a count-based decision sees nothing else of the
    pattern.  The sampler maps ``(rng, size)`` to the int array of
    ``(c0, c1)`` rows, shape ``(size, 2)``, from one interleaved binomial
    draw that numpy fills in C order: row t is the same at any block size.
    The block sizes are counts and the click probabilities lie in [0, 1].
    """
    d0, d1 = _index(d0, "d0"), _index(d1, "d1")
    p_click_0, p_click_1 = _real(p_click_0, "p_click_0"), _real(p_click_1, "p_click_1")
    for name, p in (("p_click_0", p_click_0), ("p_click_1", p_click_1)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p!r}")

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.binomial([d0, d1], [p_click_0, p_click_1], size=(size, 2))

    return sample


@dataclass(frozen=True)
class McEstimate:
    p_hat: float
    ci95_low: float
    ci95_high: float
    trials: int
    successes: int
    ties: int


def _wilson95_low(k: int, n: int) -> float:
    """Lower Wilson 95% score bound of k successes in n trials: 0 at k = 0, so the upper is 1 at k = n."""
    z = 1.959963984540054  # the normal quantile at 0.975
    z2 = z * z
    centre = (k + z2 / 2.0) / (n + z2)
    half = z * math.sqrt(k * (n - k) / n + z2 / 4.0) / (n + z2)
    return max(0.0, centre - half)


# Trials drawn per sampler call: 2^16 rows of two int64 counts is 1 MiB.
_BLOCK_TRIALS = 1 << 16


def estimate_success_probability(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    seed: Seed,
) -> McEstimate:
    """Monte Carlo frequency of the success event C_0 > C_1.

    ``sampler(rng, size)`` returns the click counts of ``size`` protocol runs
    whose correct answer is the S_0 outcome, as an int array of ``(c0, c1)``
    rows (see :func:`two_block_trial_generator`).  All trials come from the
    one generator ``seed.rng()``, in trial order, in blocks of at most
    ``_BLOCK_TRIALS``.  A trial succeeds when :func:`decide` would say ZERO;
    ties, vacuum included, count as failures and are reported.

    Returns the success frequency and its Wilson 95% score interval.
    """
    trials = _index(trials, "trials", 1)
    rng = seed.rng()
    tally = np.zeros(3, dtype=np.int64)  # trials with sign(c0 - c1) = -1, 0, +1
    for start in range(0, trials, _BLOCK_TRIALS):
        size = min(_BLOCK_TRIALS, trials - start)
        counts = np.asarray(sampler(rng, size))
        if counts.shape != (size, 2) or not np.issubdtype(counts.dtype, np.integer):
            raise ValueError(f"sampler gave {counts.dtype} {counts.shape}, want int {(size, 2)}")
        if counts.min() < 0:
            raise ValueError("sampler gave negative click counts")
        tally += np.bincount(_compare(counts[:, 0], counts[:, 1]) + 1, minlength=3)
    successes, ties = int(tally[2]), int(tally[1])
    low, high = _wilson95_low(successes, trials), 1.0 - _wilson95_low(trials - successes, trials)
    return McEstimate(p_hat=successes / trials, ci95_low=low, ci95_high=high, trials=trials, successes=successes, ties=ties)
