"""Bounded-error decision machinery for two-outcome coherent-state protocols.

A projective decision between two subspaces turns, after the coherent-state
translation, into counting clicks over two disjoint sets of modes S_0 and S_1
and picking the set with more clicks.  Modes are numbered so that S_0 is modes
1..d0 and S_1 the other modes, and every function here takes the split as
``d0``, an integer in 0..d.  Each click count is a Poisson-binomial random
variable; this module provides

* the click-count decision rule on one click pattern (:func:`decide`),
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

from .core import Seed, _index, _real
from .detection import ClickPattern, click_probabilities
from .mapping import ModeCoherentState

_POISSON_BINOMIAL_CAP = 10_000


class Outcome(Enum):
    ZERO = 0
    ONE = 1
    TIE = 2


def _check_d0(d0, d: int) -> int:
    """S_0 is modes 1..d0 and S_1 modes d0+1..d, so d0 must be an integer in 0..d."""
    if (d0 := _index(d0, "d0")) > d:
        raise ValueError(f"d0 = {d0} exceeds the {d} modes")
    return d0


def click_counts(pattern: ClickPattern, d0: int) -> tuple[int, int]:
    """Clicks in S_0 (modes 1..d0) and in S_1 (the other modes)."""
    d0 = _check_d0(d0, pattern.dim)
    return int(pattern.clicks[:d0].sum()), int(pattern.clicks[d0:].sum())


def _compare(c0, c1):
    """sign(c0 - c1) per trial: +1 is the success event C_0 > C_1, 0 a tie."""
    return np.sign(np.subtract(c0, c1, dtype=np.int64))


_OUTCOME_BY_SIGN = {1: Outcome.ZERO, -1: Outcome.ONE, 0: Outcome.TIE}


def decide(pattern: ClickPattern, d0: int) -> Outcome:
    """More clicks in S_0 means ZERO, more in S_1 means ONE, equal means TIE.

    Tie resolution (including the all-vacuum pattern) is caller policy;
    :func:`estimate_success_probability` counts ties as failures.
    """
    return _OUTCOME_BY_SIGN[int(_compare(*click_counts(pattern, d0)))]


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
    probs = np.atleast_1d(np.asarray(probs, dtype=np.float64))
    if probs.ndim != 1:
        raise ValueError("probs must be a vector")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):  # nan fails the test too
        raise ValueError("probabilities must lie in [0, 1]")
    if probs.size > _POISSON_BINOMIAL_CAP:
        raise ValueError(f"size {probs.size} exceeds cap {_POISSON_BINOMIAL_CAP}")
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


def _poisson_pmf(a: int, mu: float) -> float:
    """Pr(L = a) for L ~ Poisson(mu), as exp(-mu + a ln mu - lgamma(a + 1)).

    Poisson(0) is the point mass at 0, handled apart because ln 0 diverges.
    """
    if mu == 0.0:
        return 1.0 if a == 0 else 0.0
    return math.exp(-mu + a * math.log(mu) - math.lgamma(a + 1))


def lecam_bound_check(probs, event: Iterable[int]) -> LecamCheck:
    """Check |Pr(C in A) - Pr(L in A)| <= min(1, 1/mu) * tau on an explicit event.

    C is the Poisson-binomial sum of the given Bernoulli probabilities, L is
    Poisson with the same mean mu = sum p_k, and tau = sum p_k^2.  Both sides
    are exact pmf sums.
    """
    probs = np.atleast_1d(np.asarray(probs, dtype=np.float64))
    event_set = {_index(a, "event") for a in event}
    pmf = poisson_binomial_exact(probs)
    mu = float(probs.sum())
    tau = float((probs**2).sum())
    pr_c = float(sum(pmf[a] for a in event_set if a < pmf.size))
    pr_l = sum(_poisson_pmf(a, mu) for a in event_set)
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
    # 2 e^{-p_s mu} (2 e p_s)^{mu/2}, in log space; equals 2 at mu = 0.
    log_term = math.log(2.0) - p_s * mu + 0.5 * mu * (math.log(2.0 * p_s) + 1.0)
    return math.exp(log_term)


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

    probs_qubit = np.atleast_1d(np.asarray(probs_qubit, dtype=np.float64))
    if not (np.all(probs_qubit >= 0.0) and abs(probs_qubit.sum() - 1.0) <= 1e-9):
        raise ValueError("probs_qubit must be non-negative and sum to 1")
    d0 = _check_d0(d0, probs_qubit.size)
    p_s = min(1.0, float(probs_qubit[:d0].sum()))
    if not p_s > 0.5:
        raise ValueError(f"the S_0 mass p_s = {p_s!r} must lie in (1/2, 1]")

    stats = _count_stats(-np.expm1(-mu * probs_qubit), d0)
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
    ci95: float
    trials: int
    successes: int
    ties: int


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

    Returns the success frequency and its Wald 95% half-width.
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
    p_hat = successes / trials
    ci95 = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return McEstimate(p_hat=p_hat, ci95=ci95, trials=trials, successes=successes, ties=ties)
