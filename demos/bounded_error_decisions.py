"""Two-outcome decisions by click counting, and when they stay sound.

After the translation, a projective two-outcome measurement becomes "count
clicks in mode set S_0 versus S_1 and pick the larger".  Click counts are
Poisson-binomial; Le Cam's bound controls how far they sit from a Poisson of
the same mean, and a closed-form condition on (success probability, photon
number, click probabilities) guarantees the translated protocol keeps the
original bounded error.
"""

import numpy as np

from cohsim import (
    Seed,
    check_success_condition,
    estimate_success_probability,
    lecam_bound_check,
    poisson_binomial_exact,
    two_block_trial_generator,
)

print("exact Poisson-binomial pmf for click probabilities (0.3, 0.2, 0.1):")
pmf = poisson_binomial_exact([0.3, 0.2, 0.1])
for k, p in enumerate(pmf):
    print(f"  P(C = {k}) = {p:.4f}")

print()
print("Le Cam bound on a random instance (40 modes, p <= 0.2):")
rng = Seed(20).rng()
probs = rng.uniform(0, 0.2, 40)
event = set(range(0, 4))
check = lecam_bound_check(probs, event)
print(f"  |P(C in A) - P(L in A)| = {check.lhs:.5f} <= min(1, 1/mu) tau = {check.bound:.5f}")

print()
print("bounded-error condition across photon budgets")
print("(20000 + 20000 modes, original success probability 0.95, epsilon 0.2):")
d0 = d1 = 20_000
probs = np.empty(d0 + d1)
probs[:d0] = 0.95 / d0
probs[d0:] = 0.05 / d1
chosen = None
for mu in (1.0, 10.0, 30.0, 60.0, 120.0):
    # S_0, the correct outcome, is the first d0 modes; p_s is its mass, 0.95
    rep = check_success_condition(0.2, mu, probs, d0)
    tag = "holds" if rep.holds else "fails"
    print(f"  mu = {mu:>6.1f}: lhs = {rep.lhs:10.4g}  -> {tag}")
    if rep.holds and chosen is None:
        chosen = (mu, rep)

mu, rep = chosen
print()
print(f"Monte Carlo at the first holding budget (mu = {mu}):")
click = -np.expm1(-mu * probs)
# each trial is one (C_0, C_1) pair of Binomial counts, not a 40,000-mode pattern
sampler = two_block_trial_generator(d0, float(click[0]), d1, float(click[-1]))
mc = estimate_success_probability(sampler, 20_000, Seed(21))
print(f"  guaranteed success >= {rep.p_alpha_lower_bound:.4f}")
print(f"  observed p_hat     =  {mc.p_hat:.4f}, Wilson 95% interval "
      f"[{mc.ci95_low:.4f}, {mc.ci95_high:.4f}] (ties = {mc.ties})")
