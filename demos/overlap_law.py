"""How state overlaps transform under the coherent-state translation.

Two protocol states with overlap delta turn into products of coherent states
whose overlap is delta_alpha = exp[mu (delta - 1)] with mu the mean photon
number.  Small mu pushes overlaps toward 1 (states become harder to tell
apart), large mu pushes them toward 0, and for any delta in (0, 1) a photon
budget exists that reproduces the original overlap exactly.
"""

import math

import numpy as np

from cohsim import Seed, overlap_coherent, random_state, solve_alpha_for_overlap

print("overlap regimes on a grid of real overlaps")
print(f"{'delta':>8} {'mu=0.25':>10} {'mu=1':>10} {'mu=4':>10}")
for delta in (0.1, 0.3, 0.5, 0.7, 0.9):
    row = [overlap_coherent(delta, math.sqrt(mu)).real for mu in (0.25, 1.0, 4.0)]
    print(f"{delta:>8.2f} {row[0]:>10.4f} {row[1]:>10.4f} {row[2]:>10.4f}")

print()
print("matching the original overlap exactly")
for delta in (0.2, 0.5, 0.8):
    mu = solve_alpha_for_overlap(delta, delta)
    check = overlap_coherent(delta, math.sqrt(mu)).real
    print(f"  delta = {delta}: mu = {mu:.6f} reproduces delta_alpha = {check:.6f}")

print()
print("closed form versus the per-mode overlap product (random 32-mode pair)")
rng = Seed(1).rng()
psi = random_state(32, rng)
phi = random_state(32, rng)
delta = complex(np.vdot(psi.amplitudes, phi.amplitudes))
alpha = math.sqrt(2.0)
product = 1.0 + 0.0j
for lam, nu in zip(psi.amplitudes, phi.amplitudes):
    b, g = alpha * lam, alpha * nu
    product *= np.exp(-(abs(b) ** 2 + abs(g) ** 2 - 2 * np.conj(b) * g) / 2)
closed = overlap_coherent(delta, alpha)
print(f"  qubit overlap delta    = {delta:.6f}")
print(f"  per-mode product       = {product:.6f}")
print(f"  exp[mu (delta - 1)]    = {closed:.6f}")
print(f"  absolute difference    = {abs(product - closed):.2e}")
