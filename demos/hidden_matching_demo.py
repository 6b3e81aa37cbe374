"""The hidden-matching protocol with phase-encoded coherent states.

Alice holds an n-bit string x, Bob a perfect matching of the n mode labels;
Bob must output one matched pair together with its parity x_i XOR x_j after
one-way communication.  Alice sends one weak coherent state per mode with
sign (-1)^{x_i}; Bob interferes each matched pair on a balanced beam
splitter.  One port of each pair is exactly dark, so any click identifies a
pair and its parity with certainty, and only the all-dark outcome (seen with
probability e^{-mu}) is inconclusive.
"""

import math

from cohsim import Matching, Seed, bob_unitary, phase_encoded_state, run_experiment

matching = Matching.parse("1-6,2-5,3-4")
x = "010101"
mu = 3.0
alpha = math.sqrt(mu)

print(f"instance: x = {x}, matching = {matching.format()}, mu = {mu}")
print()

out = bob_unitary(matching).matrix @ phase_encoded_state(x, alpha).mode_amplitudes
print("output amplitudes after Bob's beam splitters (ports: +1-6, -1-6, +2-5, ...):")
print(" ", [round(float(a.real), 3) for a in out])
print("dark ports are exact zeros, so a click can never announce a wrong parity")
print()


stats = run_experiment(6, matching, x, alpha, 100_000, Seed(31))
print(f"100000 trials: correct = {stats.conclusive_correct},"
      f" wrong = {stats.conclusive_wrong}, inconclusive = {stats.inconclusive}")
print(f"inconclusive rate {stats.inconclusive_rate:.4f}"
      f" versus e^-mu = {stats.inconclusive_expected:.4f}")
print()

print("the failure rate is set by the photon budget alone:")
for mu_k in (0.5, 1.0, 3.0, 5.0):
    s = run_experiment(16, None, None, math.sqrt(mu_k), 20_000, Seed(32).child(int(10 * mu_k)))
    print(f"  mu = {mu_k:>4}: inconclusive {s.inconclusive_rate:.4f}"
          f" (expected {s.inconclusive_expected:.4f}), wrong = {s.conclusive_wrong}")
