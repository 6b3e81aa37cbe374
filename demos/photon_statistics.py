"""Detector statistics of a mapped state: clicks, counts, and repetitions.

A mapped state puts an independent coherent state in every mode, so a bank of
threshold detectors clicks independently with p_k = 1 - exp(-|amp_k|^2) and
the exact photon counts are independent Poissons.  The same joint count law
arises from a Poisson-distributed number of repetitions of the original
single-photon measurement, which this script checks empirically.
"""

import math
from collections import Counter

from cohsim import (
    Seed,
    click_probabilities,
    map_state,
    normalized,
    poissonized_repetition_oracle,
    sample_click_pattern,
    sample_photon_numbers,
)

psi = normalized([2.0, 1.0, 1.0, 1.0j])
mu = 2.0
state = map_state(psi, math.sqrt(mu))

print("per-mode click probabilities (1 - e^{-|amp|^2}):")
print(" ", [round(float(p), 4) for p in click_probabilities(state)])

trials = 20_000
clicks = [0, 0, 0, 0]
rng = Seed(10).rng()  # one generator per experiment, drawn from trial after trial
for _ in range(trials):
    pattern = sample_click_pattern(state, rng)
    for k in range(4):
        clicks[k] += int(pattern.clicks[k])
print(f"empirical click rates over {trials} trials:")
print(" ", [round(c / trials, 4) for c in clicks])

print()
print("total photon number is Poisson(mu), whatever the state:")
rng = Seed(11).rng()
totals = Counter(sample_photon_numbers(state, rng, trials).sum(axis=1).tolist())
print(f"{'n':>4} {'empirical':>10} {'poisson':>10}")
for n in range(7):
    expected = math.exp(-mu) * mu**n / math.factorial(n)
    print(f"{n:>4} {totals.get(n, 0) / trials:>10.4f} {expected:>10.4f}")

print()
print("direct counts versus Poisson-many single-photon repetitions:")
direct = Counter(map(tuple, sample_photon_numbers(state, Seed(12).rng(), trials).tolist()))
repeated = Counter(
    map(tuple, poissonized_repetition_oracle(psi, mu, Seed(13).rng(), trials).tolist())
)
print(f"{'record':>16} {'direct':>8} {'repeated':>9}")
for record, _ in direct.most_common(6):
    print(f"{str(record):>16} {direct[record] / trials:>8.4f} {repeated[record] / trials:>9.4f}")
