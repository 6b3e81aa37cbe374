"""Coherent-state protocol for the Hidden Matching problem.

Alice holds an n-bit string x (n even) and encodes it as one coherent state
per mode with amplitude (-1)^{x_i} * alpha / sqrt(n).  Bob holds a perfect
matching M on {1..n} and must output some pair (i, j) in M together with the
parity x_i XOR x_j.  He routes each matched pair of modes into a balanced
beam splitter; the "+" output port keeps all the light when the pair has
even parity and the "-" port when it has odd parity, while the other port is
exactly dark.  Any click therefore identifies a pair and its parity with
certainty, and the only failure mode is seeing no click anywhere, which
happens with probability e^{-|alpha|^2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Seed, UnitaryOp, _index
from .detection import sample_click_pattern
from .mapping import ModeCoherentState, beam_splitter, parse_bits, phase_encoded_state


@dataclass(frozen=True)
class Matching:
    """Perfect matching on {1..n}: every label appears in exactly one pair.

    Pairs are canonicalized on construction: each pair stored as (min, max)
    and pairs sorted by their smaller label.  This fixes one beam-splitter
    network per matching, independent of input order.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        canon = tuple(
            sorted((tuple(sorted((int(i), int(j)))) for i, j in self.pairs))
        )
        labels = [k for pair in canon for k in pair]
        n = len(labels)
        if n == 0 or n % 2 != 0:
            raise ValueError("matching must cover an even, positive number of modes")
        if sorted(labels) != list(range(1, n + 1)):
            raise ValueError(f"pairs must cover each label in 1..{n} exactly once")
        object.__setattr__(self, "pairs", canon)

    @property
    def n(self) -> int:
        return 2 * len(self.pairs)

    @classmethod
    def parse(cls, text: str) -> "Matching":
        """Parse the wire format 'i-j,i-j,...', e.g. '1-6,2-5,3-4'."""
        pairs = []
        for chunk in text.split(","):
            left, sep, right = chunk.partition("-")
            if not sep:
                raise ValueError(f"malformed pair {chunk!r}; expected 'i-j'")
            try:
                pairs.append((int(left), int(right)))
            except ValueError as exc:
                raise ValueError(f"malformed pair {chunk!r}: {exc}") from exc
        return cls(tuple(pairs))

    def format(self) -> str:
        return ",".join(f"{i}-{j}" for i, j in self.pairs)


def random_matching(n: int, rng: np.random.Generator) -> Matching:
    """Uniformly random perfect matching on {1..n}."""
    if (n := _index(n, "n", 2)) % 2:
        raise ValueError(f"n must be even, got {n}")
    perm = rng.permutation(n) + 1
    pairs = tuple((int(perm[2 * t]), int(perm[2 * t + 1])) for t in range(n // 2))
    return Matching(pairs)


def _ports(m: Matching, amps) -> np.ndarray:
    """Bob's network along the leading axis of ``amps``, one beam splitter per pair.

    Ports are in :func:`bob_unitary` order.  On a mode-amplitude vector this
    is O(n), and the wrong-parity port of every pair comes out exactly 0.0.
    """
    amps = np.asarray(amps)
    i, j = (np.asarray(m.pairs) - 1).T
    out = np.empty(amps.shape, dtype=np.complex128)
    out[0::2], out[1::2] = beam_splitter(amps[i], amps[j])
    return out


def bob_unitary(m: Matching) -> UnitaryOp:
    """Bob's beam-splitter network as a checked dense n x n unitary.

    Port 2t-1 carries (a_i + a_j)/sqrt(2) and port 2t carries
    (a_i - a_j)/sqrt(2) for the t-th pair (i, j) in canonical order.  The
    protocol applies the same network pairwise in O(n) (:func:`run_experiment`);
    the matrix is for inspection and for composing with other unitaries.
    """
    return UnitaryOp(_ports(m, np.eye(m.n)))


def output_port_labels(m: Matching) -> tuple[tuple[tuple[int, int], int], ...]:
    """(pair, parity) meaning of each output port, in port order.

    Port 2t-1 (the "+" combination) signals parity 0 for pair t, port 2t
    (the "-" combination) signals parity 1.
    """
    return tuple((pair, parity) for pair in m.pairs for parity in (0, 1))


@dataclass(frozen=True)
class TrialStats:
    """Aggregated Monte Carlo results of repeated protocol rounds."""

    trials: int
    conclusive_correct: int
    conclusive_wrong: int
    inconclusive: int
    x: str
    matching: str
    alpha_sq: float

    @property
    def inconclusive_rate(self) -> float:
        return self.inconclusive / self.trials

    @property
    def inconclusive_expected(self) -> float:
        """Closed form: all output ports dark at once, e^{-|alpha|^2}."""
        return math.exp(-self.alpha_sq)


def run_experiment(
    n: int,
    matching: Matching | None,
    x,
    alpha: complex,
    trials: int,
    seed: Seed,
) -> TrialStats:
    """Run many seeded trials and tally correct / wrong / inconclusive.

    ``matching`` and/or ``x`` may be None, in which case they are drawn once
    per experiment from the stream ``seed.child("setup")``.  All trials draw,
    one after another, from the one stream ``seed.child("trials")``.
    """
    trials = _index(trials, "trials", 1)
    setup_rng = seed.child("setup").rng()
    if matching is None:
        matching = random_matching(n, setup_rng)
    if matching.n != n:
        raise ValueError(f"matching covers {matching.n} modes, expected {n}")
    if x is None:
        bits = setup_rng.integers(0, 2, n).astype(np.uint8)
    else:
        bits = parse_bits(x)
        if bits.size != n:
            raise ValueError(f"input string has {bits.size} bits, expected {n}")

    state = phase_encoded_state(bits, alpha)
    out = ModeCoherentState(_ports(matching, state.mode_amplitudes))
    # Counting ports from 0, port 2t claims even parity for pair t and port 2t + 1 odd.
    i, j = (np.asarray(matching.pairs) - 1).T
    right = np.arange(n) % 2 == np.repeat(bits[i] ^ bits[j], 2)

    trial_rng = seed.child("trials").rng()
    correct = wrong = inconclusive = 0
    for _ in range(trials):
        pattern = sample_click_pattern(out, trial_rng)
        if not pattern.any_click:
            inconclusive += 1
        elif right[np.argmax(pattern.clicks)]:
            correct += 1
        else:
            wrong += 1
    return TrialStats(
        trials=trials,
        conclusive_correct=correct,
        conclusive_wrong=wrong,
        inconclusive=inconclusive,
        x="".join(str(int(b)) for b in bits),
        matching=matching.format(),
        alpha_sq=float(abs(complex(alpha)) ** 2),
    )
