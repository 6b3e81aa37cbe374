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

from .core import Seed, UnitaryOp, _complex, _index, _vector
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
        labels = _vector(self.pairs, "pairs", np.int64, ndim=2)
        if labels.shape[1] != 2:
            raise ValueError(f"pairs must hold two labels each, got shape {labels.shape}")
        labels.sort(axis=1)
        labels = labels[np.argsort(labels[:, 0])]
        if not np.array_equal(np.sort(labels, axis=None), np.arange(1, labels.size + 1)):
            raise ValueError(f"pairs must cover each label in 1..{labels.size} exactly once")
        object.__setattr__(self, "pairs", tuple(map(tuple, labels.tolist())))

    @property
    def n(self) -> int:
        return 2 * len(self.pairs)

    @classmethod
    def parse(cls, text: str) -> "Matching":
        """Parse the wire format 'i-j,i-j,...', e.g. '1-6,2-5,3-4'; any refusal is a ValueError."""
        try:
            return cls(tuple(tuple(map(int, chunk.split("-"))) for chunk in text.split(",")))
        except (TypeError, ValueError) as exc:  # a label past int64 is a TypeError
            raise ValueError(f"malformed matching {text!r}: {exc}") from exc

    def format(self) -> str:
        return ",".join(f"{i}-{j}" for i, j in self.pairs)


def _mode_count(n) -> int:
    """``n`` as the mode count of a perfect matching: an even integer of at least 2."""
    if (n := _index(n, "n", 2)) % 2:
        raise ValueError(f"n must be even, got {n}")
    return n


def random_matching(n: int, rng: np.random.Generator) -> Matching:
    """Uniformly random perfect matching on {1..n}."""
    return Matching(rng.permutation(_mode_count(n)).reshape(-1, 2) + 1)


def _ports(m: Matching, amps) -> np.ndarray:
    """Bob's network along the leading axis of ``amps``, one beam splitter per pair.

    Ports are in :func:`bob_unitary` order.  On a mode-amplitude vector this
    is O(n), and the wrong-parity port of every pair comes out exactly 0.0.
    """
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
    n, trials, alpha = _mode_count(n), _index(trials, "trials", 1), _complex(alpha, "alpha")
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
    pairs, parities = zip(*output_port_labels(matching))
    i, j = (np.asarray(pairs) - 1).T
    right = bits[i] ^ bits[j] == np.asarray(parities)  # the port's announced parity is x_i XOR x_j

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
        alpha_sq=abs(alpha) ** 2,
    )
