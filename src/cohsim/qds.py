"""Quantum digital signatures from phase-encoded coherent states.

One signer (Alice) and two recipients (Bob, Charlie).  The protocol runs in
six steps:

1. Alice draws two uniform n-bit private keys k_0, k_1 and sends each
   recipient the phase-encoded state of each key (mode i carries
   (-1)^{k_{b,i}} * alpha / sqrt(n)).
2. Each recipient splits every received state on a balanced beam splitter,
   yielding two copies with amplitude reduced by sqrt(2).
3. Each recipient measures the first copy mode by mode with unambiguous
   state discrimination (USD) between +beta and -beta, beta = |alpha| /
   sqrt(2n), storing conclusive signs in a classical record.
4. The second copies travel to one lab and interfere pairwise on a balanced
   beam splitter whose ports mean "equal" / "not equal"; if NEQ clicks exceed
   a fraction f of all clicks, the run aborts (a signer who sent the two
   recipients different states lights up the NEQ port).
5. To sign, Alice reveals (b, k_b).  Bob authenticates if the fraction of his
   conclusive USD outcomes disagreeing with the revealed key stays below s_a.
6. Bob forwards the message; Charlie verifies at the looser threshold
   s_v > s_a, which keeps a message Bob accepted transferable.

Everything is ideal (lossless optics, perfect detectors, shared phase
reference), so honest runs abort never and verify with zero mismatches.
Tampering is modeled explicitly: ``flip_revealed`` corrupts a fraction of
the revealed key bits, ``repudiation`` makes Alice send Charlie states that
differ from Bob's in a fraction of the modes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from typing import Any

import numpy as np

from .core import Seed, _index
from .mapping import ModeCoherentState, beam_splitter, parse_bits, phase_encoded_state

TAMPER_MODELS = ("none", "flip_revealed", "repudiation")


@dataclass(frozen=True, eq=False)
class PrivateKeys:
    """Alice's two private keys, one per signable bit value."""

    k0: np.ndarray
    k1: np.ndarray

    def __post_init__(self) -> None:
        k0 = parse_bits(self.k0)
        k1 = parse_bits(self.k1)
        if k0.size != k1.size:
            raise ValueError("private keys must have equal length")
        k0.setflags(write=False)
        k1.setflags(write=False)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "k1", k1)

    def key(self, b: int) -> np.ndarray:
        return self.k0 if b == 0 else self.k1


def keygen(n: int, rng: np.random.Generator) -> PrivateKeys:
    """Two independent uniform n-bit strings."""
    if n < 1:
        raise ValueError("key length must be at least 1")
    return PrivateKeys(
        rng.integers(0, 2, n).astype(np.uint8),
        rng.integers(0, 2, n).astype(np.uint8),
    )


def split(c: ModeCoherentState) -> tuple[ModeCoherentState, ModeCoherentState]:
    """Balanced beam splitter against vacuum in every mode: two copies at 1/sqrt(2).

    Each copy carries half the mean photon number, so energy is conserved.
    """
    kept, shared = beam_splitter(c.mode_amplitudes, 0.0)
    alpha, _ = beam_splitter(c.alpha, 0.0)
    return ModeCoherentState(kept, alpha), ModeCoherentState(shared, alpha)


class UsdOutcome(IntEnum):
    """Per-mode USD result; stored as int8 arrays inside records."""

    UNAMBIGUOUS_MINUS = -1
    INCONCLUSIVE = 0
    UNAMBIGUOUS_PLUS = 1


@dataclass(frozen=True, eq=False)
class UsdRecord:
    """Classical memory of per-mode USD outcomes (+1 / -1 / 0 = inconclusive)."""

    outcomes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.atleast_1d(np.asarray(self.outcomes, dtype=np.int8))
        if arr.ndim != 1 or arr.size < 1 or not np.all(np.isin(arr, (-1, 0, 1))):
            raise ValueError("outcomes must be a non-empty vector over {-1, 0, 1}")
        arr.setflags(write=False)
        object.__setattr__(self, "outcomes", arr)

    @property
    def dim(self) -> int:
        return int(self.outcomes.size)

    @property
    def tested(self) -> int:
        """Number of conclusive (unambiguous) positions."""
        return int(np.count_nonzero(self.outcomes))

    @property
    def unambiguous_fraction(self) -> float:
        return self.tested / self.dim


def _usd_probabilities(amps: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Conclusive-outcome probabilities of optimal binary USD for |+beta>/|-beta>.

    The measurement operators for the symmetric pair (overlap s = e^{-2 beta^2})
    are E_+ = |v_perp><v_perp| / (1+s) with |v_perp> the in-span vector
    orthogonal to |-beta>, and symmetrically E_-.  Applied to an arbitrary
    coherent amplitude gamma this gives

        P(+) = |<beta|gamma> - s <-beta|gamma>|^2 / ((1-s^2)(1+s))

    and the mirror expression for P(-).  For honest inputs gamma = +-beta this
    reduces to the optimal conclusive rate 1 - s with zero error; for tampered
    amplitudes it is the projection of |gamma> onto the same measurement.
    """
    s = math.exp(-2.0 * beta * beta)
    # For gamma = x + iy, <+-beta|gamma> has modulus exp(-((beta -+ x)^2 + y^2)/2),
    # at most 1, and phase +-beta*y: real arithmetic only, and nothing overflows.
    # 1 - s^2 comes from expm1, which stays non-zero for every beta > 0.
    x, y_sq = amps.real, amps.imag**2
    mod_plus = np.exp(-((beta - x) ** 2 + y_sq) / 2.0)
    mod_minus = np.exp(-((beta + x) ** 2 + y_sq) / 2.0)
    cos_sq = np.cos(beta * amps.imag) ** 2
    norm = -math.expm1(-2.0 * beta * beta) * (1.0 + s) ** 2

    def prob(a, b):  # |a e^{i beta y} - s b e^{-i beta y}|^2 / norm
        return ((a - s * b) ** 2 * cos_sq + (a + s * b) ** 2 * (1.0 - cos_sq)) / norm

    return prob(mod_plus, mod_minus), prob(mod_minus, mod_plus)


def usd_measure(
    c: ModeCoherentState, reference_magnitude: float, rng: np.random.Generator
) -> UsdRecord:
    """Mode-by-mode USD between +beta and -beta on the kept copy.

    With honest inputs (every amplitude exactly +-beta) each mode is
    conclusive with probability 1 - e^{-2 beta^2} and the conclusive sign is
    always the true one.  beta = 0 makes the two hypotheses identical, so
    everything is inconclusive.
    """
    beta = float(reference_magnitude)
    if beta < 0.0:
        raise ValueError("reference magnitude must be non-negative")
    if beta == 0.0:
        return UsdRecord(np.zeros(c.dim, dtype=np.int8))
    p_plus, p_minus = _usd_probabilities(c.mode_amplitudes, beta)
    u = rng.random(c.dim)
    outcomes = np.zeros(c.dim, dtype=np.int8)
    outcomes[u < p_plus] = UsdOutcome.UNAMBIGUOUS_PLUS
    outcomes[(u >= p_plus) & (u < p_plus + p_minus)] = UsdOutcome.UNAMBIGUOUS_MINUS
    return UsdRecord(outcomes)


@dataclass(frozen=True)
class EqualityTestReport:
    """NEQ-port click tally of the pairwise comparison of two state copies."""

    neq_clicks: int
    total_clicks: int
    neq_fraction: float
    aborted: bool


def equality_test(
    b: ModeCoherentState, c: ModeCoherentState, f: float, rng: np.random.Generator
) -> EqualityTestReport:
    """Interfere two copies mode by mode; abort when NEQ clicks dominate.

    Per mode the balanced beam splitter sends (u + w)/sqrt(2) to the EQ port
    and (u - w)/sqrt(2) to the NEQ port, so identical copies put exactly zero
    light on NEQ.  The run aborts when the NEQ share of all clicks exceeds f
    (zero clicks in total counts as a NEQ fraction of 0).
    """
    if b.dim != c.dim:
        raise ValueError("states must have the same number of modes")
    if not 0.0 < float(f) < 1.0:
        raise ValueError("abort fraction f must lie in (0, 1)")
    eq_amps, neq_amps = beam_splitter(b.mode_amplitudes, c.mode_amplitudes)
    p_eq = -np.expm1(-np.abs(eq_amps) ** 2)
    p_neq = -np.expm1(-np.abs(neq_amps) ** 2)
    eq_clicks = int((rng.random(b.dim) < p_eq).sum())
    neq_clicks = int((rng.random(b.dim) < p_neq).sum())
    total = eq_clicks + neq_clicks
    fraction = neq_clicks / total if total > 0 else 0.0
    return EqualityTestReport(
        neq_clicks=neq_clicks,
        total_clicks=total,
        neq_fraction=fraction,
        aborted=bool(fraction > float(f)),
    )


class VerificationRole(Enum):
    AUTHENTICATION = "authentication"  # direct recipient, threshold s_a
    VERIFICATION = "verification"      # forwarded recipient, threshold s_v


@dataclass(frozen=True)
class VerificationVerdict:
    """Mismatch tally between a revealed key and a recipient's USD record."""

    mismatches: int
    tested: int
    fraction: float
    accept: bool
    role: VerificationRole
    threshold: float


def verify_message(
    revealed_key, record: UsdRecord, threshold: float, role: VerificationRole
) -> VerificationVerdict:
    """Count conclusive positions whose sign contradicts the revealed key.

    The expected sign at position i is (-1)^{key_i}.  The fraction is taken
    over conclusive positions only; an all-inconclusive record yields
    fraction 0 (and tested = 0 in the verdict flags the degeneracy).
    """
    key = parse_bits(revealed_key)
    if key.size != record.dim:
        raise ValueError("revealed key length does not match the record")
    expected = (1 - 2 * key.astype(np.int8)).astype(np.int8)
    conclusive = record.outcomes != 0
    mismatches = int(np.count_nonzero(conclusive & (record.outcomes != expected)))
    tested = int(np.count_nonzero(conclusive))
    fraction = mismatches / max(tested, 1)
    return VerificationVerdict(
        mismatches=mismatches,
        tested=tested,
        fraction=fraction,
        accept=bool(fraction < float(threshold)),
        role=role,
        threshold=float(threshold),
    )


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class QdsConfig:
    """Run parameters; thresholds must be ordered 0 <= s_a < s_v < 1."""

    n: int = 512
    alpha_sq: float = 9.0
    f: float = 0.01
    s_a: float = 0.02
    s_v: float = 0.05
    tamper_model: str = "none"
    tamper_params: dict = field(default_factory=dict)
    message_bit: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "message_bit"):
            _index(getattr(self, name), name)
        for name in ("alpha_sq", "f", "s_a", "s_v"):
            value = getattr(self, name)
            if not _is_real(value) or not math.isfinite(value):
                raise TypeError(f"{name} must be a finite real number, got {value!r}")
        if not isinstance(self.tamper_params, dict):
            raise TypeError(f"tamper_params must be an object, got {self.tamper_params!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.alpha_sq <= 0.0:
            raise ValueError("alpha_sq must be positive")
        if not 0.0 < self.f < 1.0:
            raise ValueError("f must lie in (0, 1)")
        if not 0.0 <= self.s_a < self.s_v < 1.0:
            raise ValueError("thresholds must satisfy 0 <= s_a < s_v < 1")
        if self.tamper_model not in TAMPER_MODELS:
            raise ValueError(
                f"unknown tamper model {self.tamper_model!r}; expected one of {TAMPER_MODELS}"
            )
        if self.tamper_model != "none":
            frac = self.tamper_params.get("fraction")
            if not _is_real(frac) or not 0.0 < frac <= 1.0:
                raise ValueError("tamper_params must set 'fraction' in (0, 1]")
        if self.message_bit not in (0, 1):
            raise ValueError("message_bit must be 0 or 1")

    @classmethod
    def from_dict(cls, data: dict) -> "QdsConfig":
        unknown = set(data) - {spec.name for spec in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class StageRecord:
    stage: str
    data: dict[str, Any]


@dataclass(frozen=True, eq=False)
class QdsTranscript:
    """Stage-by-stage outcome of one protocol run."""

    records: tuple[StageRecord, ...]
    aborted: bool
    bob_verdict: VerificationVerdict | None
    charlie_verdict: VerificationVerdict | None

    @property
    def accepted_by_both(self) -> bool:
        verdicts = (self.bob_verdict, self.charlie_verdict)
        return not self.aborted and all(v is not None and v.accept for v in verdicts)


def _flip_mask(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """0/1 mask flipping an exact round(fraction * n) positions, at least one."""
    count = max(1, round(float(fraction) * n))
    mask = np.zeros(n, dtype=np.uint8)
    mask[rng.choice(n, size=count, replace=False)] = 1
    return mask


def run_qds(config: QdsConfig, seed: Seed) -> QdsTranscript:
    """Execute distribution, symmetrization, and messaging for one run.

    Every stage draws from its own named stream under ``seed``: "keygen",
    "tamper", ("usd", b, recipient) and ("equality", b).
    """
    n = config.n
    alpha = math.sqrt(config.alpha_sq)
    beta = math.sqrt(config.alpha_sq / (2.0 * n))
    records: list[StageRecord] = []

    keys = keygen(n, seed.child("keygen").rng())
    records.append(StageRecord("keygen", {"n": n}))

    tamper_rng = seed.child("tamper").rng()
    repudiation_masks = {0: 0, 1: 0}
    if config.tamper_model == "repudiation":
        frac = float(config.tamper_params["fraction"])
        repudiation_masks = {b: _flip_mask(n, frac, tamper_rng) for b in (0, 1)}

    usd_records: dict[tuple[str, int], UsdRecord] = {}
    shared_copies: dict[tuple[str, int], ModeCoherentState] = {}

    for b in (0, 1):
        received = {
            "bob": phase_encoded_state(keys.key(b), alpha),
            "charlie": phase_encoded_state(keys.key(b) ^ repudiation_masks[b], alpha),
        }
        for who, state in received.items():
            kept, shared = split(state)
            shared_copies[(who, b)] = shared
            usd_rng = seed.child("usd", b, who).rng()
            usd_records[(who, b)] = usd_measure(kept, beta, usd_rng)
    records.append(
        StageRecord(
            "distribution",
            {"alpha_sq": config.alpha_sq, "usd_reference_magnitude": beta},
        )
    )
    for (who, b), rec in usd_records.items():
        records.append(
            StageRecord(
                "usd",
                {
                    "recipient": who,
                    "key_bit": b,
                    "tested": rec.tested,
                    "plus": int(np.count_nonzero(rec.outcomes == 1)),
                    "minus": int(np.count_nonzero(rec.outcomes == -1)),
                },
            )
        )

    aborted = False
    for b in (0, 1):
        report = equality_test(
            shared_copies[("bob", b)],
            shared_copies[("charlie", b)],
            config.f,
            seed.child("equality", b).rng(),
        )
        aborted = aborted or report.aborted
        records.append(
            StageRecord(
                "equality_test",
                {
                    "key_bit": b,
                    "neq_clicks": report.neq_clicks,
                    "total_clicks": report.total_clicks,
                    "neq_fraction": report.neq_fraction,
                    "aborted": report.aborted,
                },
            )
        )

    if aborted:
        records.append(StageRecord("messaging", {"skipped": True, "reason": "aborted"}))
        return QdsTranscript(tuple(records), True, None, None)

    b = config.message_bit
    revealed = keys.key(b).copy()
    flipped_bits = 0
    if config.tamper_model == "flip_revealed":
        mask = _flip_mask(n, float(config.tamper_params["fraction"]), tamper_rng)
        revealed = revealed ^ mask
        flipped_bits = int(mask.sum())
    records.append(
        StageRecord("reveal", {"message_bit": b, "flipped_bits": flipped_bits})
    )

    bob_verdict = verify_message(
        revealed, usd_records[("bob", b)], config.s_a, VerificationRole.AUTHENTICATION
    )
    charlie_verdict = verify_message(
        revealed, usd_records[("charlie", b)], config.s_v, VerificationRole.VERIFICATION
    )
    for who, verdict in (("bob", bob_verdict), ("charlie", charlie_verdict)):
        records.append(
            StageRecord(
                verdict.role.value,
                {
                    "recipient": who,
                    "mismatches": verdict.mismatches,
                    "tested": verdict.tested,
                    "fraction": verdict.fraction,
                    "threshold": verdict.threshold,
                    "accept": verdict.accept,
                },
            )
        )
    return QdsTranscript(tuple(records), False, bob_verdict, charlie_verdict)
