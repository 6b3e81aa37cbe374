"""Quantum digital signatures from phase-encoded coherent states.

One signer (Alice) and two recipients (Bob, Charlie).  The protocol runs in
six steps:

1. Alice draws two uniform n-bit private keys k_0, k_1 from random bytes and
   sends each recipient the phase-encoded state of each key (mode i carries
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
differ from Bob's in a fraction of the modes.  A ``QdsConfig`` computes the
optics once per amplitude level for all its runs; ``split``, ``usd_measure``
and ``equality_test`` take arbitrary states.  Draws are thinned, and stages
read key bits only where they drew: past keygen a run costs its clicks, not n.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from functools import cached_property
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
    """Two independent uniform n-bit strings, unpacked from ceil(n / 8) random bytes each."""
    if n < 1:
        raise ValueError("key length must be at least 1")
    draw = lambda: np.unpackbits(np.frombuffer(rng.bytes(-(-n // 8)), np.uint8), count=n)
    return PrivateKeys(draw(), draw())


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
        if arr.ndim != 1 or arr.size < 1 or arr.min() < -1 or arr.max() > 1:
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
    norm = -math.expm1(-2.0 * beta * beta)
    if norm == 0.0:  # beta^2 is 0: identical hypotheses, every outcome inconclusive
        return np.zeros(amps.shape), np.zeros(amps.shape)
    s = math.exp(-2.0 * beta * beta)
    # For gamma = x + iy, <+-beta|gamma> has modulus exp(-((beta -+ x)^2 + y^2)/2),
    # at most 1, and phase +-beta*y: real arithmetic only.  (beta -+ x)^2 + y^2
    # is at most (beta + |gamma|)^2, finite while beta + |gamma| is below 1e154,
    # which usd_measure checks and QdsConfig's bound implies.
    # 1 - s^2 comes from expm1, which stays non-zero for every beta > 0.
    x, y_sq = amps.real, amps.imag**2
    mod_plus = np.exp(-((beta - x) ** 2 + y_sq) / 2.0)
    mod_minus = np.exp(-((beta + x) ** 2 + y_sq) / 2.0)
    cos_sq = np.cos(beta * amps.imag) ** 2
    norm *= (1.0 + s) ** 2

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
    # The USD law squares beta -+ Re(gamma); below this bound no square overflows.
    if not (0.0 <= beta and beta + np.abs(c.mode_amplitudes).max() < 1e154):
        raise ValueError(
            f"reference magnitude must be finite and non-negative, and plus the largest"
            f" mode modulus below 1e154, got {reference_magnitude!r}"
        )
    table = np.array(_usd_probabilities(c.mode_amplitudes, beta))
    return _usd_draw(table, np.arange(c.dim), rng)


def _sparse_events(q: np.ndarray, n: int, rng: np.random.Generator):
    """Modes of n whose uniform falls below max(q), with those uniforms: exact thinning.

    Each mode has event probability q at its table column.  Drawing one
    uniform per mode and keeping those below q_max = max(q) is the same law as
    drawing K ~ Binomial(n, q_max), then K distinct modes, then one uniform on
    [0, q_max) for each, so a stage costs O(n q_max) draws instead of O(n).
    """
    q_max = min(float(q.max()), 1.0)
    k = rng.binomial(n, q_max)
    modes = rng.choice(n, k, replace=False, shuffle=False)
    return modes, rng.random(k) * q_max


def _usd_events(table: np.ndarray, n: int, column, rng: np.random.Generator):
    """(modes, signs) of the thinned draw over n modes, at table columns column(modes).

    u < P(+) is +1, u < P(+) + P(-) is -1, else 0.
    """
    modes, u = _sparse_events(table.sum(axis=0), n, rng)
    p_plus, p_minus = table[:, column(modes)]
    return modes, np.where(u < p_plus, 1, np.where(u < p_plus + p_minus, -1, 0)).astype(np.int8)


def _usd_draw(table: np.ndarray, levels: np.ndarray, rng: np.random.Generator) -> UsdRecord:
    """The per-mode record of :func:`_usd_events`, mode i reading table column levels[i]."""
    modes, signs = _usd_events(table, levels.size, levels.__getitem__, rng)
    outcomes = np.zeros(levels.size, dtype=np.int8)
    outcomes[modes] = signs
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
    table = np.array(_click_probabilities(b.mode_amplitudes, c.mode_amplitudes))
    return _equality_draw(table, b.dim, lambda modes: modes, f, rng)


def _click_probabilities(u, w) -> tuple[np.ndarray, np.ndarray]:
    """Threshold-detector click probabilities 1 - e^{-|a|^2} at the EQ and NEQ ports."""
    return tuple(-np.expm1(-np.abs(port) ** 2) for port in beam_splitter(u, w))


def _equality_draw(table, n: int, column, f: float, rng: np.random.Generator) -> EqualityTestReport:
    """Tally EQ and NEQ clicks over n modes from the (p_eq, p_neq) rows of table; abort above f.

    Drawn modes read table columns column(modes).  The ports click independently,
    and one uniform u per mode carries both: EQ below p_eq, NEQ on [a, a + p_neq)
    with a = p_eq (1 - p_neq).
    """
    p_eq, p_neq = table
    modes, u = _sparse_events(p_eq * (1.0 - p_neq) + p_neq, n, rng)
    p_eq, p_neq = table[:, column(modes)]
    eq_only = p_eq * (1.0 - p_neq)
    eq_clicks = int(np.count_nonzero(u < p_eq))
    neq_clicks = int(np.count_nonzero((u >= eq_only) & (u < eq_only + p_neq)))
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
    return _verdict(key, record.outcomes, threshold, role)


def _verdict(key_bits, signs, threshold: float, role: VerificationRole) -> VerificationVerdict:
    """Tally the non-zero signs that differ from (-1)^key_bits at the same positions."""
    conclusive = signs != 0
    mismatches = int(np.count_nonzero(conclusive & (signs != 1 - 2 * key_bits.astype(np.int8))))
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
        if self.alpha_sq / self.n > 1e16:
            # Past this power per mode, rounding puts the sent amplitudes a
            # resolvable distance from the USD reference +-beta.
            raise ValueError("alpha_sq / n must be at most 1e16")
        if not 0.0 < self.f < 1.0:
            raise ValueError("f must lie in (0, 1)")
        if not 0.0 <= self.s_a < self.s_v < 1.0:
            raise ValueError("thresholds must satisfy 0 <= s_a < s_v < 1")
        if self.tamper_model not in TAMPER_MODELS:
            raise ValueError(
                f"unknown tamper model {self.tamper_model!r}; expected one of {TAMPER_MODELS}"
            )
        allowed = () if self.tamper_model == "none" else ("fraction",)
        for key in self.tamper_params:
            if key not in allowed:
                raise ValueError(
                    f"tamper model {self.tamper_model!r} takes no tamper_params key {key!r}"
                )
        if allowed:
            frac = self.tamper_params.get("fraction")
            if not _is_real(frac) or not 0.0 < frac <= 1.0:
                raise ValueError("tamper_params must set 'fraction' in (0, 1]")
        if self.message_bit not in (0, 1):
            raise ValueError("message_bit must be 0 or 1")

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The laws per amplitude level, computed once per config and read-only.

        USD column k is the kept copy of key bit k's amplitude; EQ/NEQ column
        2 * Bob's bit + Charlie's bit compares the two shared copies.
        """
        amps = np.array([1.0, -1.0]) * (complex(math.sqrt(self.alpha_sq)) / math.sqrt(self.n))
        kept, shared = beam_splitter(amps, 0.0)
        usd = np.array(_usd_probabilities(kept, math.sqrt(self.alpha_sq / (2.0 * self.n))))
        eq = np.array(_click_probabilities(shared[:, None], shared[None, :])).reshape(2, 4)
        usd.setflags(write=False)
        eq.setflags(write=False)
        return usd, eq

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

    The optics and measurement laws come from ``config.tables`` and are looked
    up by key bit at the modes each stage drew.  Every stage draws from its own
    named stream under ``seed``: "keygen", "tamper", ("usd", b, recipient) and
    ("equality", b).
    """
    n = config.n
    records: list[StageRecord] = []

    keys = keygen(n, seed.child("keygen").rng())
    records.append(StageRecord("keygen", {"n": n}))

    tamper_rng, no_flips = seed.child("tamper").rng(), np.zeros(n, dtype=np.uint8)
    # A flip mask from the tamper stream under the config's model, none under the others.
    flips = lambda model: (_flip_mask(n, config.tamper_params["fraction"], tamper_rng)
                           if config.tamper_model == model else no_flips)
    masks = [flips("repudiation") for _ in (0, 1)]  # Charlie receives Bob's key ^ masks[b]

    beta = math.sqrt(config.alpha_sq / (2.0 * n))
    distribution = {"alpha_sq": config.alpha_sq, "usd_reference_magnitude": beta}
    records.append(StageRecord("distribution", distribution))
    usd_table, eq_table = config.tables
    usd_events: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
    for b in (0, 1):
        bob, mask = keys.key(b), masks[b]
        columns = {"bob": bob.__getitem__, "charlie": lambda m: bob[m] ^ mask[m]}
        for who, column in columns.items():
            usd_rng = seed.child("usd", b, who).rng()
            usd_events[(who, b)] = _, signs = _usd_events(usd_table, n, column, usd_rng)
            plus, minus = (signs.tolist().count(sign) for sign in (1, -1))
            counts = {"tested": plus + minus, "plus": plus, "minus": minus}
            records.append(StageRecord("usd", {"recipient": who, "key_bit": b, **counts}))

    aborted = False
    for b in (0, 1):
        bob, mask = keys.key(b), masks[b]
        pair = lambda m: 2 * bob[m] + (bob[m] ^ mask[m])  # eq_table column
        report = _equality_draw(eq_table, n, pair, config.f, seed.child("equality", b).rng())
        aborted = aborted or report.aborted
        records.append(StageRecord("equality_test", {"key_bit": b, **vars(report)}))

    if aborted:
        records.append(StageRecord("messaging", {"skipped": True, "reason": "aborted"}))
        return QdsTranscript(tuple(records), True, None, None)

    b = config.message_bit
    flipped = flips("flip_revealed")
    flipped_bits = 0 if flipped is no_flips else int(np.count_nonzero(flipped))
    records.append(StageRecord("reveal", {"message_bit": b, "flipped_bits": flipped_bits}))

    verdicts = []
    roles = (("bob", config.s_a, VerificationRole.AUTHENTICATION),
             ("charlie", config.s_v, VerificationRole.VERIFICATION))
    for who, threshold, role in roles:
        modes, signs = usd_events[(who, b)]
        revealed = keys.key(b)[modes] ^ flipped[modes]
        verdicts.append(verdict := _verdict(revealed, signs, threshold, role))
        tally = ("mismatches", "tested", "fraction", "threshold", "accept")
        data = {"recipient": who, **{key: getattr(verdict, key) for key in tally}}
        records.append(StageRecord(role.value, data))
    return QdsTranscript(tuple(records), False, *verdicts)
