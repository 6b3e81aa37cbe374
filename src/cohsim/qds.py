"""Quantum digital signatures from phase-encoded coherent states.

One signer (Alice) and two recipients (Bob, Charlie).  The protocol runs in
six steps:

1. Alice draws two uniform n-bit private keys k_0, k_1 from random bytes, the
   rows of one (2, n) array, and sends each recipient the phase-encoded state
   of each key (mode i carries (-1)^{k_{b,i}} * alpha / sqrt(n)).
2. Each recipient splits every received state on a balanced beam splitter,
   yielding two copies with amplitude reduced by sqrt(2).
3. Each recipient measures the first copy mode by mode with unambiguous
   state discrimination (USD) between +beta and -beta, beta = |alpha| /
   sqrt(2n), storing the signs as a vector over {-1, 0, +1} (0 = inconclusive).
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
optics once per amplitude level for all its runs, as two threshold laws (USD
and EQ/NEQ): rows of cumulative event probabilities, one column per level.
Each detection stage thins the modes at its own law's largest event
probability and decodes one uniform per drawn mode against that law.
``split``, ``usd_measure`` and ``equality_test`` take arbitrary states;
``usd_measure`` returns the signs, which ``verify_message`` checks.  One
generator per run, thinned draws, key bits read only where drawn: past keygen
an honest run costs its clicks, not n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import Any

import numpy as np

from .core import Seed, _index, _real, _vector
from .detection import _click_probability
# phase_encoded_state is unused here; perfbench/spans.py PATCHES resolves it as cohsim.qds's.
from .mapping import ModeCoherentState, beam_splitter, parse_bits, phase_encoded_state

TAMPER_MODELS = ("none", "flip_revealed", "repudiation")


def keygen(n: int, rng: np.random.Generator) -> np.ndarray:
    """Alice's private keys as a read-only (2, n) uint8 array; row b signs bit value b.

    The rows are independent uniform n-bit strings, unpacked from one draw of
    2 ceil(n / 8) bytes.
    """
    n = _index(n, "n", 1)
    raw = np.frombuffer(rng.bytes(2 * -(-n // 8)), np.uint8).reshape(2, -1)
    keys = np.unpackbits(raw, axis=1, count=n)
    keys.setflags(write=False)
    return keys


def split(c: ModeCoherentState) -> tuple[ModeCoherentState, ModeCoherentState]:
    """Balanced beam splitter against vacuum in every mode: two copies at 1/sqrt(2).

    Each copy carries half the mean photon number, so energy is conserved.
    """
    kept, shared = beam_splitter(c.mode_amplitudes, 0.0)
    return ModeCoherentState(kept), ModeCoherentState(shared)


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


def _usd_law(amps: np.ndarray, beta: float) -> np.ndarray:
    """USD thresholds (P(+), P(+) + P(-)) per amplitude, one column each."""
    return np.cumsum(_usd_probabilities(amps, beta), axis=0)


def _usd_signs(law: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Signs of uniforms u at USD law columns: +1 below P(+), -1 below P(+) + P(-), else 0."""
    return 2 * (u < law[0]).view(np.int8) - (u < law[1]).view(np.int8)


def usd_measure(
    c: ModeCoherentState, reference_magnitude: float, rng: np.random.Generator
) -> np.ndarray:
    """Mode-by-mode USD between +beta and -beta on the kept copy: a read-only int8 vector.

    Entry i is the sign found at mode i, +1 or -1, or 0 where the outcome was
    inconclusive; this is the recipient's classical record.  With honest
    inputs (every amplitude exactly +-beta) each mode is conclusive with
    probability 1 - e^{-2 beta^2} and the conclusive sign is always the true
    one.  beta = 0 makes the two hypotheses identical, so everything is
    inconclusive.
    """
    beta = _real(reference_magnitude, "reference_magnitude")
    # The USD law squares beta -+ Re(gamma); below this bound no square overflows.
    if not (0.0 <= beta and beta + np.abs(c.mode_amplitudes).max() < 1e154):
        raise ValueError(
            f"reference_magnitude must be non-negative, and plus the largest"
            f" mode modulus below 1e154, got {reference_magnitude!r}"
        )
    law = _usd_law(c.mode_amplitudes, beta)
    modes, u = _sparse_events(law[-1].max(), c.dim, rng)
    outcomes = np.zeros(c.dim, dtype=np.int8)
    outcomes[modes] = _usd_signs(law.take(modes, axis=1), u)
    outcomes.setflags(write=False)
    return outcomes


def _sparse_events(q_max: float, n: int, rng: np.random.Generator):
    """Sorted modes of n whose uniform falls below q_max, with those uniforms: exact thinning.

    Keeping the modes whose uniform is below q_max is a Bernoulli(q_max)
    process, drawn as geometric gaps, then one uniform on [0, q_max) per
    event: a stage costs O(n q_max) draws, not O(n).  Gaps are clipped at
    n + 1, since near q_max = 1e-300 numpy returns 2**63 - 1 and cumsum wraps.
    """
    q_max = min(q_max, 1.0)
    if q_max <= 0.0:
        return np.empty(0, np.int64), np.empty(0)
    chunk = int(n * q_max + 6.0 * math.sqrt(n * q_max)) + 8
    ends = lambda: np.minimum(rng.geometric(q_max, chunk), n + 1).cumsum()
    modes = ends() - 1
    while modes[-1] < n:
        modes = np.concatenate((modes, modes[-1] + ends()))
    modes = modes[: modes.searchsorted(n)]
    return modes, rng.random(modes.size) * q_max


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
    if not 0.0 < (f := _real(f, "f")) < 1.0:
        raise ValueError(f"f must lie in (0, 1), got {f!r}")
    law = _equality_law(b.mode_amplitudes, c.mode_amplitudes)
    modes, u = _sparse_events(law[-1].max(), b.dim, rng)
    return _equality_report(law.take(modes, axis=1), u, f)


def _click_probabilities(u, w) -> tuple[np.ndarray, np.ndarray]:
    """Threshold-detector click probabilities at the EQ and NEQ ports."""
    return tuple(_click_probability(np.abs(port) ** 2) for port in beam_splitter(u, w))


def _equality_law(u, w) -> np.ndarray:
    """EQ/NEQ thresholds (a, p_eq, a + p_neq), a = p_eq (1 - p_neq), one column per mode pair.

    The ports click independently, and one uniform per pair carries both:
    EQ below p_eq, NEQ on [a, a + p_neq).  a + p_neq is the chance that either clicks.
    """
    p_eq, p_neq = _click_probabilities(u, w)
    eq_only = p_eq * (1.0 - p_neq)
    return np.array([eq_only, p_eq, eq_only + p_neq])


def _equality_report(law: np.ndarray, u: np.ndarray, f: float) -> EqualityTestReport:
    """Tally the EQ and NEQ clicks of uniforms u at equality law columns; abort above f."""
    eq_only, p_eq, either = law
    eq_clicks = int(np.count_nonzero(u < p_eq))
    neq_clicks = int(np.count_nonzero((u >= eq_only) & (u < either)))
    total = eq_clicks + neq_clicks
    fraction = neq_clicks / total if total > 0 else 0.0
    return EqualityTestReport(
        neq_clicks=neq_clicks,
        total_clicks=total,
        neq_fraction=fraction,
        aborted=bool(fraction > f),
    )


@dataclass(frozen=True)
class VerificationVerdict:
    """Mismatch tally between a revealed key and a recipient's USD signs."""

    mismatches: int
    tested: int
    fraction: float
    accept: bool
    threshold: float


def verify_message(revealed_key, signs, threshold: float) -> VerificationVerdict:
    """Count conclusive positions whose sign contradicts the revealed key.

    ``signs`` is a recipient's USD record as :func:`usd_measure` returns it:
    a vector over {-1, 0, +1} with one entry per key bit.  The expected sign
    at position i is (-1)^{key_i}.  The fraction is taken over conclusive
    positions only; an all-inconclusive record yields fraction 0 (and
    tested = 0 in the verdict flags the degeneracy).
    """
    threshold = _real(threshold, "threshold")
    key = parse_bits(revealed_key)
    signs = _vector(signs, "signs")
    if not np.all((signs == -1) | (signs == 0) | (signs == 1)):
        raise ValueError("signs must be a vector over {-1, 0, 1}")
    if key.size != signs.size:
        raise ValueError("revealed key length does not match the signs")
    return _verdict(key, signs, threshold)


def _verdict(key_bits, signs, threshold: float) -> VerificationVerdict:
    """Tally the non-zero signs that differ from (-1)^key_bits at the same positions."""
    # The expected sign is 1 - 2 k, so a conclusive sign contradicts bit k when it is 2 k - 1.
    mismatches = int(np.count_nonzero(signs == 2 * key_bits.astype(np.int8) - 1))
    tested = int(np.count_nonzero(signs))
    fraction = mismatches / max(tested, 1)
    return VerificationVerdict(
        mismatches=mismatches,
        tested=tested,
        fraction=fraction,
        accept=bool(fraction < threshold),
        threshold=float(threshold),
    )


@dataclass(frozen=True)
class QdsConfig:
    """Run parameters; thresholds 0 <= s_a < s_v < 1; tamper_params kept as a read-only checked copy."""

    n: int = 512
    alpha_sq: float = 9.0
    f: float = 0.01
    s_a: float = 0.02
    s_v: float = 0.05
    tamper_model: str = "none"
    tamper_params: dict | MappingProxyType = field(default_factory=dict)
    message_bit: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _index(self.n, "n", 1))
        object.__setattr__(self, "message_bit", _index(self.message_bit, "message_bit"))
        for name in ("alpha_sq", "f", "s_a", "s_v"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not isinstance(self.tamper_params, (dict, MappingProxyType)):
            raise TypeError(f"tamper_params must be an object, got {self.tamper_params!r}")
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
                raise ValueError(f"tamper model {self.tamper_model!r} takes no tamper_params key {key!r}")
        if allowed and "fraction" not in self.tamper_params:
            raise ValueError("tamper_params must set 'fraction' in (0, 1]")
        params = {key: _real(value, key) for key, value in self.tamper_params.items()}
        if allowed and not 0.0 < params["fraction"] <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        object.__setattr__(self, "tamper_params", MappingProxyType(params))
        if self.message_bit not in (0, 1):
            raise ValueError("message_bit must be 0 or 1")

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The USD and EQ/NEQ threshold laws per amplitude level, once per config, read-only.

        USD column k is the kept copy of key bit k's amplitude; EQ/NEQ column
        2 * Bob's bit + Charlie's bit compares the two shared copies.
        """
        amps = np.array([1.0, -1.0]) * (complex(math.sqrt(self.alpha_sq)) / math.sqrt(self.n))
        kept, shared = beam_splitter(amps, 0.0)
        usd = _usd_law(kept, math.sqrt(self.alpha_sq / (2.0 * self.n)))
        eq = _equality_law(shared[:, None], shared[None, :]).reshape(3, 4)
        for table in (usd, eq):
            table.setflags(write=False)
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
    count = max(1, round(fraction * n))
    mask = np.zeros(n, dtype=np.uint8)
    mask[rng.choice(n, size=count, replace=False)] = 1
    return mask


def run_qds(config: QdsConfig, seed: Seed) -> QdsTranscript:
    """Execute distribution, symmetrization, and messaging for one run.

    The optics and measurement laws come from ``config.tables`` and are read
    by key bit at the modes each stage drew.  All stages draw, in protocol
    order, from the one generator ``seed.rng()``: keygen, the repudiation masks,
    the four USD stages, the two equality tests, then the flip_revealed mask.
    """
    n = config.n
    rng = seed.rng()
    keys = keygen(n, rng)
    records = [StageRecord("keygen", {"n": n})]
    fraction = config.tamper_params.get("fraction")
    charlie_keys = keys
    if config.tamper_model == "repudiation":
        charlie_keys = keys ^ np.array([_flip_mask(n, fraction, rng) for _ in (0, 1)])

    beta = math.sqrt(config.alpha_sq / (2.0 * n))
    distribution = {"alpha_sq": config.alpha_sq, "usd_reference_magnitude": beta}
    records.append(StageRecord("distribution", distribution))
    usd_law, eq_law = config.tables
    usd_events: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
    for b in (0, 1):
        for who, key in (("bob", keys[b]), ("charlie", charlie_keys[b])):
            modes, u = _sparse_events(usd_law[-1].max(), n, rng)
            signs = _usd_signs(usd_law.take(key[modes], axis=1), u)
            usd_events[who, b] = modes, signs
            plus, minus = (signs.tolist().count(sign) for sign in (1, -1))
            counts = {"tested": plus + minus, "plus": plus, "minus": minus}
            records.append(StageRecord("usd", {"recipient": who, "key_bit": b, **counts}))

    aborted = False
    for b in (0, 1):
        modes, u = _sparse_events(eq_law[-1].max(), n, rng)
        pairs = 2 * keys[b][modes] + charlie_keys[b][modes]
        report = _equality_report(eq_law.take(pairs, axis=1), u, config.f)
        aborted = aborted or report.aborted
        records.append(StageRecord("equality_test", {"key_bit": b, **vars(report)}))

    if aborted:
        records.append(StageRecord("messaging", {"skipped": True, "reason": "aborted"}))
        return QdsTranscript(tuple(records), True, None, None)

    b = config.message_bit
    revealed, flipped_bits = keys[b], 0
    if config.tamper_model == "flip_revealed":
        flips = _flip_mask(n, fraction, rng)
        revealed, flipped_bits = revealed ^ flips, int(np.count_nonzero(flips))
    records.append(StageRecord("reveal", {"message_bit": b, "flipped_bits": flipped_bits}))

    verdicts = []
    stages = (("authentication", "bob", config.s_a), ("verification", "charlie", config.s_v))
    for stage, who, threshold in stages:
        modes, signs = usd_events[who, b]
        verdicts.append(verdict := _verdict(revealed[modes], signs, threshold))
        tally = ("mismatches", "tested", "fraction", "threshold", "accept")
        data = {"recipient": who, **{key: getattr(verdict, key) for key in tally}}
        records.append(StageRecord(stage, data))
    return QdsTranscript(tuple(records), False, *verdicts)
