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
   sqrt(2n): the copy meets a reference +beta on a balanced beam splitter, and
   a click on the "+" or "-" port alone gives the sign.  The signs are stored
   as a vector over {-1, 0, +1} (0 = both ports or neither, inconclusive).
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
Tampering is modeled explicitly: ``flip_revealed`` corrupts a fraction
``tamper_fraction`` of the revealed key bits, ``repudiation`` makes Alice send
Charlie states that differ from Bob's in that fraction of the modes.  Every detection stage is one
interferometer, two inputs on a balanced beam splitter with a threshold
detector per port, and one port law gives its thresholds (a, p_1, a + p_2).
A ``QdsConfig`` computes that law once per amplitude level for all its runs,
as two tables (USD against the reference, EQ/NEQ between the copies), one
column per level.  Each detection stage thins the modes at its own table's
largest event probability and decodes one uniform per drawn mode against it.
``split``, ``usd_measure`` and ``equality_test`` take arbitrary states;
``usd_measure`` returns the signs, which ``verify_message`` checks.  One
generator per run, thinned draws, key bits read only where drawn: past keygen
an honest run costs its clicks, not n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
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


def _port_law(u, w) -> np.ndarray:
    """Port thresholds (a, p_1, a + p_2), a = p_1 (1 - p_2), one column per pair of inputs u, w.

    p_1 and p_2 are the threshold-detector click probabilities at the
    ``beam_splitter`` ports (u + w)/sqrt(2) and (u - w)/sqrt(2).  The ports
    click independently, and one uniform per pair carries both: port 1 below
    p_1, port 2 on [a, a + p_2).  a + p_2 is the chance that either clicks.
    """
    with np.errstate(over="ignore"):  # a port power past the float range clicks surely
        p_1, p_2 = (_click_probability(np.abs(port) ** 2) for port in beam_splitter(u, w))
    one_only = p_1 * (1.0 - p_2)
    return np.array([one_only, p_1, one_only + p_2])


def _port_clicks(law: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether port 1 and port 2 click for uniforms u at port law columns."""
    one_only, p_1, either = law
    return u < p_1, (u >= one_only) & (u < either)


def _usd_signs(law: np.ndarray, u: np.ndarray) -> np.ndarray:
    """USD signs at receiver law columns: +1 where only "+" clicks, -1 where only "-" does, else 0."""
    plus, minus = _port_clicks(law, u)
    return plus.view(np.int8) - minus.view(np.int8)


def usd_measure(
    c: ModeCoherentState, reference_magnitude: float, rng: np.random.Generator
) -> np.ndarray:
    """Mode-by-mode USD between +beta and -beta on the kept copy: a read-only int8 vector.

    Entry i is the sign found at mode i, +1 or -1, or 0 where the outcome was
    inconclusive; this is the recipient's classical record.  The receiver is
    linear optics: each mode meets a reference +beta on a balanced beam
    splitter with a threshold detector on each port.  A click on the "+"
    port (u + beta)/sqrt(2) alone reads +1, on the "-" port (u - beta)/sqrt(2)
    alone -1, and both ports or neither read 0.  With honest inputs (every
    amplitude exactly +-beta) one port stays dark, so each mode is conclusive
    with probability 1 - e^{-2 beta^2}, the optimum, and the conclusive sign
    is always the true one.  Other amplitudes follow the same receiver.
    """
    beta = _real(reference_magnitude, "reference_magnitude")
    if beta < 0.0:
        raise ValueError(f"reference_magnitude must be non-negative, got {reference_magnitude!r}")
    law = _port_law(c.mode_amplitudes, beta)
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
    for _ in range(-(-n // chunk)):  # every gap is at least 1: a round passes chunk modes or more
        if modes[-1] >= n:
            break
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
    law = _port_law(b.mode_amplitudes, c.mode_amplitudes)
    modes, u = _sparse_events(law[-1].max(), b.dim, rng)
    return _equality_report(law.take(modes, axis=1), u, f)


def _equality_report(law: np.ndarray, u: np.ndarray, f: float) -> EqualityTestReport:
    """Tally the EQ (port 1) and NEQ (port 2) clicks of uniforms u at port law columns; abort above f."""
    eq, neq = (int(np.count_nonzero(clicks)) for clicks in _port_clicks(law, u))
    fraction = neq / (eq + neq) if eq + neq > 0 else 0.0
    return EqualityTestReport(neq, eq + neq, fraction, bool(fraction > f))


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
    """Run parameters; thresholds 0 <= s_a < s_v < 1; tamper_fraction in (0, 1] under a tamper model, else 0."""

    n: int = 512
    alpha_sq: float = 9.0
    f: float = 0.01
    s_a: float = 0.02
    s_v: float = 0.05
    tamper_model: str = "none"
    tamper_fraction: float = 0.0
    message_bit: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _index(self.n, "n", 1))
        object.__setattr__(self, "message_bit", _index(self.message_bit, "message_bit"))
        for name in ("alpha_sq", "f", "s_a", "s_v", "tamper_fraction"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
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
        if self.tamper_model == "none" and self.tamper_fraction != 0.0:
            raise ValueError("tamper_fraction must be 0 under tamper model 'none'")
        if self.tamper_model != "none" and not 0.0 < self.tamper_fraction <= 1.0:
            raise ValueError(f"tamper_fraction must lie in (0, 1] under tamper model {self.tamper_model!r}")
        if self.message_bit not in (0, 1):
            raise ValueError("message_bit must be 0 or 1")

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The USD and EQ/NEQ port laws per amplitude level, once per config, read-only.

        USD column k is the kept copy of key bit k's amplitude against the
        reference +beta; EQ/NEQ column 2 * Bob's bit + Charlie's bit compares
        the two shared copies.  Two laws, since each stage thins at its own rate.
        """
        amps = np.array([1.0, -1.0]) * (complex(math.sqrt(self.alpha_sq)) / math.sqrt(self.n))
        kept, shared = beam_splitter(amps, 0.0)
        usd = _port_law(kept, math.sqrt(self.alpha_sq / (2.0 * self.n)))
        eq = _port_law(shared[:, None], shared[None, :]).reshape(3, 4)
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
    charlie_keys = keys
    if config.tamper_model == "repudiation":
        charlie_keys = keys ^ np.array([_flip_mask(n, config.tamper_fraction, rng) for _ in (0, 1)])

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
        flips = _flip_mask(n, config.tamper_fraction, rng)
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
