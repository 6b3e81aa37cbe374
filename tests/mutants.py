"""Recorded mutants of cohsim, and a runner that checks the tier-1 suite kills each one.

Each entry changes one rule of the code: a file, the exact old text (which
must occur once in it), the new text, and the claim the mutant breaks.  A
mutant is *killed* when at least one tier-1 test fails on it (or the run
hangs past its timeout), and it *survives* when the whole suite still passes:
then no test guards that claim.
Every catalogued mutant must stay killed; a refactor that removes mutated code
restates its entry in the same change (``tests/test_mutants.py`` checks that
every old text still occurs exactly once).

Run from anywhere, with no flags::

    python tests/mutants.py

It copies the checkout to a temporary directory, checks that the unmutated
copy passes tier-1 with ``cohsim`` imported from the copy's ``src/``, then
applies one entry at a time and runs the full tier-1 suite in the copy.  It
prints the tests that kill each mutant, or "survived", and exits 1 on a
survivor or on a stale entry.

Recorded mutants that no longer apply to today's code, and why:

* "no beta = 0 branch" (USD): the port law has no special case at beta = 0;
  its place is taken by "a stage with no light draws nothing" below.
* "swapped click rows" and "swapped USD rows": the per-outcome tables are
  gone; restated as the ports swapped inside ``_port_law`` and in
  ``_usd_signs``.
* ``_min_one_inverse`` with ``mu < 1.0`` for ``mu <= 1.0`` is equivalent
  (both arms give 1 at mu = 1); the entry drops the first arm instead.
* The ROADMAP's "mutants that must fail" for the hidden-matching law, the QDS
  exact laws' class draws and mode-class transcripts name code that does not
  exist yet.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    claim: str


_CORE, _MAPPING, _DETECTION, _COMMX, _HM, _QDS, _CLI = (
    f"src/cohsim/{name}.py" for name in ("core", "mapping", "detection", "commx", "hidden_matching", "qds", "cli"))

MUTANTS = (
    # Argument policy (core): each refusal the one table in test_core.py asserts.
    Mutant(_CORE, "if type(value) is int and value >= low:", "if type(value) is int:",
           "a plain int below a count's bound is refused"),
    Mutant(_CORE, "if not abs(value) <= sys.float_info.max:", "if abs(value) > sys.float_info.max:",
           "a nan real is refused"),
    Mutant(_CORE, "return complex(_real(value.real, what), _real(value.imag, what))", "return complex(value)",
           "a complex number with a nan or infinite part is refused"),
    Mutant(_CORE, 'if kind != "b" and not isinstance(values, np.ndarray)',
           "if False and not isinstance(values, np.ndarray)", "a bool among numbers is refused outside bit vectors"),
    Mutant(_CORE, "parts /= scale", "parts /= 1.0",
           "normalized scales before it sums, so the squares neither underflow nor overflow"),
    Mutant(_CORE, ">= 2**64:", "> 2**64:", "master_seed fits in an unsigned 64-bit integer"),
    Mutant(_CORE, 'tag, data = 1, key.encode("utf-8")', 'tag, data = 0, key.encode("utf-8")',
           "str and int seed keys carry distinct type tags"),
    # Mapping and detection.
    Mutant(_MAPPING, "if not math.isfinite(power := _power(amps)):", "if math.isnan(power := _power(amps)):",
           "a mode state of infinite power is refused"),
    Mutant(_MAPPING, 'return math.log2(_index(d, "d", 1))', "return math.log2(d)",
           "transmitted_info refuses a d that is not a positive integer"),
    Mutant(_MAPPING, "if abs(v) >= 0.1:", "if abs(v) >= 0.0:",
           "the Poisson deviance is summed as a series where its two terms cancel"),
    Mutant(_DETECTION, "return -np.expm1(-power)", "return -np.expm1(-power / 2)",
           "a threshold detector clicks with probability 1 - e^{-power}"),
    # Bounded-error decisions.
    Mutant(_COMMX, "ZERO = 1\n    ONE = -1", "ZERO = -1\n    ONE = 1", "Outcome is valued sign(C_0 - C_1)"),
    Mutant(_COMMX, "successes, ties = int(tally[2]), int(tally[1])",
           "successes, ties = int(tally[2] + tally[1]), int(tally[1])", "ties count as failures"),
    Mutant(_COMMX, "(0.5 - p_s) * mu", "(0.45 - p_s) * mu",
           "the concentration term bounds Poisson(p_s mu) at mu / 2"),
    Mutant(_COMMX, "return 1.0 if mu <= 1.0 else 1.0 / mu", "return 1.0 if mu <= 0.0 else 1.0 / mu",
           "Le Cam's factor is min(1, 1/mu), so 1 for mu <= 1"),
    Mutant(_COMMX, 'if (d0 := _index(d0, "d0")) > d:', 'if (d0 := _index(d0, "d0")) >= d:',
           "d0 = d (every mode in S_0) is a valid split"),
    # Hidden matching.
    Mutant(_HM, "for parity in (0, 1))", "for parity in (1, 0))",
           'port 2t-1 ("+") announces parity 0 and port 2t parity 1'),
    Mutant(_HM, "right = bits[i] ^ bits[j] == np.asarray(parities)",
           "right = bits[i] ^ bits[j] != np.asarray(parities)", "an answer is right when its parity is x_i XOR x_j"),
    # QDS: optics and detection.
    Mutant(_QDS, "p_1, p_2 = (_click_probability(", "p_2, p_1 = (_click_probability(",
           "port 1 is the (u + w) port of the beam splitter"),
    Mutant(_QDS, "return plus.view(np.int8) - minus.view(np.int8)", "return minus.view(np.int8) - plus.view(np.int8)",
           'USD reads +1 from the "+" port alone and -1 from the "-" port alone'),
    Mutant(_QDS, "return plus.view(np.int8) - minus.view(np.int8)",
           "return plus.view(np.int8) - (minus & ~plus).view(np.int8)", "both ports clicking is inconclusive"),
    Mutant(_QDS, "return u < p_1,", "return u <= p_1,", "port 1 clicks on [0, p_1)"),
    Mutant(_QDS, "(u >= one_only) & (u < either)", "(u > one_only) & (u < either)",
           "port 2 clicks at u = a, the start of [a, a + p_2)"),
    Mutant(_QDS, "(u >= one_only) & (u < either)", "(u >= one_only) & (u <= either)",
           "port 2 stays dark at u = a + p_2, the end of [a, a + p_2)"),
    Mutant(_QDS, "(u >= one_only) & (u < either)", "(u >= p_1) & (u < either)",
           "the two ports click independently (both click on [a, p_1))"),
    Mutant(_QDS, "return modes, rng.random(modes.size) * q_max", "return modes, rng.random(modes.size)",
           "a thinned mode's uniform lies on [0, q_max)"),
    Mutant(_QDS, "q_max = min(q_max, 1.0)", "q_max = 1.0", "a stage draws O(n q_max) values, not O(n)"),
    Mutant(_QDS, "if q_max <= 0.0:", "if q_max < 0.0:", "a stage with no light draws nothing"),
    Mutant(_QDS, "np.minimum(rng.geometric(q_max, chunk), n + 1).cumsum()", "rng.geometric(q_max, chunk).cumsum()",
           "geometric gaps are clipped, so their sum cannot wrap at q_max near 1e-300"),
    Mutant(_QDS, "modes, u = _sparse_events(usd_law[-1].max(), n, rng)",
           "modes, u = _sparse_events(eq_law[-1].max(), n, rng)", "each stage thins at its own law's rate"),
    # QDS: protocol rules.
    Mutant(_QDS, '("charlie", charlie_keys[b])', '("charlie", keys[b])',
           "Charlie measures the states sent to him, which repudiation changes"),
    Mutant(_QDS, "charlie_keys = keys ^ np.array(", "charlie_keys = keys | np.array(",
           "repudiation flips Charlie's key bits under its masks"),
    Mutant(_QDS, "count = max(1, round(fraction * n))", "count = round(fraction * n)",
           "a tamper mask flips at least one position"),
    Mutant(_QDS, "replace=False", "replace=True", "a tamper mask flips round(fraction n) distinct positions"),
    Mutant(_QDS, "eq, neq = (int(", "neq, eq = (int(", "port 1 of the equality test is EQ and port 2 NEQ"),
    Mutant(_QDS, "bool(fraction > f)", "bool(fraction >= f)", "a run aborts only when the NEQ share exceeds f"),
    Mutant(_QDS, "signs == 2 * key_bits.astype(np.int8) - 1", "signs == 1 - 2 * key_bits.astype(np.int8)",
           "a conclusive sign contradicts key bit k when it is 2k - 1"),
    Mutant(_QDS, "signs == 2 * key_bits.astype(np.int8) - 1", "signs != 1 - 2 * key_bits.astype(np.int8)",
           "inconclusive (0) signs are never mismatches"),
    Mutant(_QDS, "accept=bool(fraction < threshold)", "accept=bool(fraction <= threshold)",
           "a recipient accepts only below the threshold"),
    Mutant(_QDS, "(signs == -1) | (signs == 0) | (signs == 1)", "(signs == -1) | (signs == 0) | (signs >= 1)",
           "verify_message refuses a sign outside {-1, 0, 1}"),
    Mutant(_QDS, '    threshold = _real(threshold, "threshold")\n', "",
           "verify_message refuses a threshold that is not a finite real"),
    Mutant(_QDS, "if self.alpha_sq / self.n > 1e16:", "if self.alpha_sq / self.n >= 1e16:",
           "a power per mode of exactly 1e16 is valid"),
    Mutant(_QDS, 'object.__setattr__(self, "tamper_params", MappingProxyType(params))', "",
           "QdsConfig keeps a read-only checked copy of tamper_params"),
    # CLI.
    Mutant(_CLI, 'trials = _index(trials, "trials", 1)', "pass",
           "a qds config's trials is a positive integer, or exit 1"),
    Mutant(_CLI, "except (ValueError, OSError) as exc:", "except ValueError as exc:",
           "an unreadable or unwritable file is exit 1, not 2"),
    Mutant(_CLI, "if (value := _real(value, flag)) < 0.0:", "if (value := _real(value, flag)) <= 0.0:",
           "a zero --mu or --alpha-sq is valid"),
)

_SKIP = shutil.ignore_patterns(".git", ".hypothesis", "__pycache__", ".perfbench-*", ".pytest_cache")
_TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
          "--hypothesis-seed=0", "-rfE", "--ignore=tests/test_mutants.py"]
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)")


def stale(mutant: Mutant, root: Path = ROOT) -> str | None:
    """Why ``mutant`` no longer applies to the files under ``root``, or None."""
    count = (root / mutant.path).read_text(encoding="utf-8").count(mutant.old)
    return None if count == 1 else f"old text occurs {count} times in {mutant.path}"


def _tier1(copy: Path, env: dict, timeout: float | None) -> tuple[int | None, list[str], str]:
    """Exit code (None on timeout), the failing test ids, and the summary line of one tier-1 run."""
    proc = subprocess.Popen([sys.executable, *_TIER1], cwd=copy, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, [], f"timed out after {timeout:.0f} s"
    lines = out.splitlines()
    failed = [m.group(1) for m in map(_FAILED.match, lines) if m]
    return proc.returncode, failed, lines[-1] if lines else ""


def main() -> int:
    stale_entries = [(m, why) for m in MUTANTS if (why := stale(m))]
    for mutant, why in stale_entries:
        print(f"STALE: {mutant.claim}: {why}")
    if stale_entries:
        return 1
    with tempfile.TemporaryDirectory(prefix="cohsim-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        probe = subprocess.run([sys.executable, "-c", "import cohsim; print(cohsim.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True)
        imported = Path(probe.stdout.strip() or ".").resolve()
        if imported != (copy / "src" / "cohsim" / "__init__.py").resolve():
            print(f"cohsim is imported from {imported}, not from the copy: {probe.stderr.strip()}")
            return 1
        start = time.perf_counter()
        code, failed, summary = _tier1(copy, env, None)
        clean_s = time.perf_counter() - start
        print(f"clean copy: {summary}")
        if code != 0:
            print("the unmutated copy fails tier-1:", *failed, sep="\n  ")
            return 1
        timeout = 3.0 * clean_s + 60.0
        survivors = 0
        for k, mutant in enumerate(MUTANTS, 1):
            target = copy / mutant.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                code, failed, summary = _tier1(copy, env, timeout)
            finally:
                target.write_text(original, encoding="utf-8")
            print(f"[{k}/{len(MUTANTS)}] {Path(mutant.path).name}: {mutant.claim}")
            if code == 0:
                survivors += 1
                print("  survived")
            elif code is None or not failed:
                print(f"  killed: {summary}")
            else:
                print(f"  killed by {len(failed)} ({summary}):", *failed, sep="\n    ")
        killed = len(MUTANTS) - survivors
        print(f"{killed} of {len(MUTANTS)} mutants killed, {survivors} survived; clean run {clean_s:.1f} s")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
