"""Spans around calls into cohsim's layers, and the self-time arithmetic over them.

The traced child process (``traced_cli.py``) wraps the public functions of
each cohsim module, from outside the package, at the name the calling module
looks them up by.  Every call records a span (name, start, end, parent) in
flat in-memory arrays, which are written once when the process ends.
``run.py`` reads the file back and derives per-layer figures.

This module imports numpy only inside the functions that need it, so that
loading it before ``import cohsim`` does not shift numpy's import cost out of
the measured import.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter

# (module, attribute path, span name).  The module is the one whose namespace
# the caller looks the name up in; methods are patched on their class, which
# every caller shares.
PATCHES = [
    ("cohsim.core", "Seed.rng", "core.seed_rng"),
    ("cohsim.core", "UnitaryOp.__init__", "core.unitary_op"),
    ("cohsim.mapping", "ModeCoherentState.__init__", "mapping.mode_state"),
    ("cohsim.hidden_matching", "phase_encoded_state", "mapping.phase_encoded_state"),
    ("cohsim.qds", "phase_encoded_state", "mapping.phase_encoded_state"),
    ("cohsim.mapping", "effective_dimension_bound", "mapping.effective_dimension_bound"),
    ("cohsim.hidden_matching", "sample_click_pattern", "detection.sample_click_pattern"),
    ("cohsim.detection", "ClickPattern.__init__", "detection.click_pattern"),
    ("cohsim.commx", "decide", "commx.decide"),
    ("cohsim.commx", "estimate_success_probability", "commx.estimate_success_probability"),
    ("cohsim.commx", "poisson_binomial_exact", "commx.poisson_binomial_exact"),
    ("cohsim.commx", "lecam_bound_check", "commx.lecam_bound_check"),
    ("cohsim.commx", "check_success_condition", "commx.check_success_condition"),
    ("cohsim.hidden_matching", "bob_unitary", "hidden_matching.bob_unitary"),
    ("cohsim.hidden_matching", "random_matching", "hidden_matching.random_matching"),
    ("cohsim.cli", "run_experiment", "hidden_matching.run_experiment"),
    ("cohsim.qds", "run_qds", "qds.run_qds"),
    ("cohsim.qds", "keygen", "qds.keygen"),
    ("cohsim.qds", "split", "qds.split"),
    ("cohsim.qds", "usd_measure", "qds.usd_measure"),
    ("cohsim.qds", "equality_test", "qds.equality_test"),
    ("cohsim.qds", "verify_message", "qds.verify_message"),
]

# The two-block trial generator is a closure made per instance; its factory is
# patched to hand out a traced closure.
TRIAL_GENERATOR_FACTORY = ("cohsim.commx", "two_block_trial_generator", "commx.trial_generator")

# Spans reported with calls and self time; ``cli.import`` is reported as an import time.
SPAN_NAMES = sorted({span for _, _, span in PATCHES} | {TRIAL_GENERATOR_FACTORY[2], "cli.main"})

# Bytes of one complex128 matrix entry, for the computed size of a dense network.
COMPLEX128_BYTES = 16


def _count_modes(counters, result, state, *args, **kwargs):
    counters["detection.sample_click_pattern.modes"] += state.dim


def _count_network(counters, result, matching, *args, **kwargs):
    counters["hidden_matching.network_bytes_computed"] += COMPLEX128_BYTES * matching.n**2


def _count_hm(counters, stats, *args, **kwargs):
    counters["hidden_matching.trials"] += stats.trials
    counters["hidden_matching.conclusive"] += stats.conclusive_correct + stats.conclusive_wrong
    counters["hidden_matching.wrong"] += stats.conclusive_wrong


def _count_mc(counters, estimate, *args, **kwargs):
    counters["commx.mc.trials"] += estimate.trials
    counters["commx.mc.successes"] += estimate.successes
    counters["commx.mc.ties"] += estimate.ties


def _count_usd(counters, record, *args, **kwargs):
    counters["qds.usd.modes"] += record.dim
    counters["qds.usd.tested"] += record.tested


def _count_qds(counters, transcript, *args, **kwargs):
    counters["qds.aborts"] += int(transcript.aborted)
    for verdict in (transcript.bob_verdict, transcript.charlie_verdict):
        if verdict is not None:
            counters["qds.mismatches"] += verdict.mismatches


COUNTERS = {
    "detection.sample_click_pattern": _count_modes,
    "hidden_matching.bob_unitary": _count_network,
    "hidden_matching.run_experiment": _count_hm,
    "commx.estimate_success_probability": _count_mc,
    "qds.usd_measure": _count_usd,
    "qds.run_qds": _count_qds,
}


class Tracer:
    """Spans and counters of one process, kept in flat arrays until :meth:`save`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the currently open one."""
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1])
        self.starts.append(start)
        self.ends.append(end)

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span recorded around every call; ``count`` sees each result."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if count is not None:
                count(counters, result, *args, **kwargs)
            return result

        return traced

    def save(self, path, **meta) -> None:
        import numpy as np

        np.savez(
            path,
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            meta=np.array(json.dumps({"names": self.names, "counters": self.counters, **meta})),
        )


def install(tracer: Tracer) -> list[str]:
    """Patch every traced name in the imported cohsim modules; returns those not found."""
    missing = []
    for module_name, path, span in PATCHES:
        owner, attr = _resolve(module_name, path)
        if owner is None:
            missing.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), COUNTERS.get(span)))
    module_name, path, span = TRIAL_GENERATOR_FACTORY
    owner, attr = _resolve(module_name, path)
    if owner is None:
        missing.append(f"{module_name}.{path}")
    else:
        factory = getattr(owner, attr)

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return tracer.wrap(span, factory(*args, **kwargs))

        setattr(owner, attr, traced_factory)
    return missing


def _resolve(module_name: str, path: str):
    """(object holding the last attribute of ``path``, attribute name); None if absent."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None, attr
    return owner, attr


def self_times(parents, starts, ends):
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so they nest properly and the children of a
    span never overlap: the time its children cover is the sum of their
    durations.  A span's parent is its index in the arrays, or -1 at the top.
    """
    import numpy as np

    parents = np.asarray(parents)
    durations = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=durations[nested], minlength=durations.size)
    return durations - covered


def load(path) -> dict:
    """Per-name call counts and self times, plus counters, from a saved span file."""
    import numpy as np

    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        name_ids = data["name_ids"]
        own = self_times(data["parents"], data["starts"], data["ends"])
    names = meta.pop("names")
    calls = np.bincount(name_ids, minlength=len(names))
    self_s = np.bincount(name_ids, weights=own, minlength=len(names))
    return {
        "calls": {name: int(calls[i]) for i, name in enumerate(names)},
        "self_s": {name: float(self_s[i]) for i, name in enumerate(names)},
        **meta,
    }
