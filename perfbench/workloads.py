"""The benchmark's workloads: cohsim command lines made from a seed, and the output gate.

Each workload is one ``cohsim`` CLI invocation.  Its inputs come only from the
workload seed, so the same seed always gives the same command.  The gate
checks every output against analytic references with statistical
tolerances, never against recorded draws, so it keeps working when the
program's random streams change.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Why each workload is in the benchmark; BENCHMARK.json carries the same lines.
WHY = {
    "hm-ref6": "six-mode hidden matching at 1e5 trials: per-trial seeding, sampling and tally dominate",
    "hm-wide": "2048-mode hidden matching: the dense beam-splitter network dominates set-up and memory",
    "thm-check": "bound checks plus 30k Monte Carlo trials: the only workload through commx and the analytic bounds",
    "qds-wide": "signature protocol at n = 65536: few calls over large vectors, the opposite of hm-ref6",
}

REFERENCE_MATCHING = "1-6,2-5,3-4"
REFERENCE_X = "010101"
ALPHA_SQ_HM = 3.0

# Full sizes: what the benchmark runs.  Tests pass smaller ones.
SIZES = {
    "hm-ref6": {"trials": 100_000},
    "hm-wide": {"n": 2048, "trials": 60_000},
    "thm-check": {"lecam_instances": 100, "trials": 10_000},
    "qds-wide": {"n": 65_536, "alpha_sq": 9.0, "runs": 60},
}

# thm-check runs Monte Carlo on the three success-condition instances that hold.
THM_MC_INSTANCES = 3

# Statistical checks allow this many standard deviations.
SIGMAS = 5.0


@dataclass(frozen=True)
class Job:
    """One workload instance: the CLI arguments and what its output must satisfy."""

    workload: str
    seed: int
    cli_args: tuple[str, ...]
    setup: dict
    trials: int
    params: dict


def make_job(workload: str, seed: int, workdir: Path, sizes: dict | None = None) -> Job:
    """Build the job for ``workload`` from ``seed``; qds-wide writes its config into ``workdir``."""
    size = dict(SIZES[workload] if sizes is None else sizes)
    cli_seed = random.Random(f"{workload}:{seed}").randrange(2**32)
    if workload in ("hm-ref6", "hm-wide"):
        if workload == "hm-ref6":
            n, matching, x = len(REFERENCE_X), REFERENCE_MATCHING, REFERENCE_X
            args = []
        else:
            n, matching, x = size["n"], "random", "random"
            args = ["--n", str(n)]
        args = ["hidden-matching", *args, "--matching", matching, "--x", x,
                "--alpha-sq", repr(ALPHA_SQ_HM), "--trials", str(size["trials"])]
        setup = {"command": "hidden-matching", "n": n, "matching": matching, "x": x,
                 "alpha_sq": ALPHA_SQ_HM, "seed": cli_seed}
        params = {"n": n, "trials": size["trials"], "alpha_sq": ALPHA_SQ_HM}
        trials = size["trials"]
    elif workload == "thm-check":
        args = ["thm-check", "--lecam-instances", str(size["lecam_instances"]),
                "--trials", str(size["trials"])]
        setup = {"command": "thm-check"}
        params = size
        trials = THM_MC_INSTANCES * size["trials"]
    elif workload == "qds-wide":
        qds_fields = {"n": size["n"], "alpha_sq": size["alpha_sq"]}
        path = Path(workdir) / f"qds-{seed}.json"
        path.write_text(
            json.dumps({**qds_fields, "trials": size["runs"], "seed": cli_seed}), encoding="utf-8"
        )
        args = ["qds", "--config", str(path)]
        setup = {"command": "qds", "config": qds_fields}
        params = size
        trials = size["runs"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload != "qds-wide":
        args += ["--seed", str(cli_seed)]
    return Job(workload, seed, tuple(args + ["--format", "json"]), setup, trials, params)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in output")


def check_output(job: Job, returncode: int, text: str) -> list[str]:
    """Problems with one repetition's output; an empty list means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"output is not strict JSON: {exc}"]
    try:
        rows = [dict(zip(doc["columns"], row)) for row in doc["rows"]]
        return _CHECKS[job.workload](job, rows)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_hidden_matching(job: Job, rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    row = rows[0]
    p = job.params
    trials = p["trials"]
    problems = []
    if row["n"] != p["n"] or row["trials"] != trials:
        problems.append(f"row reports n={row['n']} trials={row['trials']}")
    if row["correct"] + row["wrong"] + row["inconclusive"] != trials:
        problems.append("correct + wrong + inconclusive != trials")
    if row["wrong"] != 0:
        problems.append(f"{row['wrong']} wrong outcomes")
    q = math.exp(-p["alpha_sq"])
    sigma = math.sqrt(trials * q * (1.0 - q))
    if abs(row["inconclusive"] - trials * q) > SIGMAS * sigma:
        problems.append(
            f"inconclusive {row['inconclusive']} is more than {SIGMAS} sigma from {trials * q:.1f}"
        )
    return problems


def _check_thm(job: Job, rows: list[dict]) -> list[str]:
    problems = []
    by_check: dict[str, list[dict]] = {}
    for row in rows:
        by_check.setdefault(row["check"], []).append(row)
    if not by_check.get("dim-bound"):
        problems.append("no dim-bound rows")
    if len(by_check.get("poisson-approx", [])) != job.params["lecam_instances"]:
        problems.append("wrong number of poisson-approx rows")
    for row in by_check.get("dim-bound", []) + by_check.get("poisson-approx", []):
        if row["holds"] is not True:
            problems.append(f"{row['check']} instance {row['instance']} does not hold")
    conditions = {row["instance"]: row for row in by_check.get("success-condition", [])}
    if sorted(conditions) != list(range(THM_MC_INSTANCES + 1)):
        return problems + [f"success-condition instances {sorted(conditions)}"]
    trials = job.params["trials"]
    for i in range(THM_MC_INSTANCES):
        row = conditions[i]
        if row["holds"] is not True:
            problems.append(f"success-condition instance {i} does not hold")
            continue
        lower = 1.0 - row["lhs"]
        sigma = math.sqrt(max(lower * (1.0 - lower), 0.0) / trials)
        if not row["p_hat"] >= lower - SIGMAS * sigma:
            problems.append(f"instance {i}: p_hat {row['p_hat']} below 1 - lhs = {lower}")
    if conditions[THM_MC_INSTANCES]["holds"] is not False:
        problems.append(f"success-condition instance {THM_MC_INSTANCES} should fail")
    return problems


def _check_qds(job: Job, rows: list[dict]) -> list[str]:
    runs: dict[int, dict] = {}
    mismatches = 0
    for row in rows:
        if row["stage"] == "summary":
            runs.setdefault(row["run"], {})[row["field"]] = row["value"]
        elif row["field"] == "mismatches":
            mismatches += row["value"]
    problems = []
    if sorted(runs) != list(range(job.params["runs"])):
        problems.append(f"expected runs 0..{job.params['runs'] - 1}, got {len(runs)}")
    for run, summary in sorted(runs.items()):
        if summary.get("aborted") is not False:
            problems.append(f"honest run {run} aborted")
        elif summary.get("bob_accepts") is not True or summary.get("charlie_accepts") is not True:
            problems.append(f"honest run {run} rejected")
    if mismatches != 0:
        problems.append(f"{mismatches} mismatches on honest runs")
    return problems


_CHECKS = {
    "hm-ref6": _check_hidden_matching,
    "hm-wide": _check_hidden_matching,
    "thm-check": _check_thm,
    "qds-wide": _check_qds,
}
