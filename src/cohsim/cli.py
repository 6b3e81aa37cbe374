"""Command-line interface: seeded experiments emitting figure-ready CSV/JSON.

Subcommands: overlap-sweep, hidden-matching, thm-check, qds, dim-bound.
Exit codes: 0 success, 1 validation error, 2 internal invariant violation.
Seeds are explicit everywhere randomness is used; identical invocations
produce bit-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import traceback

import numpy as np

from . import commx, mapping, qds
from .core import Seed, _index
from .hidden_matching import Matching, run_experiment


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return float(f"{value:.12g}")


def _emit(args, command: str, params: dict, columns: list[str], rows: list[list]) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])
        text = buf.getvalue()
    else:
        doc = {
            "command": command,
            # qds may read its seed from the config file; its params hold the one used.
            "seed": params.get("seed", getattr(args, "seed", None)),
            "parameters": {k: _json_value(v) for k, v in params.items()},
            "columns": columns,
            "rows": [[_json_value(v) for v in row] for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_list(text: str, flag: str, kind=float) -> list:
    """Comma list of numbers of one kind; empty, malformed or non-finite lists fail."""
    try:
        values = [kind(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad {flag} list {text!r}: {exc}") from exc
    if not values:
        raise ValueError(f"{flag} list is empty")
    if kind is float and not all(map(math.isfinite, values)):
        raise ValueError(f"{flag} values must be finite, got {text!r}")
    return values


def _check_non_negative(value: float, flag: str) -> float:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{flag} must be finite and non-negative, got {value!r}")
    return value


def _check_positive(value: int, flag: str) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_overlap_sweep(args):
    mus = _parse_list(args.mu, "--mu")
    deltas = _parse_list(args.delta, "--delta")
    if any(not 0.0 <= d <= 1.0 for d in deltas):
        raise ValueError("delta grid values must lie in [0, 1]")
    rows = []
    for mu in mus:
        alpha = math.sqrt(_check_non_negative(mu, "--mu"))
        for delta in deltas:
            rows.append([mu, delta, mapping.overlap_coherent(delta, alpha).real])
    params = {"mu": args.mu, "delta": args.delta}
    return ["mu", "delta", "delta_alpha"], rows, params


def _cmd_dim_bound(args):
    dims = _parse_list(args.d, "--d", int)
    mu = _check_non_negative(args.mu, "--mu")
    rows = []
    for d in dims:
        bound = mapping.effective_dimension_bound(mu, args.delta, d)
        # log2 d = 0 at d = 1 leaves the ratio undefined: a blank cell.
        ratio = bound.log2_d_alpha_upper / math.log2(d) if d > 1 else ""
        exact = "" if bound.d_alpha_upper is None else bound.d_alpha_upper
        rows.append([d, args.mu, args.delta, bound.log2_d_alpha_upper, ratio,
                     bound.tail_probability_upper, exact])
    params = {"mu": args.mu, "delta": args.delta, "d": args.d}
    columns = [
        "d", "mu", "delta", "log2_d_alpha_upper", "ratio_vs_log2_d",
        "tail_probability_upper", "d_alpha_upper",
    ]
    return columns, rows, params


def _cmd_hidden_matching(args):
    matching = None if args.matching == "random" else Matching.parse(args.matching)
    x = None if args.x == "random" else args.x
    n = args.n
    if n is None:
        if matching is not None:
            n = matching.n
        elif x is not None:
            n = len(x)
        else:
            raise ValueError("--n is required when both --x and --matching are random")
    stats = run_experiment(
        n=n,
        matching=matching,
        x=x,
        alpha=math.sqrt(_check_non_negative(args.alpha_sq, "--alpha-sq")),
        trials=_check_positive(args.trials, "--trials"),
        seed=Seed(args.seed),
    )
    row = [
        n,
        stats.x,
        stats.matching,
        stats.alpha_sq,
        stats.trials,
        stats.conclusive_correct,
        stats.conclusive_wrong,
        stats.inconclusive,
        stats.inconclusive_rate,
        stats.inconclusive_expected,
    ]
    params = {"n": n, "alpha_sq": args.alpha_sq, "trials": args.trials}
    columns = [
        "n", "x", "matching", "alpha_sq", "trials", "correct", "wrong",
        "inconclusive", "inconclusive_rate", "inconclusive_expected",
    ]
    return columns, [row], params


_THM_COLUMNS = [
    "check", "instance", "mu", "lhs", "threshold", "holds",
    "mu0", "mu1", "tau", "p_hat", "ci95",
]

# (p_s, epsilon, mu, d0, d1): uniform qubit probabilities within each block.
_CONDITION_INSTANCES = [
    (0.95, 0.2, 60.0, 20_000, 20_000),
    (0.90, 0.25, 50.0, 10_000, 10_000),
    (1.00, 0.1, 40.0, 40_000, 0),
    (0.75, 0.1, 2.0, 50, 50),      # fails the condition: mu far too small
]


def _uniform_block_probs(p_s: float, d0: int, d1: int) -> np.ndarray:
    probs = np.empty(d0 + d1)
    probs[:d0] = p_s / d0
    if d1:
        probs[d0:] = (1.0 - p_s) / d1
    return probs


def _cmd_thm_check(args):
    _check_positive(args.lecam_instances, "--lecam-instances")
    _check_positive(args.trials, "--trials")
    seed = Seed(args.seed)
    rows = []

    # Effective-dimension accounting: log2 of the bound stays proportional
    # to log2 d across a doubling sweep.
    for i, d in enumerate([2**k for k in range(4, 15)]):
        bound = mapping.effective_dimension_bound(1.0, 5, d)
        ratio = bound.log2_d_alpha_upper / math.log2(d)
        rows.append(
            ["dim-bound", i, 1.0, ratio, 6.5, ratio <= 6.5, "", "", "", "", ""]
        )

    # Poisson-approximation bound on random Poisson-binomial instances.
    rng = seed.child("lecam").rng()
    for i in range(args.lecam_instances):
        n = int(rng.integers(1, 51))
        probs = rng.uniform(0.0, 0.3, n)
        event = set(np.flatnonzero(rng.random(n + 1) < 0.5).tolist())
        check = commx.lecam_bound_check(probs, event)
        rows.append(
            [
                "poisson-approx", i, float(probs.sum()), check.lhs, check.bound,
                check.holds, "", "", "", "", "",
            ]
        )

    # Bounded-error success condition plus Monte Carlo cross-validation: the
    # click counts of a uniform block are Binomial, so each trial is one
    # sampled (C_0, C_1) pair, drawn in blocks from the stream ("mc", i).
    for i, (p_s, eps, mu, d0, d1) in enumerate(_CONDITION_INSTANCES):
        probs = _uniform_block_probs(p_s, d0, d1)
        partition = commx.leading_block_partition(d0, d1)
        report = commx.check_success_condition(p_s, eps, mu, probs, partition)
        p_hat = ""
        ci95 = ""
        if report.holds:
            # With d1 = 0 the last mode is in S_0; Binomial(0, p) is 0 for any p.
            click = -np.expm1(-mu * probs)
            sampler = commx.two_block_trial_generator(d0, float(click[0]), d1, float(click[-1]))
            mc = commx.estimate_success_probability(sampler, args.trials, seed.child("mc", i))
            p_hat = mc.p_hat
            ci95 = mc.ci95
        rows.append(
            [
                "success-condition", i, mu, report.lhs, eps, report.holds,
                report.stats.mu0, report.stats.mu1, report.stats.tau, p_hat, ci95,
            ]
        )

    params = {"lecam_instances": args.lecam_instances, "trials": args.trials}
    return _THM_COLUMNS, rows, params


def _cmd_qds(args):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {args.config}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {args.config}: top level must be an object")

    trials = raw.pop("trials", 1)
    seed_value = raw.pop("seed", None)
    if args.seed is not None:
        seed_value = args.seed
    if seed_value is None:
        raise ValueError(f"config {args.config}: field 'seed' is required")
    try:
        trials = _check_positive(_index(trials, "trials"), "trials")
        seed = Seed(seed_value)
        config = qds.QdsConfig.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config {args.config}: {exc}") from exc

    rows = []
    for run in range(trials):
        transcript = qds.run_qds(config, seed.child(run))
        for record in transcript.records:
            for key, value in record.data.items():
                rows.append([run, record.stage, key, value])
        rows.append([run, "summary", "aborted", transcript.aborted])
        rows.append(
            [run, "summary", "bob_accepts",
             transcript.bob_verdict.accept if transcript.bob_verdict else ""]
        )
        rows.append(
            [run, "summary", "charlie_accepts",
             transcript.charlie_verdict.accept if transcript.charlie_verdict else ""]
        )
        rows.append([run, "summary", "accepted_by_both", transcript.accepted_by_both])
    params = {"config": args.config, "trials": trials, "seed": seed_value}
    return ["run", "stage", "field", "value"], rows, params


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohsim",
        description="Coherent-state protocol simulations and bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("overlap-sweep", help="overlap law delta_alpha = exp[mu(delta-1)]")
    p.add_argument("--mu", default="0.25,0.5,1,2,4", help="comma list of |alpha|^2 values")
    p.add_argument("--delta", default=",".join(f"{0.05 * k:.2f}" for k in range(0, 21)),
                   help="comma list of qubit-overlap values in [0, 1]")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_overlap_sweep)

    p = sub.add_parser("dim-bound", help="effective-dimension bound sweep")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--delta", type=int, default=5)
    p.add_argument("--d", default=",".join(str(2**k) for k in range(4, 15)),
                   help="comma list of dimensions")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_dim_bound)

    p = sub.add_parser("hidden-matching", help="run the hidden-matching protocol")
    p.add_argument("--n", type=int, default=None, help="number of modes (even)")
    p.add_argument("--x", default="random", help="bit string, or 'random'")
    p.add_argument("--matching", default="random",
                   help="pairs like '1-6,2-5,3-4', or 'random'")
    p.add_argument("--alpha-sq", type=float, default=3.0, dest="alpha_sq")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_hidden_matching)

    p = sub.add_parser("thm-check", help="validate the analytic bounds numerically")
    p.add_argument("--lecam-instances", type=int, default=100, dest="lecam_instances")
    p.add_argument("--trials", type=int, default=20_000,
                   help="Monte Carlo trials per success-condition instance")
    p.add_argument("--seed", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_thm_check)

    p = sub.add_parser("qds", help="run the signature protocol from a config file")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_qds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments; that's a validation failure here.
        return 0 if exc.code in (None, 0) else 1
    try:
        columns, rows, params = args.handler(args)
        _emit(args, args.command, params, columns, rows)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
