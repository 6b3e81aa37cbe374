"""Command-line interface: seeded experiments emitting figure-ready CSV/JSON.

Subcommands: overlap-sweep, hidden-matching, thm-check, qds, dim-bound.
Exit codes: 0 success, 1 validation error, 2 internal invariant violation.
Seeds are explicit everywhere randomness is used; identical invocations
produce bit-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

import numpy as np

from . import commx, detection, mapping, qds
from .core import Seed, _index, _real
from .hidden_matching import Matching, run_experiment


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(args, command: str, params: dict, columns: list[str], rows: list[list]) -> None:
    if args.format == "csv":
        import csv  # only this format loads the module

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [columns, *([_fmt_cell(v) for v in row] for row in rows)]
        )
        text = buf.getvalue()
    else:
        # JSON floats keep 12 significant digits too (a bool is never a float).
        cells = lambda row: [float(f"{v:.12g}") if isinstance(v, float) else v for v in row]
        doc = {
            "command": command,
            # qds may read its seed from the config file; its params hold the one used.
            "seed": params.get("seed", getattr(args, "seed", None)),
            "parameters": dict(zip(params, cells(params.values()))),
            "columns": columns,
            "rows": [cells(row) for row in rows],
        }
        text = json.dumps(doc) + "\n"
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
    return [_real(x, flag) for x in values] if kind is float else values


def _check_non_negative(value: float, flag: str) -> float:
    if (value := _real(value, flag)) < 0.0:
        raise ValueError(f"{flag} must be non-negative, got {value!r}")
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


def _table(rows: list[dict]) -> tuple[list[str], list[list]]:
    """Column names and cell lists of rows built under their column names, all in one key order."""
    return list(rows[0]), [list(row.values()) for row in rows]


def _dim_row(mu: float, delta: int, d: int) -> dict:
    """One ``dim-bound`` row; thm-check's dimension check reads its ratio."""
    bound = mapping.effective_dimension_bound(mu, delta, d)
    return {
        "d": d, "mu": mu, "delta": delta, "log2_d_alpha_upper": bound.log2_d_alpha_upper,
        # log2 d = 0 at d = 1 leaves the ratio undefined: a blank cell.
        "ratio_vs_log2_d": bound.log2_d_alpha_upper / math.log2(d) if d > 1 else "",
        "tail_probability_upper": bound.tail_probability_upper,
        "d_alpha_upper": "" if bound.d_alpha_upper is None else bound.d_alpha_upper,
    }


def _cmd_dim_bound(args):
    dims = _parse_list(args.d, "--d", int)
    _check_non_negative(args.mu, "--mu")
    params = {"mu": args.mu, "delta": args.delta, "d": args.d}
    return *_table([_dim_row(args.mu, args.delta, d) for d in dims]), params


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
        trials=_index(args.trials, "--trials", 1),
        seed=Seed(args.seed),
    )
    row = {
        "n": n, "x": stats.x, "matching": stats.matching, "alpha_sq": stats.alpha_sq,
        "trials": stats.trials, "correct": stats.conclusive_correct, "wrong": stats.conclusive_wrong,
        "inconclusive": stats.inconclusive, "inconclusive_rate": stats.inconclusive_rate,
        "inconclusive_expected": stats.inconclusive_expected,
    }
    params = {"n": n, "alpha_sq": args.alpha_sq, "trials": args.trials}
    return *_table([row]), params


_THM_COLUMNS = [
    "check", "instance", "mu", "lhs", "threshold", "holds",
    "mu0", "mu1", "tau", "p_hat", "ci95_low", "ci95_high",
]


def _thm_row(**cells) -> list:
    """One thm-check row in column order; a cell the check does not report is blank."""
    return [cells.get(name, "") for name in _THM_COLUMNS]


# (p_s, epsilon, mu, d0, d1): uniform qubit probabilities within each block.
_CONDITION_INSTANCES = [
    (0.95, 0.2, 60.0, 20_000, 20_000),
    (0.90, 0.25, 50.0, 10_000, 10_000),
    (1.00, 0.1, 40.0, 40_000, 0),
    (0.75, 0.1, 2.0, 50, 50),      # fails the condition: mu far too small
]


def _cmd_thm_check(args):
    _index(args.lecam_instances, "--lecam-instances", 1)
    _index(args.trials, "--trials", 1)
    seed = Seed(args.seed)
    rows = []

    # Effective-dimension accounting: log2 of the bound stays proportional
    # to log2 d across a doubling sweep.
    for i, d in enumerate([2**k for k in range(4, 15)]):
        ratio = _dim_row(1.0, 5, d)["ratio_vs_log2_d"]
        rows.append(_thm_row(check="dim-bound", instance=i, mu=1.0, lhs=ratio, threshold=6.5,
                             holds=ratio <= 6.5))

    # Poisson-approximation bound on random Poisson-binomial instances.
    rng = seed.child("lecam").rng()
    for i in range(args.lecam_instances):
        n = int(rng.integers(1, 51))
        probs = rng.uniform(0.0, 0.3, n)
        event = set(np.flatnonzero(rng.random(n + 1) < 0.5).tolist())
        check = commx.lecam_bound_check(probs, event)
        rows.append(_thm_row(check="poisson-approx", instance=i, mu=float(probs.sum()), lhs=check.lhs,
                             threshold=check.bound, holds=check.holds))

    # Bounded-error success condition plus Monte Carlo cross-validation: the
    # click counts of a uniform block are Binomial, so each trial is one
    # sampled (C_0, C_1) pair, drawn in blocks from the stream ("mc", i).
    for i, (p_s, eps, mu, d0, d1) in enumerate(_CONDITION_INSTANCES):
        levels = np.array([p_s / d0, (1.0 - p_s) / max(d1, 1)])
        report = commx.check_success_condition(eps, mu, np.repeat(levels, [d0, d1]), d0)
        mc = {}
        if report.holds:
            click_0, click_1 = detection._click_probability(mu * levels).tolist()
            sampler = commx.two_block_trial_generator(d0, click_0, d1, click_1)
            est = commx.estimate_success_probability(sampler, args.trials, seed.child("mc", i))
            mc = {"p_hat": est.p_hat, "ci95_low": est.ci95_low, "ci95_high": est.ci95_high}
        stats = report.stats
        rows.append(_thm_row(check="success-condition", instance=i, mu=mu, lhs=report.lhs, threshold=eps,
                             holds=report.holds, mu0=stats.mu0, mu1=stats.mu1, tau=stats.tau, **mc))

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
        trials = _index(trials, "trials", 1)
        seed = Seed(seed_value)
        config = qds.QdsConfig.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config {args.config}: {exc}") from exc

    rows = []
    for run in range(trials):
        transcript = qds.run_qds(config, seed.child(run))
        bob, charlie = ("" if v is None else v.accept for v in (transcript.bob_verdict, transcript.charlie_verdict))
        summary = qds.StageRecord("summary", {
            "aborted": transcript.aborted, "bob_accepts": bob, "charlie_accepts": charlie,
            "accepted_by_both": transcript.accepted_by_both,
        })
        for record in (*transcript.records, summary):
            for key, value in record.data.items():
                rows.append([run, record.stage, key, value])
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
        import traceback  # only an internal error loads the module

        traceback.print_exc()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
