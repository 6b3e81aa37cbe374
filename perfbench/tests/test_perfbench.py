"""Tests of the benchmark itself: span arithmetic, the output gate, and tiny runs.

    python3 -m pytest perfbench/tests -q

Run from the repository root; the tiny runs start cohsim from ``src``.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "hm-ref6": {"trials": 300},
    "hm-wide": {"n": 64, "trials": 300},
    "thm-check": {"lecam_instances": 3, "trials": 300},
    "qds-wide": {"n": 512, "alpha_sq": 9.0, "runs": 2},
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- self-time arithmetic ----------------------------------------------------


def test_self_times_subtract_direct_children_only():
    # main [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    # (which holds d [5.5, 6] and e [7, 8.5]); imp [-2, -1] is a second root.
    parents = [-1, 0, 1, 0, 3, 3, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 5.5, 7.0, -2.0]
    ends = [10.0, 4.0, 3.0, 9.0, 6.0, 8.5, -1.0]
    own = spans.self_times(parents, starts, ends)
    assert own.tolist() == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5, 1.0])
    assert own.sum() == pytest.approx(10.0 + 1.0)


def test_tracer_spans_nest_and_load_back(tmp_path):
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        leaf()
        leaf()

    leaf = tracer.wrap("leaf", leaf)
    middle = tracer.wrap("middle", middle)
    tracer.add("setup", 0.0, 0.5)
    top = tracer.wrap("top", lambda: (middle(), leaf()))
    start = time.perf_counter()
    top()
    elapsed = time.perf_counter() - start
    path = tmp_path / "spans.npz"
    tracer.save(path, repetition=3)
    loaded = spans.load(path)
    assert loaded["calls"] == {"setup": 1, "leaf": 3, "middle": 1, "top": 1}
    assert loaded["repetition"] == 3
    assert all(value >= 0.0 for value in loaded["self_s"].values())
    assert loaded["self_s"]["leaf"] >= 0.006
    # Self times of one tree add up to its root's duration.
    tree = sum(v for k, v in loaded["self_s"].items() if k != "setup")
    assert tree == pytest.approx(elapsed, abs=1e-3)


# --- the gate ------------------------------------------------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real tiny output per workload: (job, stdout text)."""
    workdir = tmp_path_factory.mktemp("outputs")
    runner = run.Runner(ROOT, workdir, time.monotonic())
    found = {}
    for name, size in TINY.items():
        job = workloads.make_job(name, 7, workdir, size)
        sample = runner.run(run.python_argv("-c", run.CLI_MAIN, *job.cli_args))
        found[name] = (job, sample.returncode, sample.stdout)
    return found


def _rewrite(text, change):
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def _set_cell(doc, column, value, where=lambda row: True):
    col = doc["columns"].index(column)
    for row in doc["rows"]:
        if where(dict(zip(doc["columns"], row))):
            row[col] = value


@pytest.mark.parametrize("name", list(TINY))
def test_gate_passes_real_output_and_rejects_exit_2_and_nan(outputs, name):
    job, code, text = outputs[name]
    assert code == 0
    assert workloads.check_output(job, 0, text) == []
    assert workloads.check_output(job, 2, text) == ["exit code 2"]
    col = "inconclusive_rate" if name.startswith("hm") else (
        "lhs" if name == "thm-check" else "value")
    nan_text = _rewrite(text, lambda doc: _set_cell(doc, col, math.nan))
    assert "NaN" in nan_text
    assert workloads.check_output(job, 0, nan_text)


def test_gate_rejects_wrong_hidden_matching_outcomes(outputs):
    job, _, text = outputs["hm-ref6"]

    def one_wrong(doc):
        _set_cell(doc, "wrong", 1)
        _set_cell(doc, "correct", doc["rows"][0][doc["columns"].index("correct")] - 1)

    assert any("wrong" in p for p in workloads.check_output(job, 0, _rewrite(text, one_wrong)))
    half = job.trials // 2
    too_dark = _rewrite(text, lambda doc: (_set_cell(doc, "inconclusive", half),
                                           _set_cell(doc, "correct", job.trials - half)))
    assert any("sigma" in p for p in workloads.check_output(job, 0, too_dark))


def test_gate_rejects_an_aborted_or_rejected_honest_qds_run(outputs):
    job, _, text = outputs["qds-wide"]

    def summary(field_name):
        return lambda row: row["stage"] == "summary" and row["field"] == field_name

    aborted = _rewrite(text, lambda doc: _set_cell(doc, "value", True, summary("aborted")))
    assert any("aborted" in p for p in workloads.check_output(job, 0, aborted))
    rejected = _rewrite(text, lambda doc: _set_cell(doc, "value", False, summary("bob_accepts")))
    assert any("rejected" in p for p in workloads.check_output(job, 0, rejected))


def test_gate_rejects_failed_bounds(outputs):
    job, _, text = outputs["thm-check"]

    def instance(check, i):
        return lambda row: row["check"] == check and row["instance"] == i

    lecam = _rewrite(text, lambda doc: _set_cell(doc, "holds", False, instance("poisson-approx", 1)))
    assert workloads.check_output(job, 0, lecam)
    low = _rewrite(text, lambda doc: _set_cell(doc, "p_hat", 0.5, instance("success-condition", 0)))
    assert any("p_hat" in p for p in workloads.check_output(job, 0, low))
    flipped = _rewrite(text, lambda doc: _set_cell(doc, "holds", True,
                                                   instance("success-condition", 3)))
    assert any("should fail" in p for p in workloads.check_output(job, 0, flipped))


def test_benchmark_json_names_the_workloads_with_their_reasons():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == workloads.WHY


def test_same_seed_same_command(tmp_path):
    for name in workloads.WHY:
        a = workloads.make_job(name, 11, tmp_path)
        b = workloads.make_job(name, 11, tmp_path)
        c = workloads.make_job(name, 12, tmp_path)
        assert a == b
        assert a.setup != c.setup or a.cli_args != c.cli_args


# --- tiny runs ------------------------------------------------------------------


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_of_each_workload(tmp_path, name):
    runner = run.Runner(ROOT, tmp_path, time.monotonic())
    run.warm_up(runner)
    job = workloads.make_job(name, 3, tmp_path, TINY[name])

    found = run.measure(runner, job, 0.0, trace=0)
    assert run.tally(found) == (2 * run.MIN_PAIRS[0], 0)
    assert len(found["setup"]) == len(found["command"]) == run.MIN_PAIRS[0]
    assert all(s.speed > 0 for s in found["setup"] + found["command"])

    found = run.measure(runner, job, 0.0, trace=1)
    assert run.tally(found) == (2 * run.MIN_PAIRS[1], 0)
    layers = run.per_layer(found)
    run.select(layers, BENCHMARK["per_layer"])
    self_total = layers["cli.import_s"] + sum(
        v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total + layers["trace.unaccounted_s"] == pytest.approx(layers["trace.wall_s"])
    assert 0.0 < layers["trace.unaccounted_frac"] < 1.0
    assert found["traced"][0].layers["unpatched"] == []


def test_end_to_end_arithmetic(tmp_path):
    job = workloads.make_job("hm-ref6", 1, tmp_path, {"trials": 400})

    def sample(wall, speed=1.0, rss=2048, problems=()):
        return run.Sample(wall_s=wall, returncode=0, maxrss_kib=rss, stdout="", stderr="",
                          speed=speed, problems=list(problems))

    # The machine runs at full, 2/3 and half speed for the three pairs; the
    # failed probe counts as attempted and failed, and gives no time.
    found = {
        "setup": [sample(1.0), sample(9.9, problems=["exit code 1"]), sample(2.0, 0.5)],
        "command": [sample(3.0), sample(4.5, 2 / 3, 1024), sample(6.0, 0.5, 4096)],
        "traced": [],
    }
    assert run.tally(found) == (6, 1)
    metrics = run.select(run.end_to_end(job, found), BENCHMARK["end_to_end"])
    assert {name: m["value"] for name, m in metrics.items()} == pytest.approx(
        {"wall_s": 3.0, "setup_s": 1.0, "trials_per_s": 200.0, "peak_rss_mb": 2.0,
         "pass_frac": 5 / 6})
    assert metrics["trials_per_s"]["unit"] == "1/s"


def test_speed_gauge_reads_nominal_speed_as_about_one():
    gauge = run.SpeedGauge()
    gauge.start()
    time.sleep(0.3)
    factor = gauge.finish()
    assert len(gauge.times) >= 5
    assert 0.1 < factor < 10.0
    assert not gauge.is_alive()


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hm-ref6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
