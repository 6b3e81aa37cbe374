import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohsim
from cohsim import Seed, cli
from cohsim.qds import TAMPER_MODELS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    ref = resources.files("cohsim").joinpath("schemas/output.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_overlap_sweep_csv_values(capsys):
    code, out, _ = run_cli(
        capsys, "overlap-sweep", "--mu", "0,0.5,4", "--delta", "0.2,0.9"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["mu", "delta", "delta_alpha"]
    table = {(r[0], r[1]): float(r[2]) for r in rows}
    assert table[("0.5", "0.2")] == pytest.approx(math.exp(-0.4), rel=1e-11)
    assert table[("4", "0.9")] == pytest.approx(math.exp(-0.4), rel=1e-11)
    # mu = 0 is valid: no light, overlap 1 (kills the catalogued mutant refusing a
    # zero --mu or --alpha-sq, which the suite let through before)
    assert table[("0", "0.2")] == 1.0
    # small mu raises overlaps, large mu lowers them
    assert table[("0.5", "0.2")] > 0.2
    assert table[("4", "0.9")] < 0.9


def test_dim_bound_ratio_column(capsys):
    code, out, _ = run_cli(capsys, "dim-bound", "--d", "16,4096")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "d"
    ratios = [float(r[4]) for r in rows]
    assert all(r < 6.5 for r in ratios)


def test_dim_bound_at_large_mu_and_d_emits_strict_json(capsys):
    # The exact bound has about 36k digits, past Python's int-to-str limit.
    code, out, err = run_cli(capsys, "dim-bound", "--mu", "1e6", "--d", "16384", "--format", "json")
    assert code == 0, err
    doc = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(doc, load_schema())
    (row,) = (dict(zip(doc["columns"], row)) for row in doc["rows"])
    assert row["d_alpha_upper"] == ""
    assert 1e5 < row["log2_d_alpha_upper"] < 1e6


def test_dim_bound_json_is_strict_at_d_one(capsys):
    code, out, _ = run_cli(capsys, "dim-bound", "--d", "1,2", "--format", "json")
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(doc, load_schema())
    ratio = doc["columns"].index("ratio_vs_log2_d")
    assert doc["rows"][0][ratio] == ""
    assert isinstance(doc["rows"][1][ratio], float)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("overlap-sweep", "--mu", "nan"), "--mu"),
        (("overlap-sweep", "--mu", "1,inf"), "--mu"),
        (("overlap-sweep", "--mu", "-1"), "--mu"),
        (("overlap-sweep", "--delta", "0.5,nan"), "--delta"),
        (("dim-bound", "--d", "4,x"), "--d"),
        (("dim-bound", "--mu", "inf"), "--mu"),
        (("hidden-matching", "--n", "4", "--alpha-sq", "nan", "--seed", "1"), "--alpha-sq"),
        (("hidden-matching", "--n", "4", "--alpha-sq", "inf", "--seed", "1"), "--alpha-sq"),
        (("hidden-matching", "--n", "4", "--alpha-sq", "-1", "--seed", "1"), "--alpha-sq"),
        (("hidden-matching", "--n", "4", "--trials", "0", "--seed", "1"), "--trials"),
        (("thm-check", "--lecam-instances", "-1", "--seed", "1"), "--lecam-instances"),
        (("thm-check", "--lecam-instances", "0", "--seed", "1"), "--lecam-instances"),
        (("thm-check", "--trials", "0", "--seed", "1"), "--trials"),
        (("overlap-sweep", "--delta", "0.2,1.4"), "delta"),
        (("dim-bound", "--mu", "1e308", "--delta", str(10**308)), "double range"),
        (("hidden-matching", "--matching", "1-2,3", "--seed", "1"), "pair"),
        (("hidden-matching", "--n", "4"), "--seed"),
        (("frobnicate",), "frobnicate"),
    ],
)
def test_invalid_arguments_are_validation_errors_naming_the_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert flag in err


def test_cli_import_leaves_scipy_csv_and_traceback_out():
    # scipy is test-only; csv and traceback load on the paths that use them.
    src = str(Path(cohsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = "import sys, cohsim.cli; print(sorted({'scipy', 'csv', 'traceback'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_json_output_validates_against_shipped_schema(capsys, tmp_path):
    out_file = tmp_path / "out.json"
    for argv in (["overlap-sweep", "--mu", "1"], ["qds", "--config", str(write_config(tmp_path, trials=1))]):
        code, _, _ = run_cli(capsys, *argv, "--format", "json", "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        jsonschema.validate(doc, load_schema())
        assert doc["command"] == argv[0]


def test_hidden_matching_reference_instance(capsys):
    code, out, _ = run_cli(
        capsys, "hidden-matching",
        "--matching", "1-6,2-5,3-4", "--x", "010101",
        "--alpha-sq", "3", "--trials", "5000", "--seed", "42",
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["wrong"] == "0"
    assert float(row["inconclusive_expected"]) == pytest.approx(math.exp(-3), rel=1e-11)
    rate = float(row["inconclusive_rate"])
    assert abs(rate - math.exp(-3)) < 0.02


def test_thm_check_all_bounds_hold(capsys):
    code, out, _ = run_cli(
        capsys, "thm-check", "--seed", "5",
        "--lecam-instances", "25", "--trials", "4000",
    )
    assert code == 0
    header, rows = parse_csv(out)
    idx = {name: i for i, name in enumerate(header)}
    for row in rows:
        if row[idx["check"]] in ("dim-bound", "poisson-approx"):
            assert row[idx["holds"]] == "true"
        if row[idx["check"]] == "success-condition" and row[idx["holds"]] == "true":
            p_hat = float(row[idx["p_hat"]])
            ci95 = float(row[idx["ci95"]])
            epsilon = float(row[idx["threshold"]])
            assert p_hat >= 1 - epsilon - 3 * ci95
    assert any(r[idx["check"]] == "success-condition" and r[idx["holds"]] == "true" for r in rows)
    assert any(r[idx["check"]] == "success-condition" and r[idx["holds"]] == "false" for r in rows)


def write_config(tmp_path, **overrides):
    config = {
        "n": 64, "alpha_sq": 9.0, "f": 0.01, "s_a": 0.02, "s_v": 0.05,
        "seed": 11, "trials": 3,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_qds_honest_config_accepts(capsys, tmp_path):
    path = write_config(tmp_path)
    code, out, _ = run_cli(capsys, "qds", "--config", str(path))
    assert code == 0
    header, rows = parse_csv(out)
    summary = [r for r in rows if r[1] == "summary" and r[2] == "accepted_by_both"]
    assert len(summary) == 3
    assert all(r[3] == "true" for r in summary)


def test_qds_tamper_config_rejects(capsys, tmp_path):
    path = write_config(
        tmp_path, n=512, alpha_sq=36.0,
        tamper_model="flip_revealed", tamper_params={"fraction": 0.2},
        trials=5,
    )
    code, out, _ = run_cli(capsys, "qds", "--config", str(path))
    assert code == 0
    _, rows = parse_csv(out)
    bob = [r for r in rows if r[1] == "summary" and r[2] == "bob_accepts"]
    assert all(r[3] == "false" for r in bob)


def test_qds_vanishing_reference_magnitude_exits_zero(capsys, tmp_path):
    # At 5e-324, alpha_sq / (2n) underflows to 0: every USD outcome is inconclusive,
    # nothing is nan.  At 1e-300 every stage thins at q_max = 1e-300, where numpy
    # draws geometric gaps of 2**63 - 1.
    for n, alpha_sq in ((4, 5e-324), (1, 1e-300)):
        path = write_config(tmp_path, n=n, alpha_sq=alpha_sq, trials=1)
        code, out, _ = run_cli(capsys, "qds", "--config", str(path))
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[3] for r in rows if r[1] == "usd" and r[2] == "tested"] == ["0"] * 4


def test_qds_power_per_mode_past_double_resolution_exits_one(tmp_path):
    # (beta + x)^2 overflowed here; under -W error that was an exit 2.
    path = write_config(tmp_path, n=1, alpha_sq=1.7e308, trials=1)
    src = str(Path(cohsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cohsim.cli",
         "qds", "--config", str(path), "--format", "json"],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert "alpha_sq" in result.stderr


def test_qds_threshold_misorder_is_validation_error(capsys, tmp_path):
    path = write_config(tmp_path, s_a=0.05, s_v=0.05)
    code, _, err = run_cli(capsys, "qds", "--config", str(path))
    assert code == 1
    assert "threshold" in err


def test_qds_config_json_error_reports_line(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 64,\n  "alpha_sq": }\n')
    code, _, err = run_cli(capsys, "qds", "--config", str(path))
    assert code == 1
    assert "line 2" in err


def test_qds_missing_seed_rejected(capsys, tmp_path):
    config = {"n": 16, "alpha_sq": 4.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "qds", "--config", str(path))
    assert code == 1
    assert "seed" in err


@pytest.mark.parametrize("override, used", [(None, 5), ("9", 9)])
def test_qds_json_reports_the_seed_it_ran_with(capsys, tmp_path, override, used):
    # the seed comes from the config file unless --seed overrides it
    path = write_config(tmp_path, seed=5, trials=1)
    argv = ["qds", "--config", str(path), "--format", "json"]
    if override is not None:
        argv += ["--seed", override]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == used
    assert doc["parameters"]["seed"] == used


def test_internal_failure_maps_to_exit_code_two(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("invariant violated")

    # main() builds its parser after the patch, so the handler is the stub
    monkeypatch.setattr(cli, "_cmd_overlap_sweep", boom)
    code = cli.main(["overlap-sweep"])
    captured = capsys.readouterr()
    assert code == 2
    assert "invariant violated" in captured.err


def test_unreadable_config_and_unwritable_output_exit_one(capsys, tmp_path):
    # Kills the catalogued mutant that catches ValueError alone, not OSError,
    # which the suite let through before.
    code, out, err = run_cli(capsys, "qds", "--config", str(tmp_path / "missing.json"))
    assert (code, out) == (1, "") and "missing.json" in err
    code, _, err = run_cli(capsys, "overlap-sweep", "--out", str(tmp_path))  # a directory
    assert code == 1 and err.startswith("error:")


def test_reals_use_twelve_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "overlap-sweep", "--mu", "1", "--delta", "0.3")
    assert code == 0
    _, rows = parse_csv(out)
    value = rows[0][2]
    assert value == f"{math.exp(-0.7):.12g}"


@pytest.mark.parametrize(
    "overrides, field",
    [
        # QdsConfig's and Seed's own refusals are in test_core's refusal table;
        # one each shows that the command names the field and exits 1.
        ({"n": 512.5}, "n"),
        ({"seed": 1.5}, "seed"),
        ({"seed": 2**64}, "seed"),
        ({"tamper_params": []}, "tamper_params"),
        ({"tamper_model": "repudiation", "tamper_params": []}, "tamper_params"),
        ({"trials": 2.7}, "trials"),
        ({"trials": False}, "trials"),
        ({"tamper_params": {"fraction": 0.2}}, "fraction"),
        ({"tamper_model": "flip_revealed", "tamper_params": {"fraction": 0.2, "fracton": 0.5}},
         "fracton"),
    ],
)
def test_qds_config_type_errors_exit_one_naming_the_field(capsys, tmp_path, overrides, field):
    path = write_config(tmp_path, **overrides)
    code, out, err = run_cli(capsys, "qds", "--config", str(path))
    assert code == 1
    assert out == ""
    assert field in err
    assert "not supported" not in err


# Each fixed-seed command, small enough to run twice in fresh interpreters.
_FIXED_SEED_RUNS = {
    "hidden-matching": ["hidden-matching", "--n", "16", "--trials", "3000", "--seed", "7"],
    "thm-check": ["thm-check", "--lecam-instances", "10", "--trials", "2000", "--seed", "7"],
    "qds": ["qds", "--seed", "7"],
}


@pytest.mark.parametrize("command", sorted(_FIXED_SEED_RUNS))
def test_fixed_seed_output_is_byte_identical_across_processes(tmp_path, command):
    argv = list(_FIXED_SEED_RUNS[command])
    if command == "qds":
        argv += ["--config", str(write_config(tmp_path, trials=4))]
    src = str(Path(cohsim.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
            PYTHONHASHSEED=hash_seed,
        )
        result = subprocess.run(
            [sys.executable, "-m", "cohsim.cli", *argv, "--format", "json"],
            env=env, capture_output=True, check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["rows"]


def test_thm_check_draws_each_stage_from_its_own_stream(capsys, monkeypatch):
    # Flat offsets let the three Monte Carlo instances share 19k of their
    # 20k trial streams.  Every stream is now named, and no value drawn by
    # one stream reappears in another.
    streams = []
    rng = Seed.rng
    monkeypatch.setattr(Seed, "rng", lambda self: streams.append(self) or rng(self))
    code, _, _ = run_cli(
        capsys, "thm-check", "--lecam-instances", "3", "--trials", "50", "--seed", "7"
    )
    assert code == 0
    assert [s.path for s in streams] == [("lecam",), ("mc", 0), ("mc", 1), ("mc", 2)]
    draws = [rng(s).integers(0, 2**63, 2_000) for s in streams]
    assert len(set().union(*map(set, draws))) == sum(d.size for d in draws)


_json_scalars = (
    st.none() | st.booleans() | st.integers(-3, 64) | st.floats() | st.text(max_size=6)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_field_values = st.one_of(
    st.integers(0, 64),
    st.floats(0.0, 1.0),
    st.sampled_from(TAMPER_MODELS),
    st.fixed_dictionaries({"fraction": _json_scalars | st.floats(0.0, 1.0)}),
    _json_values,
)
_field_names = st.sampled_from(
    ["n", "alpha_sq", "f", "s_a", "s_v", "tamper_model", "tamper_params",
     "message_bit", "trials", "seed"]
)
# Well-typed configs whose values may break the range checks, a valid config
# with up to three fields replaced by any JSON, or any JSON document at all.
_typed_configs = st.fixed_dictionaries(
    {
        "n": st.integers(-2, 64),
        "alpha_sq": st.floats(),
        "f": st.floats(0.0, 1.0),
        "s_a": st.floats(0.0, 0.5),
        "s_v": st.floats(0.0, 1.0),
        "tamper_model": st.sampled_from(TAMPER_MODELS),
        "tamper_params": st.just({}) | st.fixed_dictionaries({"fraction": st.floats(0.0, 1.0)}),
        "message_bit": st.integers(0, 1),
        "trials": st.integers(0, 3),
        "seed": st.integers(0, 2**64),
    }
)
_configs = st.one_of(
    _typed_configs,
    st.builds(
        lambda changes: {"n": 16, "alpha_sq": 9.0, "seed": 1, "trials": 1, **changes},
        st.dictionaries(_field_names, _field_values, max_size=3),
    ),
    _json_values,
)


@settings(max_examples=300)
@given(config=_configs)
def test_any_json_qds_config_exits_zero_or_one_with_finite_output(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out.json"
        code = cli.main(["qds", "--config", str(path), "--format", "json", "--out", str(out)])
        assert code in (0, 1)
        if code == 0:
            doc = json.loads(out.read_text(), parse_constant=_reject_constant)
            cells = [v for row in doc["rows"] for v in row]
            assert all(math.isfinite(v) for v in cells if isinstance(v, float))


def _run_to_json(argv):
    """Exit code of an in-process CLI run, and its parsed strict-JSON document on exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        code = cli.main([*argv, "--format", "json", "--out", str(out)])
        assert code in (0, 1)
        if code != 0:
            return code, None
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    cells = [v for row in doc["rows"] for v in row]
    assert all(math.isfinite(v) for v in cells if isinstance(v, float))
    return code, doc


_any_floats = st.floats(0.0, 1e308) | st.floats()


@given(
    mu=_any_floats,
    delta=st.integers(-1, 10**6),
    dims=st.lists(st.integers(-1, 2**20), max_size=4),
)
def test_any_dim_bound_exits_zero_or_one_with_finite_output(mu, delta, dims):
    argv = ["dim-bound", "--mu", repr(mu), "--delta", str(delta), "--d", ",".join(map(str, dims))]
    _run_to_json(argv)


@given(
    alpha_sq=_any_floats,
    n=st.integers(-2, 12),
    trials=st.integers(-1, 20),
    seed=st.integers(-1, 2**64),
)
def test_any_hidden_matching_exits_zero_or_one_with_finite_output(alpha_sq, n, trials, seed):
    argv = ["hidden-matching", "--n", str(n), "--alpha-sq", repr(alpha_sq),
            "--trials", str(trials), "--seed", str(seed)]
    code, doc = _run_to_json(argv)
    if code == 0:
        assert dict(zip(doc["columns"], doc["rows"][0]))["wrong"] == 0


@given(
    mus=st.lists(st.floats(0.0, 1e308), max_size=4),
    deltas=st.lists(st.floats(-1.0, 2.0), max_size=4),
)
def test_any_overlap_sweep_exits_zero_or_one_with_finite_output(mus, deltas):
    # "--flag=value" keeps a leading minus sign a value, not an option.
    _run_to_json(["overlap-sweep", "--mu=" + ",".join(map(repr, mus)),
                  "--delta=" + ",".join(map(repr, deltas))])


@given(lecam_instances=st.integers(-1, 5), trials=st.integers(-1, 200))
def test_any_thm_check_exits_zero_or_one_with_finite_output(lecam_instances, trials):
    _run_to_json(["thm-check", "--lecam-instances", str(lecam_instances),
                  "--trials", str(trials), "--seed", "7"])


@pytest.mark.parametrize("alpha_sq", ["1e7", "1e12"])
@pytest.mark.parametrize("n", ["6", "2048"])
def test_hidden_matching_at_large_power_has_no_wrong_outcomes(capsys, alpha_sq, n):
    # The power check was absolute, so rounding alone refused these states.
    code, out, err = run_cli(
        capsys, "hidden-matching", "--n", n, "--alpha-sq", alpha_sq, "--trials", "200", "--seed", "3"
    )
    assert code == 0, err
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert (row["correct"], row["wrong"]) == ("200", "0")


def test_dim_bound_at_huge_mu_exits_promptly_with_blank_exact_cells():
    # math.comb of the collapsed bound used to run for longer than this timeout.
    src = str(Path(cohsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cohsim.cli",
         "dim-bound", "--mu", "1e300", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout, parse_constant=_reject_constant)
    jsonschema.validate(doc, load_schema())
    rows = [dict(zip(doc["columns"], row)) for row in doc["rows"]]
    assert len(rows) == 11
    for row in rows:
        assert row["d_alpha_upper"] == ""
        # (n / k)^k <= C(n, k) <= (e n / k)^k, with n about 1e300 and k = d - 1
        k = row["d"] - 1
        assert k * math.log2(1e300 / k) < row["log2_d_alpha_upper"] - math.log2(10)
        assert row["log2_d_alpha_upper"] - math.log2(10) < k * math.log2(math.e * 1e300 / k)


@pytest.mark.parametrize(
    "argv",
    [
        ["overlap-sweep", "--mu", "1,4"],
        ["dim-bound", "--d", "1,16"],
        ["hidden-matching", "--n", "6", "--trials", "50", "--seed", "1"],
        ["thm-check", "--lecam-instances", "3", "--trials", "50", "--seed", "1"],
    ],
)
def test_json_output_is_one_compact_line(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.dumps(json.loads(out)) + "\n" == out


def test_thm_check_dim_bound_rows_match_the_log_gamma_formula(capsys):
    # At mu = 1 the log-gamma difference is accurate, so the ratios must not move.
    code, out, _ = run_cli(capsys, "thm-check", "--lecam-instances", "1", "--trials", "10", "--seed", "1")
    assert code == 0
    header, rows = parse_csv(out)
    rows = [dict(zip(header, r)) for r in rows if r[0] == "dim-bound"]
    assert [int(r["instance"]) for r in rows] == list(range(11))
    for i, row in enumerate(rows):
        d = 2 ** (i + 4)
        n_top, k = 1 + 5 + d - 1, d - 1
        log2_upper = math.log2(10) + (
            math.lgamma(n_top + 1) - math.lgamma(k + 1) - math.lgamma(n_top - k + 1)
        ) / math.log(2.0)
        assert float(row["lhs"]) == pytest.approx(log2_upper / math.log2(d), rel=1e-12)
        assert row["holds"] == "true"
