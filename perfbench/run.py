"""Benchmark of the cohsim CLI: end-to-end metrics per workload, and a traced per-layer run.

    python3 perfbench/run.py --workload hm-ref6 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py                  # every workload, one table

Run it from the root of a source checkout; it runs ``src/cohsim`` with
``PYTHONPATH=src`` and nothing else needs installing.  Every repetition is a
fresh interpreter started from this process, with BLAS threads capped at the
number of CPUs this process may use.  Repetitions repeat until ``--seconds``
is spent (at least a few of them), and medians are reported.

``--trace 0`` alternates a set-up probe (``setup_probe.py``) with the
workload's command and reports the ``end_to_end`` metrics of BENCHMARK.json.
``--trace 1`` alternates the plain command with the same command run under
``traced_cli.py`` and reports the ``per_layer`` metrics, taken from the traced
repetition of median wall time so that the layer self times and the
unaccounted remainder add up to its wall time.

Every output passes through the gate in ``workloads.py``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the full report with
provenance and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
# What the installed ``cohsim`` console script runs.
CLI_MAIN = "import sys; from cohsim.cli import main; sys.exit(main())"
WARMUP = """
import json, platform, cohsim, numpy
try:
    import scipy
    scipy_version = scipy.__version__
except ImportError:
    scipy_version = None
print(json.dumps({"cohsim_file": cohsim.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy_version}))
"""
# Repetitions per run even when they outlast --seconds: (probe, command)
# pairs without tracing, (command, traced command) pairs with it.
MIN_PAIRS = {0: 3, 1: 1}
# Children still running this long after the run started are killed, so a run
# always ends within the 180 s a run may take.
RUN_LIMIT_S = 170.0
# Kinds of child process a run starts.
KINDS = ("setup", "command", "traced")
# The speed gauge times GAUGE_LOOP iterations of a Python loop every
# GAUGE_INTERVAL_S while a child runs; GAUGE_NOMINAL_S is the loop's nominal
# time, so that a child's speed factor is GAUGE_NOMINAL_S over the median
# loop time seen during it.
GAUGE_LOOP = 20_000
GAUGE_INTERVAL_S = 0.02
GAUGE_NOMINAL_S = 0.0012
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Sample:
    wall_s: float
    returncode: int
    maxrss_kib: int
    stdout: str
    stderr: str
    speed: float
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None


class SpeedGauge(threading.Thread):
    """Gauges the machine's speed while a child runs, from this process.

    The host shares its CPUs with other tenants, so the same work takes
    15 % longer or shorter from one repetition to the next.  The gauge runs a
    fixed loop on the other CPU for about 6 % of the time and reports how
    fast it ran; times scaled by that factor vary far less.  The median loop
    time is used, so a child that keeps both CPUs busy for less than half of
    its run does not move the factor.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.done = threading.Event()
        self.times: list[float] = []

    def run(self) -> None:
        while True:
            start = time.perf_counter()
            total = 0
            for i in range(GAUGE_LOOP):
                total += i * i
            self.times.append(time.perf_counter() - start)
            if self.done.wait(GAUGE_INTERVAL_S):
                return

    def finish(self) -> float:
        """Stop and return the speed factor: GAUGE_NOMINAL_S over the median loop time."""
        self.done.set()
        self.join()
        return GAUGE_NOMINAL_S / statistics.median(self.times)


class Runner:
    """Starts children at the checkout root on its ``src`` and times each one."""

    def __init__(self, root: Path, workdir: Path, run_start: float) -> None:
        self.root = root
        self.workdir = workdir
        self.kill_at = run_start + RUN_LIMIT_S
        self.cpus = len(os.sched_getaffinity(0))
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.env.update({var: str(self.cpus) for var in BLAS_THREAD_VARS})
        # Children import cohsim from cached bytecode, as an installed package does.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, argv: list[str]) -> Sample:
        """Run ``argv`` to completion; wall time, exit code, peak RSS and output."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        gauge = SpeedGauge()
        gauge.start()
        try:
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
                timer = threading.Timer(max(self.kill_at - time.monotonic(), 0.0), proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
                wall = time.perf_counter() - start
        finally:
            speed = gauge.finish()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(
            wall_s=wall,
            returncode=proc.returncode,
            maxrss_kib=usage.ru_maxrss,
            speed=speed,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


def warm_up(runner: Runner) -> dict:
    """Import cohsim once (compiling its bytecode) and check it comes from this checkout."""
    sample = runner.run(python_argv("-c", WARMUP))
    if sample.returncode != 0:
        raise BenchError(f"cannot import cohsim from {runner.root / 'src'}:\n{sample.stderr}")
    versions = json.loads(sample.stdout.strip().splitlines()[-1])
    src = (runner.root / "src").resolve()
    if src not in Path(versions["cohsim_file"]).resolve().parents:
        raise BenchError(f"cohsim was imported from {versions['cohsim_file']}, not {src}")
    return versions


def measure(runner: Runner, job: workloads.Job, seconds: float, trace: int) -> dict:
    """Repeat the job's pairs of children until ``seconds`` are spent; all samples."""
    command = python_argv("-c", CLI_MAIN, *job.cli_args)
    probe = python_argv(str(HERE / "setup_probe.py"), json.dumps(job.setup))
    found = {kind: [] for kind in KINDS}

    def run(kind: str, argv: list[str], check=None) -> Sample:
        sample = runner.run(argv)
        if check is not None:
            sample.problems = check(sample)
        elif sample.returncode != 0:
            sample.problems = [f"{kind} exit code {sample.returncode}"]
        found[kind].append(sample)
        return sample

    def check_command(sample: Sample) -> list[str]:
        return workloads.check_output(job, sample.returncode, sample.stdout)

    deadline = time.monotonic() + seconds
    pairs = 0
    while True:
        step_start = time.monotonic()
        if trace:
            run("command", command, check_command)
            spans_file = runner.workdir / f"spans-{pairs}.npz"
            sample = run("traced", python_argv(str(HERE / "traced_cli.py"), str(spans_file),
                                               str(pairs), "--", *job.cli_args), check_command)
            if not sample.problems:
                sample.layers = spans.load(spans_file)
                spans_file.unlink()
        else:
            run("setup", probe)
            run("command", command, check_command)
        pairs += 1
        now = time.monotonic()
        if pairs >= MIN_PAIRS[trace] and now + (now - step_start) > deadline:
            break
    found["command_argv"] = command
    return found


def tally(found: dict) -> tuple[int, int]:
    """(attempted, failed) over every child the run started."""
    samples = [s for kind in KINDS for s in found[kind]]
    return len(samples), sum(1 for s in samples if s.problems)


def _passed(samples: list[Sample]) -> list[Sample]:
    return [s for s in samples if not s.problems]


def _median(values: list[float]) -> float:
    if not values:
        raise BenchError("every repetition of this kind failed; see the problems above")
    return statistics.median(values)


def _scaled(samples: list[Sample]) -> list[float]:
    """Wall times of the passed samples at nominal machine speed."""
    return [s.wall_s * s.speed for s in _passed(samples)]


def end_to_end(job: workloads.Job, found: dict) -> dict:
    wall = _median(_scaled(found["command"]))
    setup = _median(_scaled(found["setup"]))
    if wall <= setup:
        raise BenchError(f"command wall time {wall} s is not above set-up time {setup} s")
    attempted, failed = tally(found)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "trials_per_s": job.trials / (wall - setup),
        "peak_rss_mb": _median([s.maxrss_kib for s in _passed(found["command"])]) / 1024.0,
        "pass_frac": (attempted - failed) / attempted,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(found: dict) -> dict:
    """Layer figures of the traced repetition with the median wall time."""
    traced = _passed(found["traced"])
    if not traced:
        raise BenchError("every traced repetition failed")
    chosen = sorted(traced, key=lambda s: s.wall_s)[(len(traced) - 1) // 2]
    layers = chosen.layers
    counters = layers["counters"]
    metrics = {"cli.import_s": layers["self_s"]["cli.import"]}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = layers["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = layers["self_s"].get(name, 0.0)
    for name in ("detection.sample_click_pattern.modes", "hidden_matching.network_bytes_computed",
                 "hidden_matching.wrong", "commx.mc.ties", "qds.aborts", "qds.mismatches"):
        metrics[name] = counters.get(name, 0)
    metrics["hidden_matching.conclusive_ratio"] = _ratio(
        counters.get("hidden_matching.conclusive", 0), counters.get("hidden_matching.trials", 0))
    metrics["commx.mc.success_ratio"] = _ratio(
        counters.get("commx.mc.successes", 0), counters.get("commx.mc.trials", 0))
    metrics["qds.usd.conclusive_ratio"] = _ratio(
        counters.get("qds.usd.tested", 0), counters.get("qds.usd.modes", 0))
    accounted = sum(layers["self_s"].values())
    metrics["trace.wall_s"] = chosen.wall_s
    metrics["trace.unaccounted_s"] = chosen.wall_s - accounted
    metrics["trace.unaccounted_frac"] = (chosen.wall_s - accounted) / chosen.wall_s
    metrics["trace.overhead_frac"] = (
        _median(_scaled(traced)) / _median(_scaled(found["command"])) - 1.0
    )
    return metrics


def select(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, with their declared units, from the computed ``values``."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value computed for declared metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own .git, if it has one; the benchmark looks nowhere else."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(root: Path, bench: dict, workload: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, dict]:
    """(report, metrics) of one workload run."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        runner = Runner(root, Path(tmp), time.monotonic())
        versions = warm_up(runner)
        job = workloads.make_job(workload, seed, Path(tmp))
        found = measure(runner, job, seconds, trace)
    if trace:
        metrics = select(per_layer(found), bench["per_layer"])
    else:
        metrics = select(end_to_end(job, found), bench["end_to_end"])
    attempted, failed = tally(found)
    report = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "trials": job.trials,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": [{"kind": kind, "problems": s.problems, "stderr": s.stderr[-2000:]}
                     for kind in KINDS for s in found[kind] if s.problems],
        "unpatched": sorted({n for s in _passed(found["traced"]) for n in s.layers["unpatched"]}),
        "gauge": {"loop": GAUGE_LOOP, "interval_s": GAUGE_INTERVAL_S,
                  "nominal_s": GAUGE_NOMINAL_S},
        "samples": {
            kind: [{"wall_s": s.wall_s, "speed": s.speed, "maxrss_kib": s.maxrss_kib,
                    "passed": not s.problems}
                   for s in found[kind]]
            for kind in KINDS
        },
        "provenance": {
            "git_commit": git_commit(root),
            "source_sha256": source_sha256(root / "src"),
            "nproc": runner.cpus,
            "blas_threads": {var: runner.env[var] for var in BLAS_THREAD_VARS},
            **versions,
            "platform": platform.platform(),
            "benchmark_argv": sys.argv,
            "command_argv": found["command_argv"],
            "setup_spec": job.setup,
            "computed": ["wall_s", "setup_s", "trials_per_s",
                         "hidden_matching.network_bytes_computed"],
        },
    }
    return report, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*workloads.WHY, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (root / "src" / "cohsim" / "cli.py").is_file():
            raise BenchError(f"{root} holds no cohsim source tree (src/cohsim)")
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        names = list(workloads.WHY) if args.workload == "all" else [args.workload]
        results = [run_workload(root, bench, name, args.seed, seconds, args.trace)
                   for name in names]
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for report, metrics in results:
        print(f"{report['workload']}: attempted {report['attempted']}, "
              f"failed {report['failed']} (failed_frac {report['failed_frac']:g})")
        for problem in report["problems"]:
            print(f"  failed {problem['kind']}: {'; '.join(problem['problems'])}")
        for name, metric in metrics.items():
            print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    if len(results) == 1:
        report, metrics = results[0]
    else:
        report = {"workloads": [r for r, _ in results]}
        metrics = {f"{r['workload']}.{name}": m for r, ms in results for name, m in ms.items()}
    attempted = sum(r["attempted"] for r, _ in results)
    failed = sum(r["failed"] for r, _ in results)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
