#!/usr/bin/env python3
"""Stage-by-stage benchmark of the o2olab pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it runs ``src/o2olab`` from there. Each
workload in ``workloads.json`` goes through the real CLI as a closed loop
with one client: gen-data, pretrain, classify, finetune and report each run
as their own process, and each starts after the previous one has exited.
Every stage is timed from process start to exit, with its CPU time and peak
resident set (pool workers included) from ``wait4``.

``--seed`` sets the config's ``dataset_seed`` to N and its ``seeds`` list to
[2N, 2N+1]. With ``--trace 0`` the benchmark runs rounds of the whole
pipeline, every stage once per round, while another round fits in
``--seconds`` (at least two), and prints the end-to-end metrics: for each
stage, the median over rounds of its time scaled to the reference speed
(see ``CALIBRATION_UNIT_S``).

With ``--trace 1`` it runs one untraced and one traced round and prints
the per-layer metrics; the untraced one gives the trace overhead, the
stages' CPU use and a second set of artifacts for the determinism record.

The last line of standard output is the result object; the line before it
is the full record (host, config, stage times, artifact digests, files that
differ between two rounds of one seed). The record is also written under
``.perfbench_work/results/``. BLAS thread variables are inherited, never set.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = HERE / "workloads.json"
WORK_DIR = ".perfbench_work"
STAGES = ("gen-data", "pretrain", "classify", "finetune", "report")
FORCE_STAGES = ("gen-data", "pretrain", "finetune")
# A run is rounds of the whole pipeline, each stage once per round, repeated
# while another round fits in --seconds, so every stage's invocations are
# spread over the whole run. Repeats rewrite identical outputs (with --force
# where the stage would otherwise skip finished work).
MIN_ROUNDS = 2
# a round can take this much longer than the longest so far, so a run keeps
# this margin when it decides whether another round fits
ROUND_MARGIN = 1.25
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
REGIME_LABELS = ("Superior", "Comparable", "Inferior", "Inconclusive")
IDENTITY_TOL = 1e-9
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# Other tenants of a shared host slow this one's CPUs, with no steal time to
# show for it: in calm minutes a stage ran at one speed, in busy ones up to
# 1.7 times slower, for a minute or more at a time. So every stage
# invocation is bracketed by bursts of a fixed calibration loop, and its
# times are scaled by how much slower than the reference speed the loop ran
# around it. The reference speed is the loop's uncontended time on a
# 2-vCPU Haswell-class host; it is a constant, so a change to o2olab moves
# the scaled times in full.
CALIBRATION_UNIT_S = 1.2e-3
CALIBRATION_BURST_S = 0.2


def _calibration_unit() -> int:
    total = 0
    for i in range(20000):
        total += i * i
    return total


def calibration_burst() -> float:
    """Mean time of one calibration unit over a burst of CALIBRATION_BURST_S,
    split evenly across the CPUs this process may use, since a stage may run
    on any of them."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            end = time.perf_counter() + CALIBRATION_BURST_S / len(cpus)
            while time.perf_counter() < end:
                start = time.perf_counter()
                _calibration_unit()
                times.append(time.perf_counter() - start)
    finally:
        # stage processes inherit this affinity
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    # calibration unit time around the invocation over CALIBRATION_UNIT_S
    slowdown: float = 1.0

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


@dataclass
class PipelineRun:
    """Rounds of the whole pipeline on one output directory."""

    runs: dict[str, list[StageRun]] = field(default_factory=dict)  # stage -> one per round
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    check_failures: list[str] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)

    def _median(self, stage: str, value) -> float:
        runs = self.runs.get(stage, [])
        return statistics.median(value(r) for r in runs) if runs else 0.0

    def wall(self, stage: str) -> float:
        """Median wall time of the stage, scaled to the reference speed."""
        return self._median(stage, lambda r: r.wall_s / r.slowdown)

    def cpu(self, stage: str) -> float:
        """Median CPU time of the stage, scaled to the reference speed."""
        return self._median(stage, lambda r: r.cpu_s / r.slowdown)

    def raw_wall(self, stage: str) -> float:
        """Median wall time of the stage as measured, for comparing with spans."""
        return self._median(stage, lambda r: r.wall_s)

    def cpu_per_wall(self, stage: str) -> float:
        wall = self.wall(stage)
        return self.cpu(stage) / wall if wall > 0 else 0.0

    def end_to_end(self) -> dict[str, float]:
        setup_s = self.wall("gen-data")
        analysis_s = self.wall("classify") + self.wall("report")
        return {
            "setup_s": setup_s,
            "pretrain_s": self.wall("pretrain"),
            "finetune_s": self.wall("finetune"),
            "analysis_s": analysis_s,
            "pipeline_s": setup_s + self.wall("pretrain") + self.wall("finetune") + analysis_s,
            "cpu_s": sum(self.cpu(stage) for stage in STAGES),
            "peak_rss_mb": max(r.rss_mb for runs in self.runs.values() for r in runs),
        }


class Bench:
    """One workload's inputs and its work directory inside the checkout."""

    def __init__(self, root: Path, name: str, config: dict, jobs: int):
        self.config = config
        self.jobs = jobs
        self.work = root / WORK_DIR / name
        self.out = self.work / "out"
        self.config_path = self.work / "config.json"
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        src = str(root / "src")
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
        self.env["TMPDIR"] = str(self.work / "tmp")

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.config_path.write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n")

    def run_stage(self, stage: str, extra: list[str], spans_dir: Path | None) -> StageRun:
        if spans_dir is None:
            argv = [sys.executable, "-m", "o2olab.cli"]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_dir)]
        argv += [stage, "--config", str(self.config_path), *extra]
        with open(self.work / "stages.log", "ab") as log:
            log.write(f"$ {' '.join(argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return StageRun(
            stage=stage,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=proc.returncode,
        )

    def run_rounds(
        self, seconds: float, min_rounds: int, spans_root: Path | None = None
    ) -> PipelineRun:
        """Run rounds of every stage, in order, on a fresh output directory:
        at least ``min_rounds``, and more while the next, taken as
        ``ROUND_MARGIN`` times the longest so far, fits in ``seconds``. The
        outputs are checked after every round. With ``spans_root`` each
        stage is traced into its own subdirectory."""
        shutil.rmtree(self.out, ignore_errors=True)
        run = PipelineRun()
        expected = len(self.config["methods"]) * len(self.config["seeds"])
        started = time.monotonic()
        longest = 0.0
        burst = calibration_burst()
        while True:
            round_started = time.monotonic()
            for stage in STAGES:
                runs = run.runs.setdefault(stage, [])
                extra = ["--jobs", str(self.jobs)] if stage in ("pretrain", "finetune") else []
                if runs and stage in FORCE_STAGES:
                    extra.append("--force")
                spans = spans_root / stage if spans_root is not None else None
                run.attempted += 1
                result = self.run_stage(stage, extra, spans)
                after = calibration_burst()
                result.slowdown = (burst + after) / 2 / CALIBRATION_UNIT_S
                burst = after
                runs.append(result)
                if not result.ok:
                    # the stages after a failed one do not run; each counts as failed
                    skipped = len(STAGES) - STAGES.index(stage) - 1
                    run.attempted += skipped
                    run.failed += 1 + skipped
                    break
            run.attempted += expected
            failed_runs, check_failures = check_outputs(self.out, expected)
            run.failed += failed_runs + len(check_failures)
            run.check_failures += check_failures
            run.rounds += 1
            if run.failed:
                break
            now = time.monotonic()
            longest = max(longest, now - round_started)
            next_end = now + ROUND_MARGIN * longest
            if run.rounds >= min_rounds and next_end > started + seconds:
                break
            if next_end > self.deadline:
                break
        run.artifacts = digest_tree(self.out)
        return run


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def check_outputs(out: Path, expected_runs: int) -> tuple[int, list[str]]:
    """Returns (fine-tune runs missing or aborted, failed output checks)."""
    try:
        analysis = json.loads((out / "report" / "analysis.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return expected_runs, [f"no readable report/analysis.json: {exc}"]
    failures = []
    done = analysis.get("completeness", {})
    bad_runs = len(done.get("missing", [])) + len(done.get("aborted", []))
    if done.get("expected_runs") != expected_runs:
        failures.append(f"expected_runs {done.get('expected_runs')} != {expected_runs}")
    if done.get("completed_runs") != expected_runs:
        failures.append(f"completed_runs {done.get('completed_runs')} != {expected_runs}")
    if done.get("aborted"):
        failures.append(f"aborted runs: {done['aborted']}")
    for method, entry in analysis.get("methods", {}).items():
        mean = entry.get("decomposition", {}).get("mean")
        if mean is None:
            failures.append(f"{method}: no decomposition")
            continue
        residual = mean["prior"] + mean["stability"] + mean["plasticity"] - mean["final"]
        if not abs(residual) <= IDENTITY_TOL:
            failures.append(f"{method}: prior + stability + plasticity - final = {residual!r}")
    if not analysis.get("methods"):
        failures.append("no methods reported")
    if analysis.get("regime", {}).get("label") not in REGIME_LABELS:
        failures.append(f"regime label missing: {analysis.get('regime')!r}")
    return bad_runs, failures


def digest_tree(root: Path) -> dict[str, str]:
    digests = {}
    if root.is_dir():
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digests[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def blas_threads() -> dict:
    """BLAS thread count: from the environment, else asked of the loaded
    OpenBLAS through ctypes, else unknown."""
    for var in BLAS_ENV_VARS:
        if os.environ.get(var):
            return {"threads": os.environ[var], "source": var}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return {"threads": fn(), "source": f"ctypes {symbol}"}
    return {"threads": "unknown", "source": None}


def host_record() -> dict:
    import numpy as np  # the program's numpy, loaded to name its BLAS

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        library = "unknown"
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": library,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def layer_metrics(
    bench: Bench, plain: PipelineRun, traced: PipelineRun, spans_root: Path
) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pipeline, plus per-span detail."""
    import tracer

    def files(*stages: str) -> list[Path]:
        found = []
        for stage in stages:
            found += sorted(spans_root.glob(f"{stage}/spans-*.npz"))
        return found

    every = tracer.summarize(sorted(spans_root.glob("*/spans-*.npz")))
    training = tracer.summarize(files("pretrain", "finetune"))
    finetune = tracer.summarize(files("finetune"))
    calls, total, own = every.calls, every.total_s, every.self_s

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    train_wall = traced.raw_wall("pretrain") + traced.raw_wall("finetune")
    m = {
        "agents.td3_update.calls": calls.get("agents.td3_update", 0),
        "agents.td3_update.total_s": total.get("agents.td3_update", 0.0),
        "agents.td3_update.self_s": own.get("agents.td3_update", 0.0),
        "agents.td3_update.p50_us": every.percentile("agents.td3_update", 50) * 1e6,
        "agents.td3_update.p99_us": every.percentile("agents.td3_update", 99) * 1e6,
        "agents.td3_update.train_share": ratio(
            training.total_s.get("agents.td3_update", 0.0), train_wall
        ),
    }
    for fn in ("forward", "backward", "input_gradient", "adam_step", "polyak_update"):
        m[f"nn.{fn}.calls"] = calls.get(f"nn.{fn}", 0)
        m[f"nn.{fn}.self_s"] = own.get(f"nn.{fn}", 0.0)
    m.update({
        "agents.act.calls": calls.get("agents.act", 0),
        "agents.act.p50_us": every.percentile("agents.act", 50) * 1e6,
        "envs.step.calls": calls.get("envs.step", 0),
        "envs.step.p50_us": every.percentile("envs.step", 50) * 1e6,
        "envs.step.self_s": own.get("envs.step", 0.0),
        "envs.evaluate_policy.calls": calls.get("envs.evaluate_policy", 0),
        "envs.evaluate_policy.total_s": total.get("envs.evaluate_policy", 0.0),
        "envs.evaluate_policy.self_s": own.get("envs.evaluate_policy", 0.0),
        "envs.evaluate_policy.p50_s": every.percentile("envs.evaluate_policy", 50),
        "envs.evaluate_policy.finetune_share": ratio(
            finetune.total_s.get("envs.evaluate_policy", 0.0), traced.raw_wall("finetune")
        ),
        "envs.compute_reference_scores.total_s": total.get("envs.compute_reference_scores", 0.0),
        "data.load_dataset.calls": calls.get("data.load_dataset", 0),
        "data.load_dataset.total_s": total.get("data.load_dataset", 0.0),
        "data.save_dataset.total_s": total.get("data.save_dataset", 0.0),
        "data.dataset_bytes": _size(bench.out / "dataset.jsonl"),
        "data.ReplayBuffer.from_dataset.total_s": total.get("data.ReplayBuffer.from_dataset", 0.0),
        "data.sample.calls": calls.get("data.sample", 0),
        "data.sample.self_s": own.get("data.sample", 0.0),
        "agents.save_agent.total_s": total.get("agents.save_agent", 0.0),
        "agents.load_agent.total_s": total.get("agents.load_agent", 0.0),
        "agents.checkpoint_bytes": sum(
            _size(p) for p in (bench.out / "pretrain").glob("seed_*/*") if p.is_file()
        ),
        "fsio.write_calls": every.counters.get("fsio.write_calls", 0),
        "fsio.bytes_written": every.counters.get("fsio.bytes_written", 0),
        "finetune.run_finetune.self_s": own.get("finetune.run_finetune", 0.0),
        "metrics.total_s": sum(v for k, v in total.items() if k.startswith("metrics.")),
        "runner.pretrain.cpu_per_wall": plain.cpu_per_wall("pretrain"),
        "runner.finetune.cpu_per_wall": plain.cpu_per_wall("finetune"),
        "trace.overhead_share": ratio(
            traced.end_to_end()["pipeline_s"] - plain.end_to_end()["pipeline_s"],
            plain.end_to_end()["pipeline_s"],
        ),
    })
    detail = {
        "spans": every.spans,
        "unpatched": sorted(every.unpatched),
        "by_span": {
            name: {"calls": calls[name], "total_s": total[name], "self_s": own[name]}
            for name in sorted(calls)
        },
    }
    return m, detail


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def load_workloads() -> dict:
    return json.loads(WORKLOADS.read_text())


def workload_config(spec: dict, seed: int) -> dict:
    config = copy.deepcopy(spec["config"])
    config["dataset_seed"] = seed
    config["seeds"] = [2 * seed, 2 * seed + 1]
    config["out_dir"] = "out"
    return config


def run(
    root: Path, name: str, config: dict, jobs: int, seed: int, seconds: float, trace: bool
) -> tuple[dict, dict]:
    """Benchmark one workload; returns (result, record)."""
    bench = Bench(root, name, config, jobs)
    bench.prepare()
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "jobs": jobs,
        "config": config,
        "host": host_record(),
    }
    if trace:
        spans_root = bench.work / "spans"
        plain = bench.run_rounds(0.0, min_rounds=1)
        traced = bench.run_rounds(0.0, min_rounds=1, spans_root=spans_root)
        pipelines = [plain, traced]
        metrics, record["trace_detail"] = layer_metrics(bench, plain, traced, spans_root)
        record["artifacts"] = plain.artifacts
        record["differing_artifacts"] = differing(plain.artifacts, traced.artifacts)
    else:
        pipelines = [bench.run_rounds(seconds, min_rounds=MIN_ROUNDS)]
        metrics = pipelines[0].end_to_end()
        record["artifacts"] = pipelines[0].artifacts
    attempted = sum(p.attempted for p in pipelines)
    failed = min(attempted, sum(p.failed for p in pipelines))
    if not trace:
        metrics["ok_share"] = 1.0 - failed / attempted
    record["pipelines"] = [
        {
            "rounds": p.rounds,
            "stages": {k: [vars(r) for r in runs] for k, runs in p.runs.items()},
            "attempted": p.attempted,
            "failed": p.failed,
            "check_failures": p.check_failures,
        }
        for p in pipelines
    ]
    check_failures = [f for p in pipelines for f in p.check_failures]
    result = {
        "correct": failed == 0 and not check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record["result"] = result
    return result, record


UNITS = {
    "setup_s": "s",
    "pretrain_s": "s",
    "finetune_s": "s",
    "analysis_s": "s",
    "pipeline_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def unit_of(metric: str) -> str:
    """End-to-end units are listed; a per-layer unit follows from the name."""
    if metric in UNITS:
        return UNITS[metric]
    stat = metric.rsplit(".", 1)[-1]
    if stat.endswith("calls"):
        return "count"
    if "bytes" in stat:
        return "bytes"
    if stat.endswith("_us"):
        return "us"
    if stat.endswith("_s"):
        return "s"
    return "ratio"


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a stage runs in its own session; on SIGTERM, unwind so that
    # run_stage kills it and its pool workers before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "o2olab" / "cli.py").is_file():
        print(f"error: no o2olab source under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec = workloads[args.workload]
    config = workload_config(spec, args.seed)
    result, record = run(
        root, args.workload, config, spec["jobs"], args.seed, args.seconds, bool(args.trace)
    )
    results_dir = root / WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / out_name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
    if record.get("differing_artifacts"):
        print(f"artifacts differing between two rounds of seed {args.seed}: "
              f"{record['differing_artifacts']}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
