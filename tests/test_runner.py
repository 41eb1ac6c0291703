import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as sps

from o2olab import cli, runner
from o2olab.data import load_dataset
from o2olab.envs import BehaviorSpec, env_spec
from o2olab.errors import ConfigError, MissingInputError
from o2olab.metrics import EvalCurve, EvalPoint
from o2olab.fsio import read_json
from test_data import DAMAGES


FINETUNE = {"total_env_steps": 120, "warmup_steps": 30, "eval_every": 10, "eval_episodes": 2}


def tiny_config_dict(tmp_path, **overrides):
    base = {
        "setting": "tiny-dense",
        "env": {"kind": "point_goal_dense", "horizon": 30},
        "behavior": [
            {"kind": "noisy_expert", "sigma": 0.3, "n_traj": 4},
            {"kind": "uniform_random", "n_traj": 2},
        ],
        "pretrain": {"kind": "offline_rl", "steps": 60, "beta": 0.4},
        "agent": {"hidden": [8, 8], "batch": 16},
        "methods": ["baseline", "warmup", "o2o_reg", "replay", "replay_reset", "mixed"],
        "seeds": [0, 1],
        "finetune": FINETUNE,
        "reference_episodes": 10,
        "last_k": 10,
        "out_dir": str(tmp_path / "runs" / "tiny-dense"),
    }
    base.update(overrides)
    return base


@pytest.fixture()
def config(tmp_path):
    return runner.ExperimentConfig.from_dict(tiny_config_dict(tmp_path))


def test_config_round_trip(tmp_path):
    config = runner.ExperimentConfig.from_dict(tiny_config_dict(tmp_path))
    again = runner.ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def test_config_defaults_come_from_the_dataclass():
    config = runner.ExperimentConfig.from_dict({
        "setting": "s",
        "env": {"kind": "pendulum"},
        "behavior": {"kind": "expert", "n_traj": 3},
    })
    expected = runner.ExperimentConfig("s", env_spec("pendulum"), [(BehaviorSpec("expert"), 3)])
    assert config == expected


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError):
        runner.ExperimentConfig.from_dict(tiny_config_dict(tmp_path, typo_field=1))


def test_config_rejects_duplicate_seeds(tmp_path):
    with pytest.raises(ConfigError):
        runner.ExperimentConfig.from_dict(tiny_config_dict(tmp_path, seeds=[1, 1]))


def test_config_rejects_bad_method(tmp_path):
    with pytest.raises(ConfigError):
        runner.ExperimentConfig.from_dict(tiny_config_dict(tmp_path, methods=["zen"]))


def test_gen_data_refuses_overwrite(config):
    runner.cmd_gen_data(config)
    with pytest.raises(ConfigError):
        runner.cmd_gen_data(config)
    runner.cmd_gen_data(config, force=True)


def test_gen_data_byte_identical_rerun(config):
    path = runner.cmd_gen_data(config)
    first = snapshot(path)
    runner.cmd_gen_data(config, force=True)
    assert {name: data for name, (data, _) in snapshot(path).items()} == {
        name: data for name, (data, _) in first.items()
    }
    ds = load_dataset(path)
    assert ds.n_traj == 6


def test_stage_order_enforced(config):
    with pytest.raises(MissingInputError):
        runner.cmd_pretrain(config)
    runner.cmd_gen_data(config)
    with pytest.raises(MissingInputError):
        runner.cmd_classify(config)
    with pytest.raises(MissingInputError):
        runner.cmd_finetune(config)
    with pytest.raises(MissingInputError):
        runner.cmd_report(config)
    runner.cmd_pretrain(config)
    runner.cmd_classify(config)
    with pytest.raises(MissingInputError, match="o2olab finetune"):
        runner.cmd_report(config)  # no run file yet


def test_pipeline_end_to_end(config):
    runner.cmd_gen_data(config)
    eval_path = runner.cmd_pretrain(config)
    record = read_json(eval_path)
    assert len(record["means"]) == len(config.seeds)
    assert record["key"] == runner.eval_key(config)

    classify_path = runner.cmd_classify(config)
    classify = read_json(classify_path)
    assert classify["label"] in ("Superior", "Comparable", "Inferior", "Inconclusive")
    assert classify["delta"] == config.tost_delta

    run_files = runner.cmd_finetune(config)
    assert len(run_files) == len(config.methods) * len(config.seeds)
    for f in run_files:
        assert f.exists()
        data = read_json(f)
        assert data["key"] == runner.run_key(config, data["method"], data["config_seed"])
        assert data["run_seed"] == runner.run_seed_for(
            data["config_seed"], data["method"], config.seeds.index(data["config_seed"])
        )

    analysis_path = runner.cmd_report(config)
    analysis = read_json(analysis_path)
    assert analysis["setting"] == config.setting
    assert analysis["completeness"]["missing"] == []
    assert analysis["class_comparison"]["winner"] in (">", "≈", "<")
    assert analysis["confusion_cell"] is not None
    # curve CSVs exist for every method
    for method in config.methods:
        assert (runner.Paths(config).report_dir / f"curve_{method}.csv").exists()
    assert not (runner.Paths(config).root / "manifest.json").exists()


def test_finetune_resume_preserves_files(config):
    runner.cmd_gen_data(config)
    runner.cmd_pretrain(config)
    runner.cmd_classify(config)
    files = runner.cmd_finetune(config)
    stamps = {f: f.stat().st_mtime_ns for f in files}
    again = runner.cmd_finetune(config)  # resume: nothing to redo
    assert set(again) == set(files)
    assert {f: f.stat().st_mtime_ns for f in files} == stamps


def test_finetune_quarantines_corrupt_logs(config):
    runner.cmd_gen_data(config)
    runner.cmd_pretrain(config)
    runner.cmd_classify(config)
    files = runner.cmd_finetune(config)
    victim = files[0]
    victim.write_text("{ not json")
    runner.cmd_finetune(config)
    assert victim.exists()
    assert victim.with_name(victim.name + ".corrupt-0").exists()
    read_json(victim)  # regenerated and valid


def test_finetune_overwrites_stale_logs_in_place(config, tmp_path):
    # a run file made from other inputs is stale, not corrupt: it is
    # rewritten under its own name and nothing is quarantined
    runner.run_pipeline(config)
    changed = runner.ExperimentConfig.from_dict(
        tiny_config_dict(tmp_path, finetune={**FINETUNE, "total_env_steps": 100})
    )
    runner.cmd_finetune(changed)
    paths = runner.Paths(changed)
    assert list(paths.finetune_dir.rglob("*.corrupt-*")) == []
    for method in changed.methods:
        for seed in changed.seeds:
            run = read_json(paths.run_file(method, seed))
            assert run["key"] == runner.run_key(changed, method, seed)


def test_report_hash_guard(config, tmp_path):
    runner.cmd_gen_data(config)
    runner.cmd_pretrain(config)
    runner.cmd_classify(config)
    runner.cmd_finetune(config)
    runner.cmd_report(config)
    # a changed fine-tuning input makes every run file stale
    changed = runner.ExperimentConfig.from_dict(
        tiny_config_dict(tmp_path, finetune={**FINETUNE, "total_env_steps": 100})
    )
    with pytest.raises(ConfigError, match="re-run `o2olab finetune`") as exc:
        runner.cmd_report(changed)
    assert "allow" not in str(exc.value)


def test_report_reads_no_dataset_rows(config, monkeypatch):
    runner.run_pipeline(config)
    analysis = runner.Paths(config).analysis
    first = analysis.read_bytes()

    def no_load(path):
        raise AssertionError("report parsed the dataset")

    monkeypatch.setattr(runner, "load_dataset", no_load)
    runner.cmd_report(config)
    assert analysis.read_bytes() == first


def test_classify_reads_no_dataset_rows(config, monkeypatch):
    runner.run_pipeline(config)
    classify = runner.Paths(config).classify
    first = classify.read_bytes()
    classify.unlink()

    def no_load(path):
        raise AssertionError("classify parsed the dataset")

    monkeypatch.setattr(runner, "load_dataset", no_load)
    runner.cmd_classify(config)
    assert classify.read_bytes() == first


def test_report_checks_dataset_header_hash(config):
    runner.run_pipeline(config)
    manifest = runner.Paths(config).dataset / "manifest.json"
    record = read_json(manifest)
    record["key"] = "0" * 12
    manifest.write_text(json.dumps(record, sort_keys=True))
    for stage in (runner.cmd_pretrain, runner.cmd_classify, runner.cmd_finetune,
                  runner.cmd_report):
        with pytest.raises(ConfigError, match="dataset/manifest.json") as exc:
            stage(config)
        assert "gen-data --force" in str(exc.value) and "allow" not in str(exc.value)


def test_pipeline_deterministic_analysis(tmp_path):
    analyses = []
    for name in ("a", "b"):
        cfg = runner.ExperimentConfig.from_dict(
            tiny_config_dict(tmp_path, out_dir=str(tmp_path / name))
        )
        runner.run_pipeline(cfg)
        analyses.append(runner.Paths(cfg).analysis.read_bytes())
    assert analyses[0] == analyses[1]


def test_parallel_matches_serial(tmp_path):
    outputs = []
    for name, jobs in (("serial", 1), ("parallel", 3)):
        cfg = runner.ExperimentConfig.from_dict(
            tiny_config_dict(tmp_path, out_dir=str(tmp_path / name))
        )
        runner.cmd_gen_data(cfg)
        runner.cmd_pretrain(cfg, jobs=jobs)
        runner.cmd_classify(cfg)
        runner.cmd_finetune(cfg, jobs=jobs)
        runner.cmd_report(cfg)
        outputs.append(runner.Paths(cfg).analysis.read_bytes())
    assert outputs[0] == outputs[1]


def test_curve_ci_is_a_student_t_interval():
    curves = [
        EvalCurve([EvalPoint(0, v, [v]), EvalPoint(10, 2 * v, [2 * v])])
        for v in (0.1, 0.4, 0.7)
    ]
    stats = runner._curve_stats(curves)
    half = np.array(stats["ci_hi"]) - np.array(stats["mean"])
    se = np.array([0.3, 0.6]) / np.sqrt(3)  # std of (0.1, 0.4, 0.7), doubled
    assert half == pytest.approx(sps.t.ppf(0.975, 2) * se, rel=1e-12)
    assert np.array(stats["mean"]) - np.array(stats["ci_lo"]) == pytest.approx(half)
    single = runner._curve_stats(curves[:1])
    assert single["ci_lo"] == single["mean"] == single["ci_hi"]


def test_aggregate_matrix(config, tmp_path):
    runner.run_pipeline(config)
    analysis = runner.Paths(config).analysis
    result = runner.aggregate_matrix([analysis, analysis])
    assert result["matrix"]["total"] == 2
    assert "correct" in result["summary"]


# --- per-artifact keys on a finished pipeline ---


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """The output tree of one finished tiny pipeline."""
    base = tmp_path_factory.mktemp("finished")
    config = runner.ExperimentConfig.from_dict(tiny_config_dict(base))
    runner.run_pipeline(config)
    return runner.Paths(config).root


def copy_of(finished, tmp_path, **overrides):
    """A config, with ``overrides``, whose out_dir is a fresh copy of the
    finished tree."""
    root = tmp_path / "copy"
    shutil.copytree(finished, root)
    return runner.ExperimentConfig.from_dict(
        tiny_config_dict(tmp_path, out_dir=str(root), **overrides)
    )


def snapshot(root):
    """(bytes, mtime_ns) of every file under ``root``."""
    return {
        p.relative_to(root).as_posix(): (p.read_bytes(), p.stat().st_mtime_ns)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_stages(config):
    runner.cmd_pretrain(config)
    runner.cmd_classify(config)
    runner.cmd_finetune(config)
    runner.cmd_report(config)


def test_changed_tost_reruns_only_classify(finished, tmp_path):
    config = copy_of(finished, tmp_path, tost={"delta": 0.1, "alpha": 0.05})
    root = runner.Paths(config).root
    before = snapshot(root)
    run_stages(config)
    after = snapshot(root)
    assert sorted(after) == sorted(before)
    changed = sorted(name for name in before if before[name] != after[name])
    assert [n for n in changed if not n.startswith("report/")] == ["classify.json"]
    classify = read_json(root / "classify.json")
    assert (classify["key"], classify["delta"]) == (runner.classify_key(config), 0.1)


def test_changed_finetune_input_reruns_only_the_runs(finished, tmp_path):
    config = copy_of(finished, tmp_path, finetune={**FINETUNE, "total_env_steps": 100})
    root = runner.Paths(config).root
    before = snapshot(root)
    run_stages(config)
    after = snapshot(root)
    for name in before:
        if name.startswith(("dataset/", "pretrain/")):
            assert after[name] == before[name], name
    for method in config.methods:
        for seed in config.seeds:
            name = f"finetune/{method}/seed_{seed}.json"
            assert after[name][0] != before[name][0]
            assert read_json(root / name)["key"] == runner.run_key(config, method, seed)


def test_appending_a_seed_keeps_dataset_and_runs(finished, tmp_path):
    config = copy_of(finished, tmp_path, seeds=[0, 1, 2])
    root = runner.Paths(config).root
    before = snapshot(root)
    old_means = read_json(root / "pretrain" / "eval.json")["means"]
    runner.run_pipeline(config)
    after = snapshot(root)
    kept = [n for n in before
            if n.startswith(("dataset/", "finetune/", "pretrain/seed_"))]
    assert kept and all(after[n] == before[n] for n in kept)
    record = read_json(root / "pretrain" / "eval.json")
    assert record["means"][:2] == old_means  # re-evaluated from the kept checkpoints
    assert all(f"finetune/{m}/seed_2.json" in after for m in config.methods)
    assert read_json(runner.Paths(config).analysis)["completeness"]["completed_runs"] == 18


def test_stale_pretrain_eval_is_redone(finished, tmp_path):
    config = copy_of(finished, tmp_path)
    paths = runner.Paths(config)
    before = snapshot(paths.root)
    record = read_json(paths.pretrain_eval)
    record["key"] = "0" * 12
    paths.pretrain_eval.write_text(json.dumps(record))
    runner.cmd_pretrain(config)  # checkpoints are current: only re-evaluated
    after = snapshot(paths.root)
    assert after["pretrain/eval.json"][0] == before["pretrain/eval.json"][0]
    assert all(after[n] == before[n] for n in before if n.startswith("pretrain/seed_"))

    fewer_steps = {"kind": "offline_rl", "steps": 50, "beta": 0.4}
    changed = runner.ExperimentConfig.from_dict(
        tiny_config_dict(tmp_path, out_dir=str(paths.root), pretrain=fewer_steps)
    )
    runner.cmd_pretrain(changed)  # stale checkpoints: retrained
    retrained = snapshot(paths.root)
    for seed in config.seeds:
        name = f"pretrain/seed_{seed}/params.npy"
        assert retrained[name][0] != before[name][0]
    assert read_json(paths.pretrain_eval)["key"] == runner.eval_key(changed)


def test_stages_parse_the_dataset_only_when_they_have_work(finished, tmp_path, monkeypatch):
    config = copy_of(finished, tmp_path)
    paths = runner.Paths(config)
    real_load, parent, parsed = runner.load_dataset, os.getpid(), []

    def counting_load(path):
        if os.getpid() == parent:  # pool workers parse for themselves
            parsed.append(path)
        return real_load(path)

    monkeypatch.setattr(runner, "load_dataset", counting_load)
    runner.cmd_pretrain(config)
    runner.cmd_classify(config)  # reads the returns from the manifest
    runner.cmd_finetune(config)
    runner.cmd_report(config)
    assert parsed == []  # nothing left to do
    runner.cmd_pretrain(config, jobs=2, force=True)
    paths.run_file("baseline", 0).unlink()
    runner.cmd_finetune(config, jobs=2)
    assert parsed == []  # only the workers parsed
    assert paths.run_file("baseline", 0).exists()
    runner.cmd_pretrain(config, force=True)
    assert parsed == [paths.dataset]


# --- CLI surface ---


def _write_config(tmp_path, overrides=None):
    data = tiny_config_dict(tmp_path, **(overrides or {}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_cli_full_pipeline(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    assert cli.main(["pretrain", "--config", str(cfg_path)]) == 0
    assert cli.main(["classify", "--config", str(cfg_path)]) == 0
    assert cli.main(["finetune", "--config", str(cfg_path), "--jobs", "2"]) == 0
    assert cli.main(["report", "--config", str(cfg_path)]) == 0
    out_dir = tmp_path / "runs" / "tiny-dense"
    assert cli.main(["matrix", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "matrix" in captured.out
    # a report knob given on the command line leaves the config hash alone
    for mapping in ("drop", "comparable"):
        args = ["report", "--config", str(cfg_path), "--map-inconclusive", mapping]
        assert cli.main(args) == 0
        regime = read_json(out_dir / "report" / "analysis.json")["regime"]
        if regime["label"] == "Inconclusive":
            assert regime["mapped"] == (None if mapping == "drop" else "Comparable")
        else:
            assert regime["mapped"] == regime["label"]
    # a checkpoint without params.npy (an older format) is a missing input
    (out_dir / "pretrain" / "seed_0" / "params.npy").unlink()
    assert cli.main(["finetune", "--config", str(cfg_path), "--force"]) == 2
    assert "pretrain --force" in capsys.readouterr().err


def test_cli_report_ignores_report_knobs_and_out_dir(finished, tmp_path):
    copied = copy_of(finished, tmp_path)
    cfg_path = _write_config(tmp_path, {"out_dir": str(copied.root), "last_k": 5})
    assert cli.main(["report", "--config", str(cfg_path)]) == 0
    plain = _write_config(tmp_path, {"out_dir": str(copied.root)})
    assert cli.main(["report", "--config", str(plain)]) == 0
    assert runner.Paths(copied).analysis.read_bytes() == (
        finished / "report" / "analysis.json"
    ).read_bytes()


@pytest.mark.parametrize("last_k,code", [(0, 1), (-2, 1), (14, 1), (13, 0)])
def test_cli_report_checks_last_k_against_the_curve(finished, tmp_path, capsys, last_k, code):
    # each tiny run's curve has 120 // 10 + 1 = 13 points
    copied = copy_of(finished, tmp_path)
    cfg_path = _write_config(tmp_path, {"out_dir": str(copied.root), "last_k": last_k})
    capsys.readouterr()
    assert cli.main(["report", "--config", str(cfg_path)]) == code
    err = capsys.readouterr().err
    if code:
        assert f"last_k must be in [1, 13], the points of each evaluation curve; got {last_k}" in err
        assert "Traceback" not in err
    else:  # every point counts
        baseline = read_json(copied.root / "report" / "analysis.json")["methods"]["baseline"]
        runs = copied.root / "finetune" / "baseline"
        curves = [read_json(runs / f"seed_{seed}.json")["eval_curve"]
                  for seed in baseline["config_seeds"]]
        assert [len(curve) for curve in curves] == [13, 13]
        assert baseline["last_k_per_seed"] == [
            float(np.mean([point["mean"] for point in curve])) for curve in curves
        ]


def test_cli_finetune_refuses_a_checkpoint_with_another_key(finished, tmp_path, capsys):
    copied = copy_of(finished, tmp_path)
    manifest = copied.root / "pretrain" / "seed_0" / "manifest.json"
    record = read_json(manifest)
    record["key"] = "0" * 12
    manifest.write_text(json.dumps(record))
    runs_before = snapshot(copied.root / "finetune")
    cfg_path = _write_config(tmp_path, {"out_dir": str(copied.root)})
    assert cli.main(["finetune", "--config", str(cfg_path), "--force"]) == 1
    err = capsys.readouterr().err
    assert "seed_0" in err and "o2olab pretrain" in err and "allow" not in err
    assert snapshot(copied.root / "finetune") == runs_before


STAGES = ("pretrain", "classify", "finetune", "report")


def _stage_errors(cfg_path, capsys) -> dict[str, tuple[int, str]]:
    """(exit code, stderr) of every stage after gen-data, run through the CLI."""
    capsys.readouterr()
    results = {}
    for stage in STAGES:
        code = cli.main([stage, "--config", str(cfg_path)])
        results[stage] = (code, capsys.readouterr().err)
    return results


@pytest.mark.parametrize("damage", sorted(DAMAGES))
def test_cli_damaged_dataset_exits_2_in_every_stage(finished, tmp_path, capsys, damage):
    copied = copy_of(finished, tmp_path)
    damage_files, _ = DAMAGES[damage]
    damage_files(runner.Paths(copied).dataset)
    cfg_path = _write_config(tmp_path, {"out_dir": str(copied.root)})
    for stage, (code, err) in _stage_errors(cfg_path, capsys).items():
        assert code == 2, stage
        assert err.startswith("damaged dataset: ") and err.count("\n") == 1, (stage, err)
        assert "o2olab gen-data --force" in err, stage


def test_cli_stages_ask_for_gen_data_in_an_old_directory(finished, tmp_path, capsys):
    # an output directory of the JSON-lines format: dataset.jsonl, no dataset/
    copied = copy_of(finished, tmp_path)
    shutil.rmtree(runner.Paths(copied).dataset)
    (copied.root / "dataset.jsonl").write_text('{"key": "old"}\n')
    cfg_path = _write_config(tmp_path, {"out_dir": str(copied.root)})
    for stage, (code, err) in _stage_errors(cfg_path, capsys).items():
        assert code == 2, stage
        assert "dataset/manifest.json does not exist" in err and "o2olab gen-data" in err
    # the regenerated dataset has the old key, so nothing downstream reruns
    kept = snapshot(copied.root / "pretrain")
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    assert all(code == 0 for code, _ in _stage_errors(cfg_path, capsys).values())
    assert snapshot(copied.root / "pretrain") == kept


def test_cli_gen_data_refuses_an_existing_dataset_directory(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    dataset = tmp_path / "runs" / "tiny-dense" / "dataset"
    dataset.mkdir(parents=True)  # e.g. left by an interrupted save
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 1
    assert "--force" in capsys.readouterr().err
    assert cli.main(["gen-data", "--config", str(cfg_path), "--force"]) == 0
    assert (dataset / "manifest.json").exists()


def _pool_worker_blas_threads() -> int:
    get_threads = runner._openblas_function("get_num_threads")
    get_threads.restype = ctypes.c_int
    return get_threads()


def test_pool_workers_use_one_blas_thread():
    if runner._openblas_function("get_num_threads") is None:
        pytest.skip("no OpenBLAS library found in this process")
    with runner._process_pool(2) as pool:
        futures = [pool.submit(_pool_worker_blas_threads) for _ in range(2)]
        assert [f.result(timeout=60) for f in futures] == [1, 1]


def _set_blas_threads(n: int) -> None:
    set_threads = runner._openblas_function("set_num_threads")
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(n)


def test_cli_stage_runs_blas_on_one_thread(tmp_path, capsys):
    if runner._openblas_function("get_num_threads") is None:
        pytest.skip("no OpenBLAS library found in this process")
    before = _pool_worker_blas_threads()
    counts = tmp_path / "counts.json"
    counts.write_text("[[1,0,0],[0,1,0],[0,0,1]]")
    try:
        _set_blas_threads(2)
        assert cli.main(["matrix", "--counts-json", str(counts)]) == 0
        assert _pool_worker_blas_threads() == 1
    finally:
        _set_blas_threads(before)


_FAULT_PROBE = """
import resource, sys
import numpy as np
from o2olab import runner
if sys.argv[1] == "keep":
    runner._keep_freed_memory()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    temps = [np.ones((2, 256, 64)) for _ in range(4)]  # 256 KiB each
    del temps
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_stage_processes_reuse_freed_memory():
    # at glibc's starting thresholds, freeing a batch of 256 KiB temporaries
    # trims the heap, and the next batch faults its pages in again
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("glibc malloc only")
    faults = {
        mode: int(subprocess.run([sys.executable, "-c", _FAULT_PROBE, mode],
                                 capture_output=True, text=True, check=True).stdout)
        for mode in ("default", "keep")
    }
    assert faults["keep"] * 10 < faults["default"], faults


def test_cli_exit_codes(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    # missing inputs -> 2
    assert cli.main(["classify", "--config", str(cfg_path)]) == 2
    # gen-data twice without --force -> usage error 1
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 1
    # bad config -> 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"setting\": \"x\"}")
    assert cli.main(["gen-data", "--config", str(bad)]) == 1
    # config file absent -> 2
    assert cli.main(["gen-data", "--config", str(tmp_path / "none.json")]) == 2


def test_cli_usage_error_is_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-data"])  # missing --config
    assert exc.value.code == 1


def test_cli_matrix_counts(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text("[[24,2,1],[6,2,3],[2,4,19]]")
    assert cli.main(["matrix", "--counts-json", str(counts)]) == 0
    captured = capsys.readouterr()
    assert "45/63" in captured.err
    assert "71%" in captured.err and "5%" in captured.err
