import ctypes
import dataclasses
import inspect
import json
import os
import platform
import shutil
import subprocess
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from o2olab import cli, fsio, runner
from o2olab.agents import load_agent, save_agent
from o2olab.data import behavior_segment, load_dataset
from o2olab.envs import BehaviorSpec, env_spec
from o2olab.errors import ConfigError, MissingInputError
from o2olab.finetune import RunLog
from o2olab.metrics import EvalPoint
from o2olab.fsio import read_json
from pipeline_helpers import run_pipeline
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


TYPOS = {  # section: (override of tiny_config_dict, the misspelt key)
    "pretrain": ({"pretrain": {"kind": "offline_rl", "stpes": 60, "beta": 0.4}}, "stpes"),
    "tost": ({"tost": {"delat": 0.1, "alpha": 0.05}}, "delat"),
    "env": ({"env": {"kind": "point_goal_dense", "horizn": 30}}, "horizn"),
    "behavior": ({"behavior": [{"kind": "noisy_expert", "sgima": 0.3, "n_traj": 4}]}, "sgima"),
    "finetune": ({"finetune": {**FINETUNE, "warmpu_steps": 30}}, "warmpu_steps"),
    "agent": ({"agent": {"hidden": [8, 8], "bacth": 16}}, "bacth"),
    "top level": ({"last_kk": 3}, "last_kk"),
}


@pytest.mark.parametrize("section", sorted(TYPOS))
def test_config_rejects_a_typo_in_every_section(tmp_path, capsys, section):
    override, typo = TYPOS[section]
    with pytest.raises(ConfigError, match=f"'{typo}'"):
        runner.ExperimentConfig.from_dict(tiny_config_dict(tmp_path, **override))
    cfg_path = _write_config(tmp_path, override)
    capsys.readouterr()
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 1
    assert f"'{typo}'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_config_keys_are_pinned():
    # recorded before the flat pretrain_*/tost_* fields were folded into
    # their sections; a change here moves the key of every artifact
    config = runner.ExperimentConfig.from_dict({
        "setting": "k",
        "env": {"kind": "pendulum", "horizon": 50},
        "behavior": [{"kind": "noisy_expert", "sigma": 1, "n_traj": 3},
                     {"kind": "epsilon_mixture", "epsilon": 0, "n_traj": 2}],
        "pretrain": {"kind": "bc_fqe", "steps": 100, "beta": 1},
        "agent": {"hidden": [8, 8], "batch": 16},
        "finetune": {"total_env_steps": 100, "eval_every": 10, "warmup_steps": 20},
        "tost": {"delta": 0, "alpha": 0.05},
        "seeds": [3, 1],
        "last_k": 3,
    })
    keys = (
        runner.dataset_key(config),
        runner.checkpoint_key(config, 3),
        runner.eval_key(config),
        runner.classify_key(config),
        runner.run_key(config, "mixed", 1),
    )
    assert keys == ("668ddcf4a7da", "2b8728e99b70", "3661eed5a167", "ba8b1c50cbe2",
                    "4ca4d18178c0")


NOT_INTEGERS = {  # integer field: an override of tiny_config_dict giving it another value
    "finetune.total_env_steps": {"finetune": {**FINETUNE, "total_env_steps": 40.5}},
    "finetune.utd": {"finetune": {**FINETUNE, "utd": True}},
    "finetune.warmup_steps": {"finetune": {**FINETUNE, "warmup_steps": "30"}},
    "finetune.eval_episodes": {"finetune": {**FINETUNE, "eval_episodes": 2.5}},
    "agent.batch": {"agent": {"hidden": [8, 8], "batch": 16.5}},
    "agent.hidden": {"agent": {"hidden": [8, 8.5], "batch": 16}},
    "env.horizon": {"env": {"kind": "point_goal_dense", "horizon": 20.5}},
    "pretrain.steps": {"pretrain": {"kind": "offline_rl", "steps": 60.5, "beta": 0.4}},
    "seeds": {"seeds": [0, 1.5]},
    "last_k": {"last_k": 2.5},
}


@pytest.mark.parametrize("name", sorted(NOT_INTEGERS))
def test_cli_rejects_a_non_integer_in_an_integer_field(tmp_path, capsys, name):
    cfg_path = _write_config(tmp_path, NOT_INTEGERS[name])
    capsys.readouterr()
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert f"{name} must be an integer" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_cli_rejects_a_single_buffer_that_is_not_a_bool(tmp_path, capsys, value):
    cfg_path = _write_config(tmp_path, {"finetune": {**FINETUNE, "single_buffer": value}})
    capsys.readouterr()
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert f"finetune.single_buffer must be true or false, got {value!r}" in err
    assert "Traceback" not in err and not (tmp_path / "runs").exists()


def _parameters(fn) -> dict:
    """Annotation of each named parameter of a config section's builder."""
    hints = typing.get_type_hints(fn)
    params = inspect.signature(fn).parameters.values()
    return {p.name: hints[p.name] for p in params if p.kind is not p.VAR_KEYWORD}


def config_fields() -> list[tuple[str, str, object]]:
    """(section, key, annotation) of every key a config can set, read off
    the builders' annotations; the top level is section ""."""
    found = []
    for name, tp in _parameters(runner.ExperimentConfig).items():
        found.append(("", name, tp))
        if dataclasses.is_dataclass(tp) and name != "env":
            found += [(name, key, t) for key, t in _parameters(tp).items()
                      if (name, key) != ("finetune", "method")]
    found += [("env", key, t) for key, t in _parameters(env_spec).items()]
    behavior = {**_parameters(BehaviorSpec), **_parameters(behavior_segment)}
    return found + [("behavior", key, t) for key, t in behavior.items()]


def _unwrap(tp) -> tuple[object, bool]:
    """(X, whether null is allowed) of an annotation X or ``X | None``."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return next(a for a in typing.get_args(tp) if a is not type(None)), True
    return tp, False


def wrong_values(tp) -> list:
    """Values of another type than ``tp``: a string or a bool for a number,
    a number for a string or a bool, null unless ``tp`` is optional."""
    tp, optional = _unwrap(tp)
    values = [] if optional else [None]
    if typing.get_origin(tp) is tuple:
        return values + ["x"] + [[v] for v in wrong_values(typing.get_args(tp)[0])]
    return values + {int: ["1", True], float: ["1", True], str: [5], bool: [1, "true"]}.get(tp, [5])


def with_value(data: dict, section: str, key: str, value) -> dict:
    """``data`` with ``key`` of ``section`` (of the first segment, for
    ``behavior``) set to ``value``."""
    data = dict(data)
    if not section:
        data[key] = value
    elif section == "behavior":
        data["behavior"] = [{**data["behavior"][0], key: value}, *data["behavior"][1:]]
    else:
        data[section] = {**data.get(section, {}), key: value}
    return data


WRONG_TYPES = [
    (f"{section}.{key}" if section else key, section, key, value)
    for section, key, tp in config_fields()
    for value in wrong_values(tp)
]


@pytest.mark.parametrize(
    "name, section, key, value", WRONG_TYPES, ids=[f"{c[0]}={c[3]!r}" for c in WRONG_TYPES]
)
def test_cli_rejects_a_value_of_another_type_in_every_field(
    tmp_path, capsys, name, section, key, value
):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(with_value(tiny_config_dict(tmp_path), section, key, value)))
    capsys.readouterr()
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1, err
    assert not (tmp_path / "runs").exists()


def test_float_fields_written_as_integers_are_their_floats(tmp_path):
    # the inverse of test_integral_floats_are_their_integers
    fields = [(s, k) for s, k, tp in config_fields() if _unwrap(tp)[0] is float]
    assert len(fields) == 14  # behavior 2, pretrain 1, agent 7, finetune 2, tost 2
    ints = floats = tiny_config_dict(tmp_path)
    for section, key in fields:
        ints = with_value(ints, section, key, 1)
        floats = with_value(floats, section, key, 1.0)
    configs = [runner.ExperimentConfig.from_dict(data) for data in (ints, floats)]
    assert configs[0] == configs[1]
    assert json.dumps(configs[0].to_dict()) == json.dumps(configs[1].to_dict())
    keys = [
        (runner.dataset_key(c), runner.checkpoint_key(c, 1), runner.eval_key(c),
         runner.classify_key(c), runner.run_key(c, "mixed", 1))
        for c in configs
    ]
    assert keys[0] == keys[1]


# every integer field of tiny_config_dict, written as a float
INTEGRAL_FLOATS = {
    "env": {"kind": "point_goal_dense", "horizon": 30.0},
    "behavior": [
        {"kind": "noisy_expert", "sigma": 0.3, "n_traj": 4.0},
        {"kind": "uniform_random", "n_traj": 2.0},
    ],
    "pretrain": {"kind": "offline_rl", "steps": 60.0, "beta": 0.4},
    "agent": {"hidden": [8.0, 8.0], "batch": 16.0},
    "seeds": [0.0, 1.0],
    "finetune": {"total_env_steps": 120.0, "utd": 1.0, "warmup_steps": 30.0,
                 "eval_every": 10.0, "eval_episodes": 2.0},
    "reference_episodes": 10.0,
    "last_k": 10.0,
}


def test_integral_floats_are_their_integers(finished, tmp_path):
    floats = runner.ExperimentConfig.from_dict(tiny_config_dict(tmp_path, **INTEGRAL_FLOATS))
    ints = runner.ExperimentConfig.from_dict(tiny_config_dict(tmp_path))
    assert floats == ints
    assert runner.run_key(floats, "warmup", 1) == runner.run_key(ints, "warmup", 1)
    cfg_path = _write_config(tmp_path, {**INTEGRAL_FLOATS, "out_dir": str(tmp_path / "floats")})
    for stage in ("gen-data", "pretrain", "classify", "finetune", "report"):
        assert cli.main([stage, "--config", str(cfg_path)]) == 0, stage
    got = snapshot(tmp_path / "floats")
    assert {n: data for n, (data, _) in got.items()} == {
        n: data for n, (data, _) in snapshot(finished).items()
    }


# configs that would parse and then fail in a later stage, or be ignored:
# an override of tiny_config_dict, and the message of its config error
FAILING_LATER = {
    "pretrain beta 0": (
        {"pretrain": {"kind": "offline_rl", "steps": 60, "beta": 0}},
        "pretrain.beta must be > 0 for offline_rl, got 0.0",
    ),
    "negative finetune beta": (
        {"finetune": {**FINETUNE, "beta": -0.1}}, "finetune.beta must be >= 0, got -0.1"
    ),
    "one seed": ({"seeds": [3]}, "seeds must be at least 2 distinct seeds, got [3]"),
    "duplicate methods": (
        {"methods": ["baseline", "baseline"]},
        "methods must be distinct, got ['baseline', 'baseline']",
    ),
    "method in finetune": (  # ``methods`` picks the methods that run
        {"finetune": {**FINETUNE, "method": "warmup"}},
        "finetune.method is not a setting: `methods` lists the methods to run",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILING_LATER))
def test_cli_rejects_a_config_that_would_fail_in_a_later_stage(tmp_path, capsys, case):
    override, message = FAILING_LATER[case]
    with pytest.raises(ConfigError):
        runner.ExperimentConfig.from_dict(tiny_config_dict(tmp_path, **override))
    cfg_path = _write_config(tmp_path, override)
    capsys.readouterr()
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_cli_pretrain_blow_up_exits_3_and_writes_no_checkpoint(tmp_path, capsys):
    # recorded when a pretraining run was a plain single-run agent
    cfg_path = _write_config(tmp_path, {"agent": {"hidden": [8, 8], "batch": 16, "gamma": 1e300}})
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli.main(["pretrain", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == "numeric failure: critic loss is not finite at update 1\n"
    assert not (tmp_path / "runs" / "tiny-dense" / "pretrain").exists()


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
    assert classify["delta"] == config.tost.delta

    run_files = runner.cmd_finetune(config)
    assert len(run_files) == len(config.methods) * len(config.seeds)
    for f in run_files:
        assert f.exists()
        data = read_json(f)
        assert data["key"] == runner.run_key(config, data["method"], data["config_seed"])
        assert data["seed"] == runner.run_seed_for(
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


def test_finetune_resume_preserves_files(config, monkeypatch):
    runner.cmd_gen_data(config)
    runner.cmd_pretrain(config)
    runner.cmd_classify(config)
    files = runner.cmd_finetune(config)
    stamps = {f: f.stat().st_mtime_ns for f in files}
    groups = recording_groups(monkeypatch)
    written = recording_writes(monkeypatch, runner.Paths(config).root)
    again = runner.cmd_finetune(config)  # resume: nothing to redo
    assert groups == [] and written == []
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
    run_pipeline(config)
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
    run_pipeline(config)
    analysis = runner.Paths(config).analysis
    first = analysis.read_bytes()

    def no_load(path):
        raise AssertionError("report parsed the dataset")

    monkeypatch.setattr(runner, "load_dataset", no_load)
    runner.cmd_report(config)
    assert analysis.read_bytes() == first


def test_classify_reads_no_dataset_rows(config, monkeypatch):
    run_pipeline(config)
    classify = runner.Paths(config).classify
    first = classify.read_bytes()
    classify.unlink()

    def no_load(path):
        raise AssertionError("classify parsed the dataset")

    monkeypatch.setattr(runner, "load_dataset", no_load)
    runner.cmd_classify(config)
    assert classify.read_bytes() == first


def test_report_checks_dataset_header_hash(config):
    run_pipeline(config)
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
        run_pipeline(cfg)
        analyses.append(runner.Paths(cfg).analysis.read_bytes())
    assert analyses[0] == analyses[1]


def test_parallel_matches_serial(tmp_path):
    trees = []
    for name, jobs in (("serial", 1), ("parallel", 3)):
        cfg = runner.ExperimentConfig.from_dict(
            tiny_config_dict(tmp_path, out_dir=str(tmp_path / name))
        )
        runner.cmd_gen_data(cfg)
        runner.cmd_pretrain(cfg, jobs=jobs)
        runner.cmd_classify(cfg)
        runner.cmd_finetune(cfg, jobs=jobs)
        runner.cmd_report(cfg)
        trees.append({name: data for name, (data, _) in snapshot(runner.Paths(cfg).root).items()})
    # every file, byte for byte: dataset, checkpoints, eval, classify, runs, report
    names = set(trees[0])
    for expected in ("dataset/manifest.json", "pretrain/seed_1/params.npy", "pretrain/eval.json",
                     "classify.json", "finetune/mixed/seed_1.json", "finetune/mixed/seed_1.csv",
                     "report/analysis.json", "report/summary.csv", "report/curve_mixed.csv"):
        assert expected in names
    assert trees[0] == trees[1]


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_a_config_error(config, tmp_path, capsys, jobs):
    for stage in (runner.cmd_pretrain, runner.cmd_finetune):
        with pytest.raises(ConfigError, match=f"at least 1; got {jobs}"):
            stage(config, jobs=jobs)
    cfg_path = _write_config(tmp_path)
    for stage in ("pretrain", "finetune"):
        capsys.readouterr()
        assert cli.main([stage, "--config", str(cfg_path), "--jobs", str(jobs)]) == 1
        assert f"at least 1; got {jobs}" in capsys.readouterr().err


def test_curve_ci_is_a_student_t_interval():
    curves = [
        [EvalPoint(0, v, [v]), EvalPoint(10, 2 * v, [2 * v])]
        for v in (0.1, 0.4, 0.7)
    ]
    stats = runner._curve_stats(curves)
    half = np.array(stats["ci_hi"]) - np.array(stats["mean"])
    se = np.array([0.3, 0.6]) / np.sqrt(3)  # std of (0.1, 0.4, 0.7), doubled
    assert half == pytest.approx(sps.t.ppf(0.975, 2) * se, rel=1e-12)
    assert np.array(stats["mean"]) - np.array(stats["ci_lo"]) == pytest.approx(half)
    single = runner._curve_stats(curves[:1])
    assert single["ci_lo"] == single["mean"] == single["ci_hi"]


# --- analyse on hand-built run logs ---


# each run's level: the policy-centric class ends well above the data-centric one
LEVELS = {"baseline": 0.1, "warmup": 0.5, "o2o_reg": 0.6, "replay": 0.2, "replay_reset": 0.3,
          "mixed": 0.4}


def classify_record(label):
    """A classify record of ``label`` with fixed statistics."""
    return {"label": label, "p_lower": 0.2, "p_upper": 0.3, "mean_diff": 0.01, "delta": 0.05,
            "alpha": 0.05, "data": {"mean": 0.4, "std": 0.1, "n": 6},
            "policy": {"mean": 0.41, "std": 0.02, "n": 2}}


def hand_logs(config, drop=(), aborted=()):
    """A run log for every configured run but those in ``drop``, keyed by
    (method, config seed); each curve (13 points, as the tiny config's) climbs
    0.01 a point from its method's level, plus 0.02 for config seed 1."""
    logs = {}
    for method in config.methods:
        for seed in config.seeds:
            if (method, seed) in drop:
                continue
            level = LEVELS[method] + 0.02 * seed
            curve = [EvalPoint(10 * i, level + 0.01 * i, [level + 0.01 * i]) for i in range(13)]
            logs[method, seed] = RunLog(method, 100 + seed, {}, curve,
                                        aborted=(method, seed) in aborted)
    return logs


@pytest.mark.parametrize("label,mapping,mapped", [
    ("Inconclusive", "comparable", "Comparable"),
    ("Inconclusive", "drop", None),
    ("Superior", "drop", "Superior"),
])
def test_analyse_maps_the_regime_label(tmp_path, label, mapping, mapped):
    config = runner.ExperimentConfig.from_dict(tiny_config_dict(tmp_path, map_inconclusive=mapping))
    analysis = runner.analyse(config, classify_record(label), hand_logs(config))
    assert (analysis["regime"]["label"], analysis["regime"]["mapped"]) == (label, mapped)
    assert analysis["class_comparison"]["winner"] == ">"
    expected_cell = None if mapped is None else {"regime": mapped, "winner": ">"}
    assert analysis["confusion_cell"] == expected_cell
    assert not (tmp_path / "runs").exists()  # the config's out_dir: nothing written


def test_analyse_lists_missing_and_aborted_runs_in_config_order(config):
    logs = hand_logs(config, drop=[("replay", 1), ("baseline", 0)],
                     aborted=[("mixed", 1), ("warmup", 0)])
    completeness = runner.analyse(config, classify_record("Superior"), logs)["completeness"]
    assert completeness == {
        "expected_runs": 12,
        "completed_runs": 8,
        "missing": ["baseline/seed_0", "replay/seed_1"],
        "aborted": ["warmup/seed_0", "mixed/seed_1"],
    }


def test_analyse_compares_only_variants_with_two_completed_runs(config):
    logs = hand_logs(config, drop=[("replay", 1)], aborted=[("warmup", 0)])
    analysis = runner.analyse(config, classify_record("Superior"), logs)
    comparison = analysis["class_comparison"]
    assert (comparison["policy_variant"], comparison["data_variant"]) == ("o2o_reg", "replay_reset")
    assert analysis["methods"]["warmup"]["config_seeds"] == [1]  # still reported
    assert analysis["methods"]["replay"]["config_seeds"] == [0]
    logs = hand_logs(config, drop=[("replay", 1), ("replay_reset", 0)])
    analysis = runner.analyse(config, classify_record("Superior"), logs)
    assert analysis["class_comparison"] is None and analysis["confusion_cell"] is None


def test_analyse_notes_a_method_without_completed_runs(config):
    logs = hand_logs(config, drop=[("baseline", 0), ("baseline", 1)],
                     aborted=[("mixed", 0), ("mixed", 1)])
    methods = runner.analyse(config, classify_record("Superior"), logs)["methods"]
    for method in ("baseline", "mixed"):
        assert methods[method] == {"seeds": [], "note": "no completed runs"}
    assert methods["o2o_reg"]["seeds"] == [100, 101]


def test_analyse_of_the_finished_logs_is_the_written_analysis(finished, tmp_path, monkeypatch):
    config = runner.ExperimentConfig.from_dict(tiny_config_dict(tmp_path, out_dir=str(finished)))
    paths = runner.Paths(config)
    logs = {(m, s): RunLog.from_dict(read_json(paths.run_file(m, s)))
            for m in config.methods for s in config.seeds}
    before = snapshot(finished)
    written = recording_writes(monkeypatch, finished)
    analysis = runner.analyse(config, read_json(paths.classify), logs)
    assert written == [] and snapshot(finished) == before
    assert analysis == read_json(paths.analysis)


def test_aggregate_matrix(config, tmp_path):
    run_pipeline(config)
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
    run_pipeline(config)
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


def recording_writes(mp, root):
    """Patch the artifact writer to record the path, relative to ``root``, of
    every file a stage asks it to write, whether or not the bytes change:
    a file left in place keeps its mtime, so only this shows that a stage
    did not redo it."""
    written, real = [], fsio._write_atomic

    def recording(path, data):
        written.append(Path(path).relative_to(root).as_posix())
        return real(path, data)

    mp.setattr(fsio, "_write_atomic", recording)
    return written


def run_stages(config):
    runner.cmd_pretrain(config)
    runner.cmd_classify(config)
    runner.cmd_finetune(config)
    runner.cmd_report(config)


def test_changed_tost_reruns_only_classify(finished, tmp_path, monkeypatch):
    config = copy_of(finished, tmp_path, tost={"delta": 0.1, "alpha": 0.05})
    root = runner.Paths(config).root
    before = snapshot(root)
    written = recording_writes(monkeypatch, root)
    run_stages(config)
    assert [n for n in written if not n.startswith("report/")] == ["classify.json"]
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
    run_pipeline(config)
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
    with pytest.MonkeyPatch.context() as mp:
        written = recording_writes(mp, paths.root)
        runner.cmd_pretrain(config)  # checkpoints are current: only re-evaluated
    assert written == ["pretrain/eval.json"]
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


def test_run_files_of_the_older_format_stay_current(finished, tmp_path, monkeypatch):
    # older versions also wrote per-update loss lists and a copy of the run seed
    config = copy_of(finished, tmp_path)
    paths = runner.Paths(config)
    for method in config.methods:
        for seed in config.seeds:
            run_file = paths.run_file(method, seed)
            record = read_json(run_file)
            record.update(critic_losses=[0.5, 0.25], actor_losses=[-1.0], run_seed=record["seed"])
            run_file.write_text(json.dumps(record, sort_keys=True) + "\n")
    before = snapshot(paths.finetune_dir)
    groups = recording_groups(monkeypatch)
    written = recording_writes(monkeypatch, paths.root)
    runner.cmd_finetune(config)
    assert groups == [] and written == []
    assert snapshot(paths.finetune_dir) == before
    runner.cmd_report(config)
    assert paths.analysis.read_bytes() == (finished / "report" / "analysis.json").read_bytes()


@pytest.mark.parametrize("damage", ["missing field", "not a run log", "not JSON"])
def test_cli_report_exits_2_on_a_damaged_run_file(finished, tmp_path, capsys, damage):
    copied = copy_of(finished, tmp_path)
    run_file = runner.Paths(copied).run_file("mixed", 1)
    record = read_json(run_file)
    if damage == "missing field":  # the key is still current
        del record["counters"]
        run_file.write_text(json.dumps(record))
    elif damage == "not a run log":
        run_file.write_text(json.dumps([record]))
    else:
        run_file.write_text(json.dumps(record)[:-7])
    cfg_path = _write_config(tmp_path, {"out_dir": str(copied.root)})
    capsys.readouterr()
    assert cli.main(["report", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(run_file) in err and "o2olab finetune" in err
    assert cli.main(["finetune", "--config", str(cfg_path)]) == 0  # sets it aside, redoes it
    assert cli.main(["report", "--config", str(cfg_path)]) == 0
    assert runner.Paths(copied).analysis.read_bytes() == (
        finished / "report" / "analysis.json"
    ).read_bytes()


@pytest.mark.parametrize("damage", ["no update_count", "fractional update_count",
                                    "hyper mistyped", "params cut"])
def test_cli_finetune_exits_2_on_a_damaged_checkpoint(finished, tmp_path, capsys, damage):
    copied = copy_of(finished, tmp_path)
    checkpoint = runner.Paths(copied).checkpoint(1)
    manifest = read_json(checkpoint / "manifest.json")  # its key stays current
    if damage == "no update_count":
        del manifest["update_count"]
    elif damage == "fractional update_count":
        manifest["update_count"] += 0.5
    elif damage == "hyper mistyped":
        manifest["hyper"]["tau"] = "0.005"
    else:
        params = checkpoint / "params.npy"
        params.write_bytes(params.read_bytes()[:60])
    (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    cfg_path = _write_config(tmp_path, {"out_dir": str(copied.root)})
    capsys.readouterr()
    assert cli.main(["finetune", "--config", str(cfg_path), "--force"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(checkpoint) in err and "o2olab pretrain --force" in err


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


# --- lockstep groups ---


def recording_groups(mp):
    """Patch ``runner.run_finetune`` to record the (method, runs) of each group."""
    groups, real = [], runner.run_finetune

    def recording(dataset, agents, config, seeds):
        groups.append((config.method, len(agents)))
        return real(dataset, agents, config, seeds)

    mp.setattr(runner, "run_finetune", recording)
    return groups


def finetune_in_groups(config, size):
    """The bytes of every finetune file after a forced finetune in groups of
    at most ``size`` runs, and the (method, runs) of each group."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "lockstep_runs", lambda hyper, spec: size)
        groups = recording_groups(mp)
        runner.cmd_finetune(config, force=True)
    root = runner.Paths(config).finetune_dir
    files = {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
             if p.is_file()}
    return files, groups


NET_SIZES = {"golden": {"hidden": [8, 8], "batch": 16}, "32x32": {"hidden": [32, 32], "batch": 64}}


@pytest.fixture(scope="module", params=sorted(NET_SIZES))
def three_seeds(request, tmp_path_factory):
    """A tiny setting with three seeds, pretrained and classified, and its
    finetune files with every run alone."""
    base = tmp_path_factory.mktemp(f"three-{request.param}")
    config = runner.ExperimentConfig.from_dict(
        tiny_config_dict(base, agent=NET_SIZES[request.param], seeds=[0, 1, 2])
    )
    runner.cmd_gen_data(config)
    runner.cmd_pretrain(config)
    runner.cmd_classify(config)
    alone, groups = finetune_in_groups(config, 1)
    assert {runs for _, runs in groups} == {1}
    return config, alone


@pytest.mark.parametrize("size,runs", [(2, [2, 1]), (3, [3])])
def test_lockstep_groups_write_the_bytes_of_runs_alone(three_seeds, size, runs):
    config, alone = three_seeds
    files, groups = finetune_in_groups(config, size)
    assert groups == [(method, n) for method in config.methods for n in runs]
    assert len(files) == 2 * 6 * 3 and files == alone


def blow_up_targets(checkpoint):
    """Rewrite a checkpoint, key and all, so that its critic targets overflow."""
    agent = load_agent(checkpoint)
    for w in agent.target_critics.weights[1:]:
        w[:] = 1e200
    manifest = read_json(checkpoint / "manifest.json")
    save_agent(agent, checkpoint, extra={"key": manifest["key"], "seed": manifest["seed"]})


def test_a_run_that_blows_up_aborts_alone(finished, tmp_path):
    config = copy_of(finished, tmp_path)
    blow_up_targets(runner.Paths(config).checkpoint(1))
    alone, _ = finetune_in_groups(config, 1)
    grouped, groups = finetune_in_groups(config, 2)
    assert groups == [(method, 2) for method in config.methods]
    assert grouped == alone
    runs = finished / "finetune"
    for method in config.methods:
        for name in (f"{method}/seed_0.json", f"{method}/seed_0.csv"):
            assert grouped[name] == (runs / name).read_bytes(), name
        record = json.loads(grouped[f"{method}/seed_1.json"])
        if method == "replay_reset":  # the reset replaces the damaged nets
            assert grouped[f"{method}/seed_1.json"] == (runs / method / "seed_1.json").read_bytes()
        else:
            reason = (record["aborted"], record["abort_reason"])
            assert reason == (True, "non-finite critic target")
            assert record["counters"]["updates"] == 0


def test_a_deleted_run_file_is_redone_alone_with_its_bytes(finished, tmp_path, monkeypatch):
    config = copy_of(finished, tmp_path)
    paths = runner.Paths(config)
    before = snapshot(paths.finetune_dir)
    paths.run_file("mixed", 1).unlink()
    groups = recording_groups(monkeypatch)
    runner.cmd_finetune(config)
    after = snapshot(paths.finetune_dir)
    assert groups == [("mixed", 1)]
    assert {n: data for n, (data, _) in after.items()} == {
        n: data for n, (data, _) in before.items()
    }
    # the CSV's bytes came out the same, so it was left in place
    assert [n for n in after if after[n] != before[n]] == ["mixed/seed_1.json"]


def test_a_forced_finetune_reruns_every_group_and_leaves_equal_files_in_place(
    finished, tmp_path, monkeypatch
):
    config = copy_of(finished, tmp_path)
    root = runner.Paths(config).finetune_dir
    before = snapshot(root)
    groups = recording_groups(monkeypatch)
    runner.cmd_finetune(config, force=True)
    assert groups == [(method, 2) for method in config.methods]
    assert snapshot(root) == before


def test_nets_above_the_threshold_run_alone(tmp_path, monkeypatch):
    # (64, 64) at batch 256 on the pendulum: no update within 20 steps
    config = runner.ExperimentConfig.from_dict(tiny_config_dict(
        tmp_path, env={"kind": "pendulum", "horizon": 10},
        behavior=[{"kind": "expert", "n_traj": 2}],
        pretrain={"kind": "offline_rl", "steps": 2, "beta": 0.4},
        agent={"hidden": [64, 64], "batch": 256},
        finetune={"total_env_steps": 20, "warmup_steps": 10, "eval_every": 10,
                  "eval_episodes": 1},
        last_k=2,
    ))
    runner.cmd_gen_data(config)
    runner.cmd_pretrain(config)
    runner.cmd_classify(config)
    groups = recording_groups(monkeypatch)
    runner.cmd_finetune(config)
    assert groups == [(method, 1) for method in config.methods for _ in config.seeds]


@pytest.mark.parametrize("jobs", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("todo", [
    {"baseline": [0, 1]},
    {"baseline": [0, 1, 2, 3, 4], "mixed": [7]},
    {"warmup": list(range(10)), "replay": [3]},
])
def test_finetune_units_give_every_worker_a_unit(todo, jobs):
    units = runner._finetune_units(todo, 4, jobs)
    assert len(units) >= min(jobs, sum(len(seeds) for seeds in todo.values()))
    assert all(1 <= len(seeds) <= 4 for _, seeds in units)
    assert [(m, s) for m, seeds in units for s in seeds] == [
        (m, s) for m, seeds in todo.items() for s in seeds
    ]


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
    capsys.readouterr()
    assert cli.main(["report", "--config", str(cfg_path), "--map-inconclusive", "maybe"]) == 1
    assert "map_inconclusive must be 'comparable' or 'drop'" in capsys.readouterr().err
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


def test_cli_report_with_one_completed_run_of_a_variant(finished, tmp_path, capsys):
    copied = copy_of(finished, tmp_path)
    runner.Paths(copied).run_file("warmup", 1).unlink()
    cfg_path = _write_config(tmp_path, {"out_dir": str(copied.root)})
    assert cli.main(["report", "--config", str(cfg_path)]) == 0
    analysis = read_json(runner.Paths(copied).analysis)
    full = read_json(finished / "report" / "analysis.json")
    assert analysis["completeness"]["missing"] == ["warmup/seed_1"]
    assert analysis["methods"]["warmup"]["config_seeds"] == [0]
    comparison = analysis["class_comparison"]
    assert comparison["policy_variant"] == "o2o_reg"  # the one policy-centric variant left
    assert comparison["data_variant"] == full["class_comparison"]["data_variant"]


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


def test_cli_stages_ask_for_gen_data_in_an_old_directory(
    finished, tmp_path, capsys, monkeypatch
):
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
    groups = recording_groups(monkeypatch)
    written = recording_writes(monkeypatch, copied.root)
    assert all(code == 0 for code, _ in _stage_errors(cfg_path, capsys).values())
    assert groups == []
    assert [n for n in written if n.startswith(("pretrain/", "finetune/"))] == []
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


_THREAD_PROBE = "import o2olab.cli; import os; print(len(os.listdir('/proc/self/task')))"
# importing o2olab.cli sets the first of these in this test process too, and
# the probe must not inherit it
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_importing_the_cli_starts_no_blas_thread():
    # OpenBLAS starts its worker threads when numpy loads it, so the CLI must
    # fix the thread count before any of its imports loads numpy
    if not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2:
        pytest.skip("counts the threads of a Linux process on two or more cores")
    if runner._openblas_function("get_num_threads") is None:
        pytest.skip("no OpenBLAS library found in this process")
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(runner.__file__).resolve().parent.parent)
    probe = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                           capture_output=True, text=True, check=True, timeout=60)
    assert int(probe.stdout) == 1


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


# matrix input faults: (arguments, with FILE for a file holding the text,
# the text or None for no file, exit code, start of the one-line message)
MATRIX_FAULTS = {
    "no counts file": (["--counts-json", "FILE"], None, 2, "missing input: no counts file at"),
    "counts not JSON": (["--counts-json", "FILE"], "[[1, 2", 1, "error: "),
    "counts not 3x3": (["--counts-json", "FILE"], "[[1, 2], [3, 4]]", 1,
                       "error: counts must be 3x3"),
    "analysis not JSON": (["FILE"], "{", 2, "missing input: "),
    "analysis not an object": (["FILE"], "[1, 2]", 2, "missing input: "),
    "cell not an object": (["FILE"], '{"confusion_cell": []}', 2, "missing input: "),
    "cell regime unknown": (["FILE"], '{"confusion_cell": {"regime": "Nope", "winner": ">"}}',
                            2, "missing input: "),
    "cell winner unknown": (["FILE"], '{"confusion_cell": {"regime": "Superior", "winner": "?"}}',
                            2, "missing input: "),
    "cell Inconclusive": (["FILE"],
                          '{"confusion_cell": {"regime": "Inconclusive", "winner": ">"}}',
                          2, "missing input: "),
    "counts negative": (["--counts-json", "FILE"], "[[-5, 0, 0], [0, 0, 0], [0, 0, 0]]", 1,
                        "error: counts must not be negative"),
}


@pytest.mark.parametrize("fault", sorted(MATRIX_FAULTS))
def test_cli_matrix_exit_codes(tmp_path, capsys, fault):
    args, text, code, message = MATRIX_FAULTS[fault]
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["matrix", *(str(path) if a == "FILE" else a for a in args)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1, captured.err
    assert code != 2 or str(path) in captured.err  # a damaged input is named
    assert captured.out == ""


def test_cli_matrix_out_holds_what_it_prints(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text("[[24,2,1],[6,2,3],[2,4,19]]")
    out = tmp_path / "matrix.json"
    assert cli.main(["matrix", "--counts-json", str(counts), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.json", "matrix.json"]


def test_cli_matrix_counts(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text("[[24,2,1],[6,2,3],[2,4,19]]")
    assert cli.main(["matrix", "--counts-json", str(counts)]) == 0
    captured = capsys.readouterr()
    assert "45/63" in captured.err
    assert "71%" in captured.err and "5%" in captured.err


@pytest.mark.parametrize("source", ["zero counts", "no resolved cell"])
def test_cli_matrix_of_no_setting_exits_0_with_null_rates(tmp_path, capsys, source):
    path = tmp_path / "input.json"
    if source == "zero counts":
        path.write_text("[[0,0,0],[0,0,0],[0,0,0]]")
        args = ["--counts-json", str(path)]
    else:  # every setting dropped as Inconclusive
        path.write_text('{"confusion_cell": null}')
        args = [str(path), str(path)]
    assert cli.main(["matrix", *args]) == 0
    captured = capsys.readouterr()
    matrix = json.loads(captured.out)["matrix"]
    assert (matrix["total"], matrix["accuracy"], matrix["opposite_rate"]) == (0, None, None)
    assert captured.err.startswith("no setting counted") and captured.err.count("\n") == 1
