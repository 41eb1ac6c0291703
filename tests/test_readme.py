"""What README.md promises about the config and the output tree holds."""

import json
import re
from dataclasses import fields
from fnmatch import fnmatch
from pathlib import Path

import pytest

from o2olab import runner
from o2olab.agents import Td3Hyper
from o2olab.finetune import FinetuneConfig
from o2olab.fsio import read_json

from pipeline_helpers import run_pipeline
from test_runner import tiny_config_dict

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block_after(marker: str) -> str:
    """The first fenced block after ``marker``."""
    rest = README[README.index(marker):]
    return rest.split("```")[1].split("\n", 1)[1]


def names_in(pattern: str) -> list[str]:
    """The backticked names in the text that ``pattern``'s group captures."""
    return re.findall(r"`(\w+)`", re.search(pattern, README, re.S).group(1))


def output_patterns() -> list[str]:
    """The output table's paths, with each ``<placeholder>`` as ``*``."""
    lines = block_after("Outputs land under `out_dir`:").splitlines()
    return [re.sub(r"<\w+>", "*", line.split("#")[0].strip()) for line in lines]


def test_minimal_config_parses():
    config = runner.ExperimentConfig.from_dict(json.loads(block_after("A minimal config:")))
    assert config.setting == "pendulum-mixed"


def test_listed_finetune_and_agent_keys_are_fields():
    finetune = names_in(r"`finetune` accepts the loop knobs \(([^)]*)\)")
    agent = names_in(r"`agent` accepts\s+hyperparameter overrides \(([^)]*)\)")
    assert finetune and set(finetune) <= {f.name for f in fields(FinetuneConfig)}
    assert agent and set(agent) <= {f.name for f in fields(Td3Hyper)}


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    config = runner.ExperimentConfig.from_dict(tiny_config_dict(tmp_path_factory.mktemp("readme")))
    run_pipeline(config)
    return runner.Paths(config).root


def test_output_table_names_every_output(tree):
    patterns = output_patterns()
    files = [p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file()]
    assert [pattern for pattern in patterns if not any(fnmatch(f, pattern) for f in files)] == []
    assert [f for f in files if not any(fnmatch(f, pattern) for pattern in patterns)] == []


def test_run_file_fields_are_the_listed_ones(tree):
    listed = names_in(r"A run file holds (.*?)\. Run files written")
    run = read_json(tree / "finetune" / "baseline" / "seed_0.json")
    recorded = [*run, *run["eval_curve"][0], *run["counters"]]
    assert sorted(listed) == sorted(recorded)
