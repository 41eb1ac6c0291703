"""Pinned artifacts of tiny full pipelines.

Each pipeline runs in its own working directory with a relative ``out_dir``.
No artifact key covers ``out_dir``, so the artifacts do not depend on where
the test runs. The digests of the CSV files were recorded from the reference
implementation; a refactor of the numerical code must reproduce them bit
for bit. ``dataset.jsonl``, ``pretrain/eval.json``, ``classify.json`` and
``report/analysis.json`` also carry provenance (the artifact's input key, or
none for the analysis), so their digests change whenever that provenance
does; their other content matches the reference. The digests assume IEEE
float64 numpy on x86-64 with OpenBLAS; another BLAS build may round matrix
products differently.
"""

import contextlib
import hashlib
import os
from pathlib import Path

import pytest

from o2olab import runner

OUT_DIR = "runs/golden"

# sha256 of every digested artifact, by pretrainer and path under out_dir
GOLDEN = {
    "offline_rl": {
        "classify.json":
            "69791ca068f623a11429a69aba10252b26fa3ae9b3cbe3340e06a5b4a3538fff",
        "dataset.jsonl":
            "a1395511444ed43ea6767bb6e1c309d76774ca5879f665009004711e3fc531c9",
        "finetune/baseline/seed_0.csv":
            "7f28d1574a4556151fb1831575f3d7f3cbd44962e8918ba9737a7bc1acc6470f",
        "finetune/baseline/seed_1.csv":
            "9d4db13f408fdecdab241219610d11d0f5678ebad35fd607ceb8bff8617749bd",
        "finetune/mixed/seed_0.csv":
            "cc612856ae619416266da493f16b34d92d282010903421c7661e54aa5ff808c5",
        "finetune/mixed/seed_1.csv":
            "b0f34894a82cdcae86d07562c3b2688090b1289b8557a23aee00980f2034bbb0",
        "finetune/o2o_reg/seed_0.csv":
            "3262fde973a40cc243898b55aa8e6e2b32c166c248056e370cff8428107b75b4",
        "finetune/o2o_reg/seed_1.csv":
            "4e15a9ad21f808d1e8f3b3def54e064810bd1ae72bd9adcc3d90ced78c50f9af",
        "finetune/replay/seed_0.csv":
            "5e455bfbd7b85683546613b6d5d9d01fccc9e9c2a13cc504846d9bd4944aa4c7",
        "finetune/replay/seed_1.csv":
            "a3fae70f69ac8b0252f04e0ee0764ffa8e42937c8deecc5298f3d3f755c646a6",
        "finetune/replay_reset/seed_0.csv":
            "8f1920836160610e51dedcd538a5ba02c8ad1aae7fd8e4cce7002341b4c3c8cb",
        "finetune/replay_reset/seed_1.csv":
            "534b562487f606813c442d28d6a1eec5e7393642ef286d0147fc5a78ccdecce6",
        "finetune/warmup/seed_0.csv":
            "b3225fc231c0357da785228ba5a6310062d5a75fd799887aa4fb6b756aaaa9fb",
        "finetune/warmup/seed_1.csv":
            "8202937c32a1e857fa108481e4a29aa3ca8a4e42155741f8b5f689c34b6a7c7d",
        "pretrain/eval.json":
            "887237fc581ff3c5da4dc36f6ee143ae68a310ca182950641fe481074c1ec9be",
        "report/analysis.json":
            "2e1379c96f988a1bb5cb249f3c4e4d4c6734e2a98084b595266831ad9b5056db",
        "report/curve_baseline.csv":
            "4dcd703d213d8b0c4a8dcd8970d6928656c28a9b1b23af814424cc38b82abf10",
        "report/curve_mixed.csv":
            "84558a2878bc9a22b7c3b4b8717dd0d0ca37ba9a7ef1a2f19beb031718fdd60e",
        "report/curve_o2o_reg.csv":
            "515f09fa285bfd23820b6cd46b94c4fa9c25cd2815487f61beb37d0f076b2617",
        "report/curve_replay.csv":
            "c1cfd8764bea8ec3f129f9749c86493611a91e436c80c8ffc4be38342cdebe9a",
        "report/curve_replay_reset.csv":
            "159b23277fd54374351b524ebe03288d4622c9f3f36584d9351e9a07b69a79b0",
        "report/curve_warmup.csv":
            "019f9e6d07210bfabe4b8b98437663e5e080d319a75434891b738bbe447e53fb",
        "report/summary.csv":
            "e4b57bffa3a3c1343f96d419feea931ba62db1667e88269e8c7bac36f1f8510d",
    },
    "bc_fqe": {
        "classify.json":
            "4484bb9bd2c187b2e8d1ad10f0667d2886093be98f776f4aabd8dc70838297e1",
        "dataset.jsonl":
            "a1395511444ed43ea6767bb6e1c309d76774ca5879f665009004711e3fc531c9",
        "finetune/baseline/seed_0.csv":
            "4824fdf4d4b5c1e99f8818ce3a983b5a79c80994c5809c33f703a6b4fb6110ce",
        "finetune/baseline/seed_1.csv":
            "aa4925d840c92bef2b908489d04b633bef291ec80fc1c44db8244bca59594986",
        "finetune/mixed/seed_0.csv":
            "eae756173873c13f1db4341bb412f6b5bb5d376f2c95982178ca5a0397cf6e70",
        "finetune/mixed/seed_1.csv":
            "abafb3b566b3e2dd4c5208e63188414815fc09877c006f517460cd6bbe4473d4",
        "finetune/o2o_reg/seed_0.csv":
            "edc9e0689ebc3d0507ea69c725d81035454d28c1b3cf024d9424418ac90cae65",
        "finetune/o2o_reg/seed_1.csv":
            "e1623c2e916572165d5cd84422810ffd4555854d0ad984ecd42959a9a74b21da",
        "finetune/replay/seed_0.csv":
            "69978057839fca552042e31428a2157f85122709bab385cc1a85a4a2d6ac7524",
        "finetune/replay/seed_1.csv":
            "1269b7b338906849fb1ee17dee5380c788277e9f417a6b3899ea117aa2ef12a9",
        "finetune/replay_reset/seed_0.csv":
            "8f1920836160610e51dedcd538a5ba02c8ad1aae7fd8e4cce7002341b4c3c8cb",
        "finetune/replay_reset/seed_1.csv":
            "534b562487f606813c442d28d6a1eec5e7393642ef286d0147fc5a78ccdecce6",
        "finetune/warmup/seed_0.csv":
            "eb9e82ffd1a6bbb2090d9986481431114db6d5e592f5c3c59a17c11893db2f0b",
        "finetune/warmup/seed_1.csv":
            "d32513a86217908deee95f3be8e710675abd2899a679754adad96df4e524375e",
        "pretrain/eval.json":
            "0cdb6a959f73bdfe58a81cf1e0c0732ab2a85b65bf7343f0b1183cb29cb88133",
        "report/analysis.json":
            "c4453b76723c29924a2d6438f7d4c7773e3e04998f8e545de1baefa3bdb07ac6",
        "report/curve_baseline.csv":
            "785df63caf0ffbee3c5ce818c99383b06fb47bc85c40da08fa60c46ffa3b9922",
        "report/curve_mixed.csv":
            "bc104f6b9d827625fc2732899b3696cc156d2babf821ec296cb034694a2d4312",
        "report/curve_o2o_reg.csv":
            "229a9871749b06447357b915962e9546a83d2be78ea51e2760d314e472f76bb3",
        "report/curve_replay.csv":
            "06a0526fa2db20bb4c2dc79481ef8135af414cd33dffff5360f8b4c2f1f5e319",
        "report/curve_replay_reset.csv":
            "159b23277fd54374351b524ebe03288d4622c9f3f36584d9351e9a07b69a79b0",
        "report/curve_warmup.csv":
            "2f7c6d3ce697ac064707d58303bffc5116f50c6bc3b0a859b2b66f2869753bf8",
        "report/summary.csv":
            "d653b89c2bb4d6f642dc550dc904f134a0f98c1a6260e29c5c0943220a1cc17c",
    },
}


def golden_config(pretrain_kind: str) -> runner.ExperimentConfig:
    return runner.ExperimentConfig.from_dict({
        "setting": f"golden-{pretrain_kind}",
        "env": {"kind": "point_goal_dense", "horizon": 30},
        "behavior": [
            {"kind": "noisy_expert", "sigma": 0.3, "n_traj": 4},
            {"kind": "uniform_random", "n_traj": 2},
        ],
        "pretrain": {"kind": pretrain_kind, "steps": 40, "beta": 0.4},
        "agent": {"hidden": [8, 8], "batch": 16},
        "methods": ["baseline", "warmup", "o2o_reg", "replay", "replay_reset", "mixed"],
        "seeds": [0, 1],
        "finetune": {
            "total_env_steps": 60,
            "warmup_steps": 20,
            "eval_every": 10,
            "eval_episodes": 2,
        },
        "reference_episodes": 6,
        "last_k": 3,
        "out_dir": OUT_DIR,
    })


@contextlib.contextmanager
def working_dir(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def run_in(workdir: Path, pretrain_kind: str) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    with working_dir(workdir):
        runner.run_pipeline(golden_config(pretrain_kind))
    return workdir / OUT_DIR


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def digested(root: Path) -> dict[str, str]:
    patterns = (
        "dataset.jsonl",
        "pretrain/eval.json",
        "classify.json",
        "finetune/*/seed_*.csv",
        "report/*",
    )
    files = sorted({p for pattern in patterns for p in root.glob(pattern)})
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden")
    return {kind: run_in(base / kind, kind) for kind in GOLDEN}


@pytest.mark.parametrize("pretrain_kind", sorted(GOLDEN))
def test_pipeline_artifacts_match_golden_digests(pipelines, pretrain_kind):
    got = digested(pipelines[pretrain_kind])
    assert got == GOLDEN[pretrain_kind]


def test_identical_runs_give_identical_trees(pipelines, tmp_path):
    first = tree_bytes(pipelines["offline_rl"])
    second = tree_bytes(run_in(tmp_path / "again", "offline_rl"))
    assert sorted(first) == sorted(second)
    differing = [name for name in first if first[name] != second[name]]
    assert differing == []
