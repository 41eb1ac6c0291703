"""Pinned artifacts of tiny full pipelines.

Each pipeline runs in its own working directory with a relative ``out_dir``.
No artifact key covers ``out_dir``, so the artifacts do not depend on where
the test runs. The digests of the CSV files were recorded from the reference
implementation; a refactor of the numerical code must reproduce them bit
for bit. ``dataset/manifest.json``, ``pretrain/eval.json``, ``classify.json``
and ``report/analysis.json`` also carry provenance (the artifact's input
key, or none for the analysis), so their digests change whenever that
provenance does; their other content matches the reference. The dataset's
column files (``dataset/*.npy``) hold the same float64 values as the
reference's JSON-lines dataset, bit for bit. The digests assume IEEE
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

# sha256 of the dataset files, which both pretrainers share
DATASET = {
    "dataset/action.npy":
        "71f74f72562aca44922f2f5182e6f3df2d02e2807f45c8dff7d321e304f2cfce",
    "dataset/manifest.json":
        "6df5e695ed9580f4d9502ee132b261d3b0d5bcb52cd063a72c7f50dbe371334c",
    "dataset/next_obs.npy":
        "d9f7ff1af9e2a2a591ebaea442b115d78103ca3b75a891661fa1d73301406a07",
    "dataset/obs.npy":
        "dccb55ec9e1aa6fb2412907e2159093e0714d4a3db70ef8949f26fa40f5ca7fa",
    "dataset/offsets.npy":
        "fc43e7facd10700a010ec49f4c5bbabd3794941d6c784679092e745d512befc1",
    "dataset/reward.npy":
        "c79c4014b44f8d911b350d50f79471932bb5a9d849aaade435cbce7e22ee9f33",
    "dataset/terminated.npy":
        "b1c3780a932ce84024eb4ffcfaea14d01b9f3ae2e574a18232ac15d6d712e42f",
    "dataset/truncated.npy":
        "7d6dee41c94bd905124ac4dced76923a7b64a8073a5dd56c7406b1f111c052b8",
}

# sha256 of every digested artifact, by pretrainer and path under out_dir
GOLDEN = {
    "offline_rl": {
        **DATASET,
        "classify.json":
            "69791ca068f623a11429a69aba10252b26fa3ae9b3cbe3340e06a5b4a3538fff",
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
            "31872165a711935886becdb2cb25f4a927257f8267a4f0dcaead68a41d3a8cca",
        "report/curve_baseline.csv":
            "4716ad17b23b2622417beafbcb15ad26f68428fe721120ccd13c903a291b7f42",
        "report/curve_mixed.csv":
            "6489922d6d19c9546aa9502908f76aea21a098d5f3b6ce0f4e82fcbc30d29e4a",
        "report/curve_o2o_reg.csv":
            "fd40c69230869c1bd6ed4d123732e5c448b954116d5364d943303e16a380f2b1",
        "report/curve_replay.csv":
            "1678363eadb16c0b090fdfc1e49ff4454910a6d45cc06e34bd7fdbb86b454e72",
        "report/curve_replay_reset.csv":
            "c54bb04686778a08d11b5480af140feb0e0966c0c9f52d7253a1021edfd58206",
        "report/curve_warmup.csv":
            "f71db75d9e003acebc8f8f9e036eee4a65d9d0d4efbfb2aefc178a4226aa9b5d",
        "report/summary.csv":
            "e4b57bffa3a3c1343f96d419feea931ba62db1667e88269e8c7bac36f1f8510d",
    },
    "bc_fqe": {
        **DATASET,
        "classify.json":
            "4484bb9bd2c187b2e8d1ad10f0667d2886093be98f776f4aabd8dc70838297e1",
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
            "3ca9d064bc0857258a58e45d3e4ab47ee94a7c3749f8932b7608ba1088bd51c3",
        "report/curve_baseline.csv":
            "d654ecb0addecb7db8ca8dbc15c26b1beb86cbed02f74a957edf6995f8db90b3",
        "report/curve_mixed.csv":
            "779ad4b0cbf526d7a37d053911ce6d4111e589e9fbc4fb23cdaa216a1174f4a5",
        "report/curve_o2o_reg.csv":
            "920191600bad27b30619bd2f7db182cdd9dcfe3b832e84f53d13d92e2d2d46e4",
        "report/curve_replay.csv":
            "17671287b5f064ee22d2e8eecf81a0c6363e61771fb230adcf37eb1a3dc30d58",
        "report/curve_replay_reset.csv":
            "c54bb04686778a08d11b5480af140feb0e0966c0c9f52d7253a1021edfd58206",
        "report/curve_warmup.csv":
            "7ff14c66c03dbde19e15c1e849a7c0766bccc53a6a252e6ec696012aa85f330d",
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
        "dataset/*",
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
