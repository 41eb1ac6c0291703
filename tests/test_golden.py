"""Pinned artifacts of tiny full pipelines.

Each pipeline runs in its own working directory with a relative ``out_dir``.
No artifact key covers ``out_dir``, so the artifacts do not depend on where
the test runs. The digests of the CSV files were recorded from the reference
implementation; a refactor of the numerical code must reproduce them bit
for bit. ``dataset/manifest.json``, ``pretrain/eval.json``, ``classify.json``
and ``report/analysis.json`` also carry provenance (the artifact's input
key, or none for the analysis), so their digests change whenever that
provenance does; their other content matches the reference. Each
checkpoint (``pretrain/seed_*/params.npy`` and its ``manifest.json``) and
each run file (``finetune/*/seed_*.json``) is pinned whole. Their digests
were recorded after the run file lost its per-update loss lists and its
copy of the run seed, and the checkpoint manifest its unread ``beta``; every
other byte matched the reference then, ``params.npy`` included. A change to
what a run or a checkpoint records shows up here as a re-pin. The dataset's
column files (``dataset/*.npy``) hold the same float64 values as the
reference's JSON-lines dataset, bit for bit. Two datasets outside the
pipelines are pinned too: a single-behavior ``generate_dataset``, whose
trajectories are seeded apart from the mixed generator's segments, and a
pendulum mixed dataset. The digests assume IEEE
float64 numpy on x86-64 with OpenBLAS; another BLAS build may round matrix
products differently.
"""

import contextlib
import hashlib
import os
from pathlib import Path

import pytest

from o2olab import runner
from o2olab.data import generate_dataset, generate_mixed_dataset, save_dataset
from o2olab.envs import BehaviorSpec, compute_reference_scores, env_spec

from pipeline_helpers import run_pipeline

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
        "finetune/baseline/seed_0.json":
            "2744283fb95ee1cf0fa770bf681d28bf98ec94a13d62fcf3ea6c8a28b1745c8c",
        "finetune/baseline/seed_1.csv":
            "9d4db13f408fdecdab241219610d11d0f5678ebad35fd607ceb8bff8617749bd",
        "finetune/baseline/seed_1.json":
            "338d368dfee82d3a860108033f01be059fa97fde484302846b434056241470ef",
        "finetune/mixed/seed_0.csv":
            "cc612856ae619416266da493f16b34d92d282010903421c7661e54aa5ff808c5",
        "finetune/mixed/seed_0.json":
            "44e646bc6fbf9a0cf0435691ec14b4b11d0321001726bb59d020c342362018d0",
        "finetune/mixed/seed_1.csv":
            "b0f34894a82cdcae86d07562c3b2688090b1289b8557a23aee00980f2034bbb0",
        "finetune/mixed/seed_1.json":
            "0468810b2517a1646b2160934f65972882e5494654ab1ccc0a364e3687ccb4d0",
        "finetune/o2o_reg/seed_0.csv":
            "3262fde973a40cc243898b55aa8e6e2b32c166c248056e370cff8428107b75b4",
        "finetune/o2o_reg/seed_0.json":
            "0621b7f3133f4ac6f25c89cb5509b1e7384d81d30be89c3a9d3c170a93c53af2",
        "finetune/o2o_reg/seed_1.csv":
            "4e15a9ad21f808d1e8f3b3def54e064810bd1ae72bd9adcc3d90ced78c50f9af",
        "finetune/o2o_reg/seed_1.json":
            "6f1cf1ad1e6b1124a551adcc71bb052b30935669f187c1c6ee673427400601c3",
        "finetune/replay/seed_0.csv":
            "5e455bfbd7b85683546613b6d5d9d01fccc9e9c2a13cc504846d9bd4944aa4c7",
        "finetune/replay/seed_0.json":
            "75293e4022de79c6c7e93bf50fd3fa6c347dfce811accb385d046b29edab03e4",
        "finetune/replay/seed_1.csv":
            "a3fae70f69ac8b0252f04e0ee0764ffa8e42937c8deecc5298f3d3f755c646a6",
        "finetune/replay/seed_1.json":
            "3d29deb7ff821b41187324dfb3f09912daef05443a085360e668a9bf782eadb6",
        "finetune/replay_reset/seed_0.csv":
            "8f1920836160610e51dedcd538a5ba02c8ad1aae7fd8e4cce7002341b4c3c8cb",
        "finetune/replay_reset/seed_0.json":
            "97dc953394e34666172095448281cf05edf671ddb0b51e6c638723918b369714",
        "finetune/replay_reset/seed_1.csv":
            "534b562487f606813c442d28d6a1eec5e7393642ef286d0147fc5a78ccdecce6",
        "finetune/replay_reset/seed_1.json":
            "2f84ba73a22475c19f58ed4f298f24113a35c2d1af067f613c63b3b6f62c64fe",
        "finetune/warmup/seed_0.csv":
            "b3225fc231c0357da785228ba5a6310062d5a75fd799887aa4fb6b756aaaa9fb",
        "finetune/warmup/seed_0.json":
            "98551123f13f0d14f00c7d35f201ae7a4c82c0a21f44dee9fbf765e044585397",
        "finetune/warmup/seed_1.csv":
            "8202937c32a1e857fa108481e4a29aa3ca8a4e42155741f8b5f689c34b6a7c7d",
        "finetune/warmup/seed_1.json":
            "1c902632ad8fb58ae9234f8b5fe842369f179fa20895a6137fedd1cfc9af101a",
        "pretrain/eval.json":
            "887237fc581ff3c5da4dc36f6ee143ae68a310ca182950641fe481074c1ec9be",
        "pretrain/seed_0/manifest.json":
            "02f3483bf317b29a7c7df5e85601a150099d32653b0c15ebcb6dd638a0890043",
        "pretrain/seed_0/params.npy":
            "21036144d3c2e1a4e3195c4e301d47b7b930d597c3271874589e65e31a0d24e4",
        "pretrain/seed_1/manifest.json":
            "706d7b2a9b7782fe1bb0772d383379cf2b0bdf18fce3e83cb4333ac264fda940",
        "pretrain/seed_1/params.npy":
            "8d7b85423117adf74d4aff4a115ef997984cb39ceb18bdd0e3c05a46781fa852",
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
        "finetune/baseline/seed_0.json":
            "707ef5b1f442e49ff30212e8d666070397224939f1fd771477281c4ce29b91a5",
        "finetune/baseline/seed_1.csv":
            "aa4925d840c92bef2b908489d04b633bef291ec80fc1c44db8244bca59594986",
        "finetune/baseline/seed_1.json":
            "64a79269d3ff1d69566feb81db76586cf93995438e642b20eca44a16e1f60f49",
        "finetune/mixed/seed_0.csv":
            "eae756173873c13f1db4341bb412f6b5bb5d376f2c95982178ca5a0397cf6e70",
        "finetune/mixed/seed_0.json":
            "09e7e7297f3c6d29daadfefdedb1ef5112834bd7b89fe1a33cc4143ba19fb1b0",
        "finetune/mixed/seed_1.csv":
            "abafb3b566b3e2dd4c5208e63188414815fc09877c006f517460cd6bbe4473d4",
        "finetune/mixed/seed_1.json":
            "143af8443f2cec8d42a0b7a03fe975ee965d72ce1161a494f2c109d1d4a70d77",
        "finetune/o2o_reg/seed_0.csv":
            "edc9e0689ebc3d0507ea69c725d81035454d28c1b3cf024d9424418ac90cae65",
        "finetune/o2o_reg/seed_0.json":
            "f3ce3895fc848b7e7b2487b19037c09d8825cc46404bb624286678a1992d610e",
        "finetune/o2o_reg/seed_1.csv":
            "e1623c2e916572165d5cd84422810ffd4555854d0ad984ecd42959a9a74b21da",
        "finetune/o2o_reg/seed_1.json":
            "1b0274943f7be2f2f1716e6fb6657dd788ab4d711b88793ef114e24babb2db4c",
        "finetune/replay/seed_0.csv":
            "69978057839fca552042e31428a2157f85122709bab385cc1a85a4a2d6ac7524",
        "finetune/replay/seed_0.json":
            "424a1e0fdb8f200b22b1e6efb0252b992c2f66b2866a8b8d93b24928b51f29b9",
        "finetune/replay/seed_1.csv":
            "1269b7b338906849fb1ee17dee5380c788277e9f417a6b3899ea117aa2ef12a9",
        "finetune/replay/seed_1.json":
            "912857397806de8fb5c6a735532b5a2b753ed63a392946bbec8affb8653091f5",
        "finetune/replay_reset/seed_0.csv":
            "8f1920836160610e51dedcd538a5ba02c8ad1aae7fd8e4cce7002341b4c3c8cb",
        "finetune/replay_reset/seed_0.json":
            "f5ec32a52b28376c6b382d321bf25d6ce2764e713ece286419fd194580957629",
        "finetune/replay_reset/seed_1.csv":
            "534b562487f606813c442d28d6a1eec5e7393642ef286d0147fc5a78ccdecce6",
        "finetune/replay_reset/seed_1.json":
            "3a2015e94e5d9a0c721169f1242782ac06f4274d63fb5bdb8e1d02909697c8d0",
        "finetune/warmup/seed_0.csv":
            "eb9e82ffd1a6bbb2090d9986481431114db6d5e592f5c3c59a17c11893db2f0b",
        "finetune/warmup/seed_0.json":
            "ae60a51f875575e2e2a278e1b6f9f1f524c2b11badfe8cc2e86ad32a52f7808f",
        "finetune/warmup/seed_1.csv":
            "d32513a86217908deee95f3be8e710675abd2899a679754adad96df4e524375e",
        "finetune/warmup/seed_1.json":
            "a1d8e8b00ce2ff7dd33292ccab297899d3169a5a97255a8c701fd8147d838c86",
        "pretrain/eval.json":
            "0cdb6a959f73bdfe58a81cf1e0c0732ab2a85b65bf7343f0b1183cb29cb88133",
        "pretrain/seed_0/manifest.json":
            "1e3e328aef96a0e8f87eb14ce0522838d6456c32ea8f2d295a2cf019d4c90858",
        "pretrain/seed_0/params.npy":
            "a127b1e034fcc5538a9b40504fa6856227cea85b6c9483674cc606770441de22",
        "pretrain/seed_1/manifest.json":
            "149607db468244927459af4717a1e2969430ebd2f6f6d69e4c1eaaa5381a8403",
        "pretrain/seed_1/params.npy":
            "138696b35f1c2dba8b75828a1aed713f954b726b59f04f23e143b4ab03f988a9",
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


# sha256 of the saved files of datasets generated outside a pipeline
SINGLE_BEHAVIOR_DATASET = {
    "action.npy": "4d111036531d3cc8d597de43c1cc20614baca1039fa3001c4698c89cc06ec5c3",
    "manifest.json": "f7248517a67018f6c2338b68c30e4ce1173e5244d470159f8b799513513aba39",
    "next_obs.npy": "cdf185f0b6e93f7aae1eb02b144293ffb46cca79c7b32da5c1688f3cfd747bd8",
    "obs.npy": "3d8bf0a37247144064f6bb01e5f4d51009dea16bc59d8d1e56baf1f0307ca6a9",
    "offsets.npy": "74cc02886db6ce82dc398a594b4aaeb80ae1a41d738eb63015b7c1c6001b8aad",
    "reward.npy": "4493f282dbe7a2d0bde94ed418fa04a150d16d1edfd84d4a6aab53d4cb3bd903",
    "terminated.npy": "da7f0fbaa0c6fe0d7cf417a9f9f52270473e9d98432d118856089aac146c417f",
    "truncated.npy": "553a9c185c475d715a856c7cf25b199c1e9af79ca1fa311970e0f735d20bef71",
}
PENDULUM_MIXED_DATASET = {
    "action.npy": "249233abf448045129f4cb47e4506140ccba52b79eb3ff50e51961bcc0f22574",
    "manifest.json": "0d4186c5a6f927f470803cdac7c7c8ffb4f155d0e17a77dddd441749ea09bafb",
    "next_obs.npy": "881c662d3bd67eb825e97fd34cf5089525c9c9c734597534663892cb5cd9c7e3",
    "obs.npy": "d7af5f167be16d61f7a11607ab17a64ecd81db18159ec55b04575bd73ae01881",
    "offsets.npy": "58dfca7998f2f9632cde8e4bcfe26cc7cbc5891b5f8434a851cf0c96cf1d9ed4",
    "reward.npy": "5d45550b359b5340e90540057b9becf2b0a7d41f800b5d5683557a9173a1a484",
    "terminated.npy": "4bdd479f6226d384635a9f74e5a66245fe24aa78f042319c2e6582565f6932a9",
    "truncated.npy": "9e3a8dcfe7f508cc01cb55023ec28e343f3af8f0e88768e6594a3980cc06b807",
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
        run_pipeline(golden_config(pretrain_kind))
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
        "pretrain/seed_*/*",
        "pretrain/eval.json",
        "classify.json",
        "finetune/*/seed_*",
        "report/*",
    )
    files = sorted({p for pattern in patterns for p in root.glob(pattern)})
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }


def saved_digests(dataset, directory: Path) -> dict[str, str]:
    save_dataset(dataset, directory)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
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


def test_single_behavior_dataset_matches_golden_digests(tmp_path):
    # variable-length trajectories: the dense goal ends some episodes early
    spec = env_spec("point_goal_dense", 30)
    reference = compute_reference_scores(spec, seed=3, episodes=4)
    dataset = generate_dataset(
        spec, BehaviorSpec("noisy_expert", sigma=0.3), 5, seed=11, reference=reference
    )
    assert dataset.offsets.tolist() == [0, 22, 43, 50, 75, 82]
    assert saved_digests(dataset, tmp_path / "ds") == SINGLE_BEHAVIOR_DATASET


def test_pendulum_mixed_dataset_matches_golden_digests(tmp_path):
    spec = env_spec("pendulum", 40)
    reference = compute_reference_scores(spec, seed=5, episodes=3)
    segments = [
        (BehaviorSpec("expert"), 3),
        (BehaviorSpec("epsilon_mixture", epsilon=0.3), 2),
        (BehaviorSpec("uniform_random"), 2),
    ]
    dataset = generate_mixed_dataset(spec, segments, seed=13, reference=reference)
    assert saved_digests(dataset, tmp_path / "ds") == PENDULUM_MIXED_DATASET
