"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The criteria are numbered 1-7, 9 and 12; numbers 8, 10 and 11 are unused.
Criterion 12 drives two full pipelines into different output directories
and requires byte-identical analysis JSON. Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines as
they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats as sps

from o2olab import nn, runner
from o2olab.agents import Td3Hyper, make_td3_agent, policy_fn, reset_parameters
from o2olab.data import MixedSampler, ReplayBuffer, generate_dataset
from o2olab.envs import BehaviorSpec, compute_reference_scores, env_spec, evaluate_policy
from o2olab.finetune import FinetuneConfig, run_finetune
from o2olab.metrics import (
    COMPARABLE,
    INCONCLUSIVE,
    INFERIOR,
    SUPERIOR,
    ConfusionMatrix,
    EvalPoint,
    SampleStats,
    decompose,
    plasticity,
    stability,
    student_t_cdf,
    tost_classify,
    welch_two_sided,
)

from metrics_helpers import identity_residual
from pipeline_helpers import run_pipeline
from test_nn import assert_grads_close, finite_difference_grads, param_grad


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL - {description}")
        raise
    print(f"[criterion {number:2d}] PASS - {description}")


# --- 1: gradient correctness ---


def test_criterion_1_gradient_correctness():
    with criterion(1, "analytic gradients match finite differences on 50 nets"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n_layers = int(rng.integers(1, 4))  # up to 3 weight layers
            sizes = tuple(int(s) for s in rng.integers(1, 17, size=n_layers + 1))
            hidden = "tanh" if rng.random() < 0.5 else "relu"
            output = "tanh" if rng.random() < 0.5 else "linear"
            net = nn.init_net(sizes, hidden, output, seed=int(rng.integers(1 << 30)))
            x = rng.normal(size=(3, sizes[0]))
            g = rng.normal(size=(3, sizes[-1]))
            assert_grads_close(
                param_grad(net, x, g), finite_difference_grads(net, x, g), rel=1e-4
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# --- 2: decomposition identity ---


def test_criterion_2_decomposition_identity():
    with criterion(2, "knowledge decomposition identity < 1e-12 on 1000 curves"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            means = rng.uniform(-1.5, 1.5, size=n)
            curve = [EvalPoint(i, float(m), [float(m)]) for i, m in enumerate(means)]
            d = decompose(curve, j_data=float(rng.uniform(-1.5, 1.5)))
            assert identity_residual(d) < 1e-12
        assert time.perf_counter() - start < 1.0


# --- 3: metric spot values ---


def test_criterion_3_metric_spot_values():
    with criterion(3, "stability/plasticity spot values on (0.5, 0.3, 0.7)"):
        values = [0.5, 0.3, 0.7]
        assert stability(values, 0.5) == 0.3 - 0.5  # exact float form of -0.2
        assert plasticity(values) == 0.7 - 0.3  # exact float form of 0.4
        assert abs(stability(values, 0.5) - (-0.2)) < 1e-15
        assert abs(plasticity(values) - 0.4) < 1e-15


# --- 4: statistics oracle ---


def test_criterion_4_statistics_oracle():
    with criterion(4, "Welch/t-CDF/TOST match the scipy reference on 50 cases"):
        assert abs(student_t_cdf(2.042, 30) - 0.975) < 1e-3
        rng = np.random.default_rng(99)
        for _ in range(50):
            a = SampleStats(
                rng.uniform(0, 1), rng.uniform(0.001, 0.4), int(rng.integers(2, 40))
            )
            b = SampleStats(
                rng.uniform(0, 1), rng.uniform(0.001, 0.4), int(rng.integers(2, 400))
            )
            mine = welch_two_sided(a, b)
            ref = sps.ttest_ind_from_stats(
                a.mean, a.std, a.n, b.mean, b.std, b.n, equal_var=False
            )
            assert abs(mine["p"] - ref.pvalue) < 1e-3
            assert abs(student_t_cdf(mine["t"], mine["dof"]) - sps.t.cdf(mine["t"], mine["dof"])) < 1e-3

            label = tost_classify(a, b, delta=0.05, alpha=0.05)
            pl = sps.ttest_ind_from_stats(
                a.mean, a.std, a.n, b.mean - 0.05, b.std, b.n,
                equal_var=False, alternative="greater",
            ).pvalue
            pu = sps.ttest_ind_from_stats(
                a.mean, a.std, a.n, b.mean + 0.05, b.std, b.n,
                equal_var=False, alternative="less",
            ).pvalue
            rl, ru = pl < 0.05, pu < 0.05
            if rl and ru:
                expect = COMPARABLE
            elif rl or ru:
                expect = SUPERIOR if a.mean > b.mean else INFERIOR
            else:
                expect = INCONCLUSIVE
            assert label.label == expect
            assert abs(label.p_lower - pl) < 1e-3 and abs(label.p_upper - pu) < 1e-3


# --- 5: published sign checks ---


def test_criterion_5_sign_checks():
    with criterion(5, "regime signs on the published score pairs"):
        sup = tost_classify(SampleStats(0.451, 0.002, 10), SampleStats(0.271, 0.135, 202))
        assert sup.label == SUPERIOR
        inf = tost_classify(SampleStats(0.657, 0.059, 10), SampleStats(1.000, 0.000, 846))
        assert inf.label == INFERIOR


# --- 6: mixed-sampler exactness ---


def test_criterion_6_mixed_sampler_exactness():
    with criterion(6, "alpha=0.5 batches of 256 hold exactly 128 offline draws"):
        off = ReplayBuffer(300, 2, 1)
        on = ReplayBuffer(300, 2, 1)
        obs = np.random.default_rng(0).normal(size=(300, 2))
        no_action, not_terminal = np.zeros((300, 1)), np.zeros(300, dtype=bool)
        off.push(obs, no_action, np.ones(300), obs, not_terminal)
        on.push(obs, no_action, np.zeros(300), obs, not_terminal)
        sampler = MixedSampler(off, on, alpha=0.5)
        rng = np.random.default_rng(123)
        for _ in range(10_000):
            batch = sampler.sample(256, rng)
            assert int(batch.reward.sum()) == 128


# --- 7: warm-up contract ---


def test_criterion_7_warmup_contract(tmp_path):
    with criterion(7, "K=500 warm-up: first update at step 501 with 500 banked"):
        spec = env_spec("point_goal_dense", horizon=50)
        ref = compute_reference_scores(spec, seed=0, episodes=10)
        dataset = generate_dataset(spec, BehaviorSpec("expert"), 1, seed=0, reference=ref)
        hyper = Td3Hyper(hidden=(8, 8), batch=64)
        first_sample_sizes = []

        import o2olab.finetune as ft

        class RecordingBuffer(ReplayBuffer):
            def sample(self, batch, rng):
                first_sample_sizes.append(self.size)
                return super().sample(batch, rng)

        original = ft.ReplayBuffer
        ft.ReplayBuffer = RecordingBuffer
        try:
            for total, expected_updates in ((500, 0), (501, 1), (520, 20)):
                first_sample_sizes.clear()
                config = FinetuneConfig(
                    method="warmup", total_env_steps=total, warmup_steps=500,
                    eval_every=total, eval_episodes=1,
                )
                agent = make_td3_agent(spec.obs_dim, spec.action_dim, hyper, seed=0)
                [log] = run_finetune(dataset, [agent], config, [1])
                assert log.counters["updates"] == expected_updates, total
                if expected_updates:
                    assert first_sample_sizes[0] == 500  # buffer size at first update
        finally:
            ft.ReplayBuffer = original
        # paper-scale K is a valid setting: constructing the config checks it
        FinetuneConfig(method="warmup", warmup_steps=5000, total_env_steps=50_000)


# --- 9: confusion-matrix arithmetic ---


def test_criterion_9_confusion_matrix_arithmetic():
    with criterion(9, "published confusion counts give 45/63 and 3/63"):
        m = ConfusionMatrix.from_counts([[24, 2, 1], [6, 2, 3], [2, 4, 19]])
        assert m.correct == 45 and m.total == 63
        assert abs(m.accuracy - 45 / 63) < 1e-12
        assert m.opposite == 3
        assert abs(m.opposite_rate - 3 / 63) < 1e-12


# --- 12: pipeline determinism ---


def test_criterion_12_pipeline_determinism(tmp_path):
    with criterion(12, "two identical pipeline runs emit identical analysis JSON"):
        texts = []
        for name in ("first", "second"):
            config = runner.ExperimentConfig.from_dict({
                "setting": "determinism-probe",
                "env": {"kind": "point_goal_dense", "horizon": 30},
                "behavior": [
                    {"kind": "noisy_expert", "sigma": 0.3, "n_traj": 4},
                    {"kind": "uniform_random", "n_traj": 2},
                ],
                "pretrain": {"kind": "offline_rl", "steps": 50, "beta": 0.4},
                "agent": {"hidden": [8, 8], "batch": 16},
                "methods": ["baseline", "replay"],
                "seeds": [0, 1],
                "finetune": {
                    "total_env_steps": 100,
                    "warmup_steps": 20,
                    "eval_every": 10,
                    "eval_episodes": 2,
                },
                "reference_episodes": 8,
                "out_dir": str(tmp_path / name),
            })
            run_pipeline(config, jobs=2)
            texts.append(runner.Paths(config).analysis.read_text())
        assert texts[0] == texts[1]
