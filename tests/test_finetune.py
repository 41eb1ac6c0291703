import copy

import numpy as np
import pytest

from o2olab.agents import Td3Hyper, make_td3_agent
from o2olab.data import ReplayBuffer, dataset_return, generate_dataset
from o2olab.envs import BehaviorSpec, compute_reference_scores, env_spec, evaluate_policy
from o2olab.errors import ConfigError
from o2olab import nn
from o2olab.finetune import (
    ALL_METHODS,
    LOCKSTEP_MAX_RUNS,
    FinetuneConfig,
    RunLog,
    eval_seed_for,
    last_k_eval_stat,
    lockstep_runs,
    run_finetune,
    update_class,
)
from o2olab.agents import policy_fn, reset_parameters
from o2olab.metrics import EvalPoint
from o2olab.seeding import stable_seed

from metrics_helpers import validate_curve
from test_data import assert_same_dataset

HYPER = Td3Hyper(hidden=(8, 8), batch=32)
SPEC = env_spec("point_goal_dense", horizon=40)


@pytest.fixture(scope="module")
def reference():
    return compute_reference_scores(SPEC, seed=0, episodes=20)


@pytest.fixture(scope="module")
def dataset(reference):
    return generate_dataset(SPEC, BehaviorSpec("noisy_expert", sigma=0.3), 10, seed=1,
                            reference=reference)


def small_config(**overrides):
    base = dict(
        total_env_steps=200,
        warmup_steps=60,
        eval_every=50,
        eval_episodes=3,
        beta=0.4,
    )
    base.update(overrides)
    return FinetuneConfig(**base)


def fresh_agent(seed=0):
    return make_td3_agent(SPEC.obs_dim, SPEC.action_dim, HYPER, seed=seed)


def run(method, dataset, seed=5, **overrides):
    [log] = run_finetune(dataset, [fresh_agent()], [method], small_config(**overrides), [seed])
    return log


# --- config validation ---


def test_config_validation():
    # a FinetuneConfig that exists is valid: construction runs the checks;
    # a method is checked where its schedule is built
    with pytest.raises(ConfigError, match="unknown method 'nope'"):
        update_class("nope", small_config(), HYPER, (0, 0, 0))
    with pytest.raises(ConfigError):
        small_config(warmup_steps=1000)
    with pytest.raises(ConfigError):
        small_config(alpha=2.0)
    for method in ("o2o_reg", "mixed"):
        with pytest.raises(ConfigError, match=f"method '{method}' needs beta"):
            update_class(method, small_config(beta=None), HYPER, (0, 0, 0))
    update_class("baseline", small_config(beta=None), HYPER, (0, 0, 0))


# --- warm-up and UTD accounting ---


def test_warmup_contract(dataset):
    # first update at step K+1 with exactly K transitions banked
    config = small_config(warmup_steps=60, total_env_steps=120)
    [log] = run_finetune(dataset, [fresh_agent()], ["warmup"], config, [2])
    assert log.counters["updates"] == 120 - 60
    assert log.counters["env_steps"] == 120


def test_utd_accounting_baseline(dataset):
    log = run(method="baseline", dataset=dataset, total_env_steps=150)
    # start delay is the batch fill (batch=32)
    assert log.counters["updates"] == 150 - 32


def test_utd_accounting_scales(dataset):
    log = run(method="baseline", dataset=dataset, total_env_steps=100, utd=3)
    assert log.counters["updates"] == 3 * (100 - 32)


def test_zero_updates_before_warmup_end(dataset):
    config = small_config(warmup_steps=150, total_env_steps=150)
    [log] = run_finetune(dataset, [fresh_agent()], ["warmup"], config, [2])
    assert log.counters["updates"] == 0


# --- eval curve semantics ---


def test_eval_schedule_and_step0(dataset):
    log = run(method="baseline", dataset=dataset, total_env_steps=200, eval_every=50)
    steps = [p.step for p in log.eval_curve]
    assert steps == [0, 50, 100, 150, 200]
    validate_curve(log.eval_curve)


def test_step0_matches_independent_evaluation(dataset):
    seed = 11
    agent = fresh_agent(3)
    frozen = copy.deepcopy(agent)
    config = small_config()
    [log] = run_finetune(dataset, [agent], ["baseline"], config, [seed])
    [independent] = evaluate_policy(
        policy_fn(frozen.actor), SPEC, dataset.reference, config.eval_episodes,
        [eval_seed_for(seed, 0)],
    )
    assert log.eval_curve[0].per_episode == independent.per_episode
    assert log.eval_curve[0].mean == independent.mean


def test_run_deterministic(dataset):
    curves = []
    for _ in range(2):
        log = run(method="replay", dataset=dataset, seed=9)
        curves.append([(p.step, p.mean, tuple(p.per_episode)) for p in log.eval_curve])
    assert curves[0] == curves[1]


# --- method wiring ---


def test_baseline_never_reads_dataset(dataset):
    log = run(method="baseline", dataset=dataset)
    assert log.counters["dataset_samples"] == 0
    log2 = run(method="o2o_reg", dataset=dataset)
    assert log2.counters["dataset_samples"] == 0


def test_replay_methods_read_dataset(dataset):
    for method in ("replay", "replay_reset", "mixed"):
        log = run(method=method, dataset=dataset)
        assert log.counters["dataset_samples"] > 0, method


def test_dataset_immutable_during_runs(dataset):
    snapshot = copy.deepcopy(dataset)
    run(method="mixed", dataset=dataset)
    assert_same_dataset(dataset, snapshot)
    # the dataset's own buffer holds its float columns, read-only, not copies
    buf = ReplayBuffer.from_dataset(dataset)
    for name in ("obs", "action", "reward", "next_obs"):
        column = getattr(buf, f"_{name}")
        assert np.shares_memory(column, getattr(dataset, name)), name
        assert not column.flags.writeable, name
    assert buf._terminated.dtype == np.float64
    assert np.array_equal(buf._terminated, dataset.terminated)
    rows = (dataset.obs, dataset.action, dataset.reward, dataset.next_obs, dataset.terminated)
    with pytest.raises(ValueError, match="no room for 1 more"):  # it is full, too
        buf.push(*(column[None, :1] for column in rows))
    assert_same_dataset(dataset, snapshot)
    # it draws the batches of a buffer that copied the rows, bit for bit
    copied = ReplayBuffer(dataset.n_transitions, SPEC.obs_dim, SPEC.action_dim)
    copied.push(*(column[None] for column in rows))
    got = buf.sample(64, [np.random.default_rng(4)])
    want = copied.sample(64, [np.random.default_rng(4)])
    for name, column in vars(got).items():
        assert column.dtype == np.float64 and np.array_equal(column, getattr(want, name)), name


def test_replay_reset_degrades_step0(dataset):
    agent = fresh_agent(0)
    # make the incoming agent meaningfully trained (pretend-pretrained): use
    # the expert-ish dataset policy instead; here we just check that reset
    # replaces parameters, so step-0 differs from the incoming agent's score
    frozen = copy.deepcopy(agent)
    seed = 21
    config = small_config()
    [log] = run_finetune(dataset, [agent], ["replay_reset"], config, [seed])
    [incoming] = evaluate_policy(
        policy_fn(frozen.actor), SPEC, dataset.reference, config.eval_episodes,
        [eval_seed_for(seed, 0)],
    )
    # the reset agent is a different random net; bit-equality would be a fluke
    assert log.eval_curve[0].per_episode != incoming.per_episode


def test_replay_batches_split_exactly_at_full_scale(dataset):
    # alpha=0.5 with the production batch size: every batch drawn during a
    # replay run holds exactly 128 dataset transitions
    import o2olab.finetune as ft
    from o2olab.data import MixedSampler

    offline_counts = []

    class CountingSampler(MixedSampler):
        def sample(self, batch, rng):
            offline_counts.append((self.offline_count(batch), batch))
            return super().sample(batch, rng)

    agent = make_td3_agent(SPEC.obs_dim, SPEC.action_dim,
                           Td3Hyper(hidden=(8, 8), batch=256), seed=0)
    config = small_config(total_env_steps=280, eval_every=140, eval_episodes=1)
    original = ft.MixedSampler
    ft.MixedSampler = CountingSampler
    try:
        [log] = run_finetune(dataset, [agent], ["replay"], config, [3])
    finally:
        ft.MixedSampler = original
    assert log.counters["updates"] == 280 - 256
    assert offline_counts and all(c == (128, 256) for c in offline_counts)


# --- lockstep groups ---


def test_a_group_lets_go_of_the_agents_it_copied(dataset):
    agents = [fresh_agent(0), fresh_agent(1)]
    logs = run_finetune(dataset, agents, ["baseline"] * 2, small_config(total_env_steps=60),
                        [5, 6])
    assert agents == [] and [log.seed for log in logs] == [5, 6]


def test_lockstep_groups_only_small_nets():
    point, pendulum = env_spec("point_goal_dense"), env_spec("pendulum")
    assert lockstep_runs(Td3Hyper(hidden=(8, 8), batch=16), point) == LOCKSTEP_MAX_RUNS
    assert lockstep_runs(Td3Hyper(hidden=(32, 32), batch=64), point) == LOCKSTEP_MAX_RUNS
    assert lockstep_runs(Td3Hyper(hidden=(64, 64), batch=64), point) == LOCKSTEP_MAX_RUNS
    assert lockstep_runs(Td3Hyper(hidden=(64, 64), batch=256), pendulum) == 2
    assert lockstep_runs(Td3Hyper(hidden=(96, 96), batch=256), pendulum) == 1
    assert lockstep_runs(Td3Hyper(hidden=(128, 128), batch=256), point) == 1


def damaged_agent(seed):
    """A fresh agent whose critic targets overflow, so its first update
    blows up."""
    agent = fresh_agent(seed)
    for w in agent.target_critics.weights[1:]:
        w[:] = 1e200
    return agent


# groups of runs that update alike: no regularizer and the first update at
# the batch fill, replay_reset starting from fresh counters like every fresh
# agent here; and the regularized methods
MIXED_GROUPS = [
    [("baseline", 0, 5), ("replay", 1, 6), ("replay_reset", 2, 7), ("baseline", 3, 8)],
    [("o2o_reg", 0, 5), ("mixed", 1, 6), ("mixed", 2, 7)],
]


@pytest.mark.parametrize("runs", MIXED_GROUPS, ids=["unregularized", "regularized"])
def test_a_mixed_method_group_records_each_run_as_alone(dataset, runs):
    # the last run aborts at its first update, beside the others
    def agents():
        return [fresh_agent(s) if i < len(runs) - 1 else damaged_agent(s)
                for i, (_, s, _) in enumerate(runs)]

    methods = [method for method, _, _ in runs]
    seeds = [seed for _, _, seed in runs]
    logs = assert_each_run_as_alone(dataset, agents, methods, small_config(), seeds)
    assert [log.aborted for log in logs] == [False] * (len(runs) - 1) + [True]
    assert len({log.method for log in logs}) > 1


def assert_each_run_as_alone(dataset, agents, methods, config, seeds):
    """Run the group of ``agents()``, ``methods`` and ``seeds`` under
    ``config``, and check each run's log against that run fine-tuned alone;
    returns the logs."""
    group = run_finetune(dataset, agents(), methods, config, seeds)
    for log, agent, method, seed in zip(group, agents(), methods, seeds):
        [alone] = run_finetune(dataset, [agent], [method], config, [seed])
        assert log.to_dict() == alone.to_dict()
    return group


def test_a_run_whose_episodes_end_early_restarts_its_row_alone(dataset):
    # the middle run steers to the goal, so its episodes end there, each at
    # its own step, while the fresh runs beside it run to the horizon (40);
    # warm-up holds the updates off until step 101, so the rows restart
    # apart before and while the runs update
    from test_agents import steer_to_goal

    def agents():
        return [fresh_agent(0), steer_to_goal(fresh_agent(1)), fresh_agent(2)]

    config = small_config(warmup_steps=100, total_env_steps=160)
    logs = assert_each_run_as_alone(dataset, agents, ["warmup"] * 3, config, [5, 6, 7])
    episodes = [log.counters["episodes_started"] for log in logs]
    assert episodes[0] == episodes[2] == 160 // SPEC.horizon + 1 < episodes[1]


# replaying and plain runs side by side in one online buffer, whose blocks
# fill up to the last step; in the second group a run aborts at its first
# update and its block stays in place
@pytest.mark.parametrize("damaged", [False, True], ids=["all to the end", "an abort"])
def test_a_group_buffer_records_each_run_as_alone(dataset, damaged):
    methods = ["baseline", "replay", "replay", "baseline"]

    def agents():  # the second run's first update (step 33) blows up
        return [damaged_agent(s) if damaged and i == 1 else fresh_agent(s)
                for i, s in enumerate(range(len(methods)))]

    logs = assert_each_run_as_alone(dataset, agents, methods, small_config(), [5, 6, 7, 8])
    assert [log.aborted for log in logs] == [False, damaged, False, False]
    assert logs[2].counters["dataset_samples"] == 200 - HYPER.batch
    if damaged:
        assert logs[1].counters == {"env_steps": HYPER.batch, "updates": 0,
                                    "episodes_started": 1, "dataset_samples": 1}


def test_a_group_refuses_runs_that_update_apart(dataset):
    for other in ("warmup", "o2o_reg"):
        with pytest.raises(ValueError, match="schedule"):
            run_finetune(dataset, [fresh_agent(0), fresh_agent(1)], ["baseline", other],
                         small_config(), [5, 6])


def test_update_classes():
    hyper, counters = HYPER, (60, 30, 60)
    classes = {m: update_class(m, small_config(), hyper, counters) for m in ALL_METHODS}
    assert classes["baseline"] == classes["replay"] != classes["replay_reset"]
    assert classes["o2o_reg"] == classes["mixed"] != classes["baseline"]
    assert classes["warmup"] != classes["baseline"]
    # from a checkpoint with fresh counters, replay_reset updates alike
    fresh = {m: update_class(m, small_config(), hyper, (0, 0, 0)) for m in ALL_METHODS}
    assert fresh["baseline"] == fresh["replay_reset"]
    # warm-up ending at the batch fill starts updating at the same step
    assert update_class("warmup", small_config(warmup_steps=HYPER.batch), hyper,
                        counters) == classes["baseline"]


@pytest.mark.parametrize("methods,warmup_steps,aborted_steps", [
    (["baseline", "replay_reset", "warmup"], HYPER.batch, [0]),
    (["warmup", "warmup", "warmup"], 60, [0, 50]),
])
def test_every_curve_point_scores_its_actor_snapshot(
    dataset, monkeypatch, methods, warmup_steps, aborted_steps
):
    # each point of each run equals evaluate_policy of that run's actor at
    # the point's step, alone: replay_reset's step-0 point is its reset
    # actor's, and the last run, which aborts at its first update, keeps the
    # points before its abort
    import o2olab.finetune as ft

    actors = []  # per env step: the live runs' actors, as act saw them
    real_act = ft.act

    def recording_act(agent, obs, rngs):
        actors.append(agent.actor.params.reshape(agent.runs, -1).copy())
        return real_act(agent, obs, rngs)

    monkeypatch.setattr(ft, "act", recording_act)
    config = small_config(warmup_steps=warmup_steps)
    incoming = [fresh_agent(0), fresh_agent(1), damaged_agent(2)]
    seeds = [5, 6, 7]
    logs = run_finetune(dataset, copy.deepcopy(incoming), methods, config, seeds)
    assert [log.aborted for log in logs] == [False, False, True]
    assert [p.step for p in logs[2].eval_curve] == aborted_steps
    layout = incoming[0].actor
    for r, (log, method, seed) in enumerate(zip(logs, methods, seeds)):
        start = copy.deepcopy(incoming[r])
        if method == "replay_reset":
            reset_parameters(start, seed=stable_seed("reset", seed))
        assert len(log.eval_curve) == (5 if r < 2 else len(aborted_steps))
        for k, point in enumerate(log.eval_curve):
            if point.step == 0:
                actor = start.actor
            else:  # each run keeps its row of the group, an aborted one too
                rows = actors[point.step - 1][r : r + 1].copy()  # a stack of one
                actor = nn.DenseNet(layout.layer_sizes, rows, layout.hidden_activation,
                                    layout.output_activation)
            [alone] = evaluate_policy(policy_fn(actor), SPEC, dataset.reference,
                                      config.eval_episodes, [eval_seed_for(seed, k)])
            assert (point.mean, point.per_episode) == (alone.mean, alone.per_episode)


def poisoned_updates(monkeypatch, schedule):
    """Have the fine-tune loop's k-th update (from 1) find the rows
    ``schedule[k]`` of its group's state NaN, as a blow-up leaves them, so
    that ``td3_update`` reports those runs then and at every later update.
    Returns the list that collects each update's report."""
    import o2olab.finetune as ft

    real, reports = ft.td3_update, []

    def update(group, batch, reg, rngs):
        for row in schedule.get(len(reports) + 1, ()):
            group.state[row] = np.nan
        reports.append(real(group, batch, reg, rngs))
        return reports[-1]

    monkeypatch.setattr(ft, "td3_update", update)
    return reports


def test_runs_that_abort_at_different_updates_each_record_as_alone(dataset, monkeypatch):
    # the first run aborts at update 3 and the third at update 40, beside
    # the second, which runs to the end; each aborted run is reported again
    # at every later update, and each log equals that of its run alone
    methods, config = ["baseline", "replay", "baseline"], small_config()
    seeds, aborts = [5, 6, 7], {0: 3, 2: 40}
    reports = poisoned_updates(monkeypatch, {3: [0], 40: [2]})
    logs = run_finetune(dataset, [fresh_agent(s) for s in range(3)], methods, config, seeds)
    assert [sorted(report) for report in reports[1:4]] == [[], [0], [0]]
    assert [sorted(report) for report in reports[38:41]] == [[0], [0, 2], [0, 2]]
    for r, (log, method, seed) in enumerate(zip(logs, methods, seeds)):
        poisoned_updates(monkeypatch, {aborts[r]: [0]} if r in aborts else {})
        [alone] = run_finetune(dataset, [fresh_agent(r)], [method], config, [seed])
        assert log.to_dict() == alone.to_dict()
    assert [log.aborted for log in logs] == [True, False, True]
    assert [log.counters["updates"] for log in logs] == [2, 200 - HYPER.batch, 39]
    assert [[p.step for p in log.eval_curve] for log in logs] == [
        [0], [0, 50, 100, 150, 200], [0, 50]
    ]


def test_a_group_whose_runs_all_abort_ends_at_the_last_abort(dataset, monkeypatch):
    # no update, env step or curve point follows the last run's abort, and
    # each run records the counters of its own abort, as it would alone
    methods, config = ["baseline", "replay"], small_config()
    reports = poisoned_updates(monkeypatch, {3: [1], 5: [0]})
    logs = run_finetune(dataset, [fresh_agent(0), fresh_agent(1)], methods, config, [5, 6])
    assert len(reports) == 5
    assert [(log.counters["env_steps"], log.counters["updates"]) for log in logs] == [
        (HYPER.batch + 4, 4), (HYPER.batch + 2, 2)
    ]
    assert logs[1].counters["dataset_samples"] == 3  # its two updates and its abort
    for r, (log, method, seed) in enumerate(zip(logs, methods, [5, 6])):
        poisoned_updates(monkeypatch, {(5, 3)[r]: [0]})
        [alone] = run_finetune(dataset, [fresh_agent(r)], [method], config, [seed])
        assert log.to_dict() == alone.to_dict()


def test_a_run_from_a_nan_checkpoint_acts_on_nan_rows_until_the_group_ends(
    dataset, monkeypatch
):
    # the middle run's checkpoint holds NaN: it acts with NaN at every step
    # of the group, aborts at its first update, and warns nothing (the
    # suite's warnings are errors); the runs beside it record as alone
    import o2olab.finetune as ft

    real_act, actions = ft.act, []

    def recording_act(agent, obs, rngs):
        actions.append(real_act(agent, obs, rngs))
        return actions[-1]

    nan = fresh_agent(1)
    nan.state[:] = np.nan
    config, seeds = small_config(), [5, 6, 7]
    monkeypatch.setattr(ft, "act", recording_act)
    logs = run_finetune(dataset, [fresh_agent(0), nan, fresh_agent(2)], ["replay"] * 3, config,
                        seeds)
    monkeypatch.undo()
    assert len(actions) == 200
    assert all(np.isnan(step[1]).all() and np.isfinite(step[[0, 2]]).all() for step in actions)
    assert (logs[1].aborted, logs[1].abort_reason) == (True, "non-finite critic target")
    assert logs[1].counters == {"env_steps": HYPER.batch, "updates": 0,
                                "episodes_started": 1, "dataset_samples": 1}
    assert [p.step for p in logs[1].eval_curve] == [0] and np.isnan(logs[1].eval_curve[0].mean)
    for r in (0, 2):
        [alone] = run_finetune(dataset, [fresh_agent(r)], ["replay"], config, [seeds[r]])
        assert logs[r].to_dict() == alone.to_dict()


# --- last_k stat ---


def _log_with_means(means):
    curve = [EvalPoint(i, m, [m]) for i, m in enumerate(means)]
    return RunLog(method="baseline", seed=0, config={}, eval_curve=curve)


def test_last_k_constant():
    assert last_k_eval_stat(_log_with_means([0.7] * 12), k=10) == pytest.approx(0.7)


def test_last_k_mixed_window():
    means = [0.2] * 5 + [0.0] * 5 + [1.0] * 5
    assert last_k_eval_stat(_log_with_means(means), k=10) == pytest.approx(0.5)


def test_last_k_too_short():
    with pytest.raises(ValueError):
        last_k_eval_stat(_log_with_means([0.5] * 4), k=10)


# --- serialization ---


def test_runlog_round_trip(dataset):
    log = run(method="warmup", dataset=dataset)
    back = RunLog.from_dict(log.to_dict())
    assert back == log
    assert back.to_dict() == log.to_dict()
