"""Online fine-tuning loop and the six evaluated method configurations.

Per environment step the loop first performs the scheduled gradient
updates, then collects one transition, so with a warm-up of K steps the
first update happens at step K+1 while the online buffer still holds
exactly K transitions. Total updates are exactly
``utd * max(0, steps - start_delay)``.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .agents import (
    RegularizerConfig,
    Td3Agent,
    Td3Hyper,
    act,
    policy_fn,
    reset_parameters,
    select_runs,
    stack_agents,
    td3_update,
)
from .data import MixedSampler, OfflineDataset, ReplayBuffer, TransitionBatch, stack_batches
from .envs import EnvSpec, evaluate_policy, make_env
from .errors import ConfigError
from .metrics import EvalPoint
from .nn import param_count
from .seeding import rng_for, stable_seed

METHOD_BASELINE = "baseline"
METHOD_WARMUP = "warmup"
METHOD_O2O_REG = "o2o_reg"
METHOD_REPLAY = "replay"
METHOD_REPLAY_RESET = "replay_reset"
METHOD_MIXED = "mixed"
ALL_METHODS = (
    METHOD_BASELINE,
    METHOD_WARMUP,
    METHOD_O2O_REG,
    METHOD_REPLAY,
    METHOD_REPLAY_RESET,
    METHOD_MIXED,
)
REPLAY_METHODS = (METHOD_REPLAY, METHOD_REPLAY_RESET, METHOD_MIXED)

# class membership for best-of-class comparisons
POLICY_CENTRIC = (METHOD_WARMUP, METHOD_O2O_REG)
DATA_CENTRIC = (METHOD_REPLAY, METHOD_REPLAY_RESET)


@dataclass
class FinetuneConfig:
    method: str = METHOD_BASELINE
    total_env_steps: int = 50_000
    utd: int = 1
    warmup_steps: int = 500  # K; desk-scale default (paper scale 5000)
    alpha: float = 0.5
    beta: float | None = None  # required by o2o_reg and mixed
    eval_every: int = 1000
    eval_episodes: int = 20
    online_buffer_capacity: int | None = None  # defaults to total_env_steps
    single_buffer: bool = False  # preload the dataset into the online buffer

    def __post_init__(self):
        if self.method not in ALL_METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.total_env_steps < 1 or self.utd < 1:
            raise ConfigError("total_env_steps and utd must be >= 1")
        if self.warmup_steps > self.total_env_steps:
            raise ConfigError("warmup_steps must be <= total_env_steps")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
        if self.eval_every < 1 or self.eval_episodes < 1:
            raise ConfigError("eval_every and eval_episodes must be >= 1")
        if self.method in (METHOD_O2O_REG, METHOD_MIXED) and self.beta is None:
            raise ConfigError(f"method {self.method!r} needs beta")
        if self.beta is not None and self.beta < 0:
            raise ConfigError(f"finetune.beta must be >= 0, got {self.beta}")


@dataclass
class RunLog:
    """What one fine-tuning run records; ``seed`` is its run seed."""

    method: str
    seed: int
    config: dict
    eval_curve: list[EvalPoint]
    counters: dict = field(default_factory=dict)
    aborted: bool = False
    abort_reason: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunLog":
        """The run log in ``data``; keys that are not fields (a run file's
        key and config seed, or what older versions also wrote) are left out."""
        record = {f.name: data[f.name] for f in fields(cls)}
        record["eval_curve"] = [EvalPoint(**p) for p in record["eval_curve"]]
        return cls(**record)


def eval_seed_for(run_seed: int, point_index: int) -> int:
    """Seed used for the evaluation at the given curve point; exposed so the
    step-0 point can be reproduced independently."""
    return stable_seed("finetune-eval", run_seed, point_index)


def last_k_eval_stat(log: RunLog, k: int) -> float:
    """Mean of the last k evaluation means: the per-seed comparison scalar."""
    means = [p.mean for p in log.eval_curve]
    if len(means) < k:
        raise ValueError(f"curve has {len(means)} points, need at least {k}")
    return float(np.mean(means[-k:]))


def _regularizer_for(config: FinetuneConfig) -> RegularizerConfig:
    if config.method in (METHOD_O2O_REG, METHOD_MIXED):
        return RegularizerConfig(bc_coefficient=config.beta, q_normalization=True)
    return RegularizerConfig()


# A lockstep group pays where a run's update is small enough that its fixed
# Python cost, not its arithmetic, sets its time. Per-run td3_update time in
# microseconds at group sizes 1, 2 and 4 (beta 0.4 with Q-normalization;
# numpy 2.4.6 on single-thread OpenBLAS 0.3.31 and a stage process's malloc
# settings, on a 2-vCPU AMD EPYC VM; medians of 7 rounds of at least 0.3 s),
# with the multiply-adds of one critic forward over a batch (batch x critic
# parameters):
#
#   nets@batch       env        work    alone  of 2  of 4
#   (32, 32)@64      point      8.4e4     147   104    82
#   (64, 64)@256     pendulum   1.2e6     566   520   512
#   (96, 96)@256     pendulum   2.5e6     978   938   998
#   (128, 128)@256   pendulum   4.4e6    1529  1491  1582
#   (256, 256)@256   pendulum   1.7e7    4855  5063  5443
#
# The cap sits between the (64, 64)@256 point, where a group of 4 saves 10 %
# a run, and the (96, 96)@256 one, where it costs 2 % more; larger nets run
# alone.
LOCKSTEP_MAX_WORK = 2_000_000
LOCKSTEP_MAX_RUNS = 4


def lockstep_runs(hyper: Td3Hyper, spec: EnvSpec) -> int:
    """How many runs of one method to fine-tune as one lockstep group: up to
    LOCKSTEP_MAX_RUNS while one critic forward over a batch stays within
    LOCKSTEP_MAX_WORK multiply-adds, else 1."""
    critic = param_count((spec.obs_dim + spec.action_dim, *hyper.hidden, 1))
    return LOCKSTEP_MAX_RUNS if hyper.batch * critic <= LOCKSTEP_MAX_WORK else 1


@dataclass(eq=False)
class _Run:
    """One run of a lockstep group: its log, and its own env, buffers and
    generators."""

    log: RunLog
    env: object
    online: ReplayBuffer
    sampler: MixedSampler | None
    explore_rng: np.random.Generator
    update_rng: np.random.Generator
    sample_rng: np.random.Generator
    obs: np.ndarray | None = None
    episode: int = 0
    collected: int = 0
    updates: int = 0

    @classmethod
    def start(
        cls,
        dataset: OfflineDataset,
        config: FinetuneConfig,
        seed: int,
        offline: ReplayBuffer | None,
    ) -> "_Run":
        """A run at step 0. ``offline``, the dataset's buffer of the replay
        methods, is shared by the runs of a group: nothing is pushed to it,
        and each run draws through its own shallow copy, which counts its
        own draws."""
        capacity = config.online_buffer_capacity or config.total_env_steps
        spec = dataset.env
        if config.single_buffer:  # the online buffer starts out holding the dataset
            online = ReplayBuffer.from_dataset(dataset, capacity + dataset.n_transitions)
        else:
            online = ReplayBuffer(capacity, spec.obs_dim, spec.action_dim)
        sampler = None
        if offline is not None:
            offline = copy.copy(offline)
            sampler = MixedSampler(offline, online, config.alpha)
        run = cls(
            log=RunLog(method=config.method, seed=seed, config=asdict(config), eval_curve=[]),
            env=make_env(spec),
            online=online,
            sampler=sampler,
            explore_rng=rng_for("explore", seed),
            update_rng=rng_for("update", seed),
            sample_rng=rng_for("sample", seed),
        )
        run.obs = run.env.reset([stable_seed("episode", seed, 0)])  # one episode at a time
        return run

    def sample(self, batch: int) -> TransitionBatch:
        if self.sampler is not None:
            return self.sampler.sample(batch, self.sample_rng)
        return self.online.sample(batch, self.sample_rng)

    def step(self, action: np.ndarray) -> None:
        """Take ``action`` (1, action_dim) in the env and bank the transition."""
        res = self.env.step(action)
        self.online.push(self.obs, action, res.reward, res.next_obs, res.terminated)
        self.collected += 1
        self.obs = res.next_obs
        if res.done[0]:
            self.episode += 1
            self.obs = self.env.reset([stable_seed("episode", self.log.seed, self.episode)])

    def finish(self) -> None:
        self.log.counters = {
            "env_steps": self.collected,
            "updates": self.updates,
            "episodes_started": self.episode + 1,
            "dataset_samples": self.sampler.offline_buffer.sample_reads if self.sampler else 0,
        }


def run_finetune(
    dataset: OfflineDataset, agents: list[Td3Agent], config: FinetuneConfig, seeds: list[int]
) -> list[RunLog]:
    """Fine-tune each agent (a group of one) online with its run seed;
    returns one RunLog per run, in order.

    The runs go in lockstep, as one group holding copies of the agents: one
    stacked ``td3_update`` per update, one exploring ``act`` per env step
    and one evaluation of every run's episodes in one env (see
    ``agents.stack_agents``). Each run keeps its own env, buffers and
    generators, so its RunLog equals the one it would record alone. A run
    whose update blows up aborts alone. ``agents`` is emptied, so that
    nothing here keeps the originals alive.

    Scores are normalized by the dataset's reference scores; runs act in
    the dataset's env. The dataset is sampled only by the replay-based
    methods and with ``single_buffer``.
    """
    if config.method == METHOD_REPLAY_RESET:
        for i, seed in enumerate(seeds):  # no loop variable keeps an agent alive
            reset_parameters(agents[i], seed=stable_seed("reset", seed))
    group = stack_agents(agents)
    agents.clear()
    replay = config.method in REPLAY_METHODS and not config.single_buffer
    offline = ReplayBuffer.from_dataset(dataset) if replay else None
    every = [_Run.start(dataset, config, seed, offline) for seed in seeds]
    runs = list(every)  # the live runs, in the order of the group's runs
    reg = _regularizer_for(config)
    hyper = group.hyper
    start_delay = config.warmup_steps if config.method == METHOD_WARMUP else hyper.batch

    def evaluate(step: int) -> None:
        point_index = len(runs[0].log.eval_curve)
        results = evaluate_policy(
            policy_fn(group),
            dataset.env,
            dataset.reference,
            config.eval_episodes,
            [eval_seed_for(run.log.seed, point_index) for run in runs],
        )
        for run, result in zip(runs, results):
            run.log.eval_curve.append(EvalPoint(step, result.mean, result.per_episode))

    def update() -> dict[int, str]:
        """One update of every live run; returns {run: reason} for those
        that blew up."""
        batch = stack_batches([run.sample(hyper.batch) for run in runs])
        return td3_update(group, batch, reg, [run.update_rng for run in runs])

    evaluate(0)  # for replay_reset this is the post-reset policy
    for step in range(1, config.total_env_steps + 1):
        if step > start_delay:
            for _ in range(config.utd):
                failed = update()
                for i, run in enumerate(runs):
                    if i in failed:
                        run.log.aborted = True
                        run.log.abort_reason = failed[i]
                    else:
                        run.updates += 1
                if failed:
                    keep = [i for i in range(len(runs)) if i not in failed]
                    runs = [runs[i] for i in keep]
                    if not runs:
                        break
                    group = select_runs(group, keep)
        if not runs:
            break
        obs = np.concatenate([run.obs for run in runs])
        actions = act(group, obs, explore=True, rngs=[run.explore_rng for run in runs])
        for i, run in enumerate(runs):
            run.step(actions[i : i + 1])
        if step % config.eval_every == 0:
            evaluate(step)

    for run in every:
        run.finish()
    return [run.log for run in every]
