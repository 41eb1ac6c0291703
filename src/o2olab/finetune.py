"""Online fine-tuning loop and the six evaluated methods.

Per environment step the loop first performs the scheduled gradient
updates, then collects one transition, so with a warm-up of K steps the
first update happens at step K+1 while the online buffer still holds
exactly K transitions. Total updates are exactly
``utd * max(0, steps - start_delay)``.

The loop steps a lockstep group of runs (see ``run_finetune``), which may
be of several methods over the setting's one ``FinetuneConfig``: runs of
one ``update_class`` share the regularizer, the first update step and the
counters they start from, and ``lockstep_runs`` sizes a group by its
critic work. The group's run state is group-level, as its agent is: one
env with a row per run, one online buffer with a block of rows per run,
which holds the whole run, and one gather of every run's batch per update.
A run keeps its place in each of them for the life of the group: a run
that aborts stays there, masked, and nothing reads it again, but its rows
still go through every update, action and env step until the group ends,
so it costs what a live run does. The
evaluation curve is scored after training, in one pass over every run and
curve point.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import nn
from .agents import (
    FRESH_COUNTERS,
    RegularizerConfig,
    Td3Agent,
    Td3Hyper,
    act,
    policy_fn,
    reset_parameters,
    stack_agents,
    td3_update,
)
from .data import MixedSampler, OfflineDataset, ReplayBuffer
from .envs import EnvSpec, evaluate_policy, make_env
from .errors import ConfigError
from .metrics import EvalPoint
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
    """What every run of a setting shares; a run is a (method, seed) pair."""

    total_env_steps: int = 50_000
    utd: int = 1
    warmup_steps: int = 500  # K; desk-scale default (paper scale 5000)
    alpha: float = 0.5
    beta: float | None = None  # required by o2o_reg and mixed
    eval_every: int = 1000
    eval_episodes: int = 20

    def __post_init__(self):
        if self.total_env_steps < 1 or self.utd < 1:
            raise ConfigError("total_env_steps and utd must be >= 1")
        if self.warmup_steps < 1:
            raise ConfigError(f"finetune.warmup_steps must be >= 1, got {self.warmup_steps}")
        if self.warmup_steps > self.total_env_steps:
            raise ConfigError("warmup_steps must be <= total_env_steps")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
        if self.eval_every < 1 or self.eval_episodes < 1:
            raise ConfigError("eval_every and eval_episodes must be >= 1")
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


def run_settings(method: str, config: FinetuneConfig) -> dict:
    """A run of ``method`` under ``config``: its log's ``config``, which its key hashes."""
    return {"method": method, **asdict(config)}


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


def _regularizer_for(method: str, config: FinetuneConfig) -> RegularizerConfig:
    if method in (METHOD_O2O_REG, METHOD_MIXED):
        if config.beta is None:
            raise ConfigError(f"method {method!r} needs beta")
        return RegularizerConfig(bc_coefficient=config.beta, q_normalization=True)
    return RegularizerConfig()


def _schedule(method: str, config: FinetuneConfig, hyper: Td3Hyper) -> tuple:
    """What a method makes of its setting's config, beyond what every run
    shares: the regularizer and the first update step."""
    if method not in ALL_METHODS:
        raise ConfigError(f"unknown method {method!r}")
    start_delay = config.warmup_steps if method == METHOD_WARMUP else hyper.batch
    return _regularizer_for(method, config), start_delay


def update_class(method: str, config: FinetuneConfig, hyper: Td3Hyper, counters: tuple) -> tuple:
    """The class of a run of ``method`` under ``config``: runs of one class
    update alike, whatever their methods, and can share a lockstep group.
    It holds the method's schedule (regularizer, first update step) and the
    counters the run starts from: its checkpoint's ``counters`` (see
    ``agents.checkpoint_counters``), or fresh ones after a replay_reset."""
    start = FRESH_COUNTERS if method == METHOD_REPLAY_RESET else tuple(counters)
    return (*_schedule(method, config, hyper), start)


# A lockstep group pays where a run's update is small enough that its fixed
# Python cost, not its arithmetic, sets its time, while the group's arrays,
# which grow with its runs, stay small. Per run, the time of a whole
# run_finetune (o2o_reg in the benchmark's loop shapes: 120 point-goal steps
# with 56 updates and 4 curve points of 10 episodes, or 290 pendulum steps
# with 68 updates and 4 points of 2 episodes), and the peak RSS of a process
# fine-tuning 4 runs in groups of 1, 2 or 4 (numpy 2.4.6 on single-thread
# OpenBLAS 0.3.31, SkylakeX kernels, and a stage process's malloc settings,
# on a 2-vCPU Intel Xeon VM, CPU family 6 model 207; medians of 5
# processes, which spread by up to a fifth), with the multiply-adds of one
# critic forward over one run's batch (batch x critic parameters):
#
#   nets@batch       env        work   ms a run: alone  of 2   of 4   MB: alone  of 2   of 4
#   (32, 32)@64      point      8.4e4            52.8   29.6   20.8       40.1  40.0   40.4
#   (64, 64)@256     pendulum   1.2e6           145.4  107.6  118.4       39.7  41.5   46.4
#   (96, 96)@256     pendulum   2.5e6           242.2  208.4  217.2       41.3  45.1   51.6
#   (128, 128)@256   pendulum   4.4e6           347.7  317.4  332.6       43.4  49.2   58.6
#   (256, 256)@256   pendulum   1.7e7          1046.7  942.0 1077.6       55.4  71.0  106.5
#
# LOCKSTEP_MAX_WORK budgets the critic forward of a whole group: 2 runs at
# (64, 64)@256, where a group of 4 is slower, and 1 from (96, 96)@256 up.
# (The budget was set on a 2-vCPU AMD EPYC VM, where a group of 2 at
# (96, 96)@256 saved 2.5 % a run; on the host above it saves 14 %, for
# 3.8 MB more.)
#
# LOCKSTEP_MAX_RUNS caps the groups of small nets. The sparse probe's
# fine-tune stage (ROADMAP; 120 runs of (32, 32)@64 over 20 seeds, 5000
# steps each, --jobs 2; same host, medians of 2 or 3 stages), per run and
# per worker's peak RSS:
#
#   groups of   4: 773 ms a run, 38.0 MB    8: 665 ms, 43.9 MB    16: 624 ms, 56.4 MB
#
# A group of 8 saves 14 % a run over 4 for 6 MB a worker; one of 16 saves
# 6 % more for 12.5 MB more, most of it the online buffers of its runs.
LOCKSTEP_MAX_WORK = 2_500_000
LOCKSTEP_MAX_RUNS = 8


def lockstep_runs(hyper: Td3Hyper, spec: EnvSpec) -> int:
    """How many runs to fine-tune, or seeds to pretrain, as one lockstep
    group: as many as keep one critic forward over every run's batch within
    LOCKSTEP_MAX_WORK multiply-adds, at least 1 and at most
    LOCKSTEP_MAX_RUNS."""
    critic = nn.param_count((spec.obs_dim + spec.action_dim, *hyper.hidden, 1))
    return max(1, min(LOCKSTEP_MAX_RUNS, LOCKSTEP_MAX_WORK // (hyper.batch * critic)))


@dataclass(eq=False)
class _Run:
    """One run of a lockstep group: its log, its counters and its
    generators. Its env row, its block of the group's online buffer and its
    agent row are the group's, at the run's place in the group."""

    log: RunLog
    replays: bool  # its batches mix in the dataset's own buffer
    explore_rng: np.random.Generator
    update_rng: np.random.Generator
    sample_rng: np.random.Generator
    episode: int = 0

    @classmethod
    def start(cls, method: str, config: FinetuneConfig, seed: int) -> "_Run":
        return cls(
            log=RunLog(method, seed, run_settings(method, config), eval_curve=[]),
            replays=method in REPLAY_METHODS,
            explore_rng=rng_for("explore", seed),
            update_rng=rng_for("update", seed),
            sample_rng=rng_for("sample", seed),
        )

    def episode_seed(self) -> int:
        return stable_seed("episode", self.log.seed, self.episode)

    def finish(self, env_steps: int, updates: int, offline_draws: int) -> None:
        """Record the counters of the run, which ends after ``env_steps``
        steps and ``updates`` updates; a replaying run's batches hold
        ``offline_draws`` dataset rows each."""
        self.log.counters = {
            "env_steps": env_steps,
            "updates": updates,
            "episodes_started": self.episode + 1,
            # the run draws one batch per update, the one that aborts it too
            "dataset_samples": updates + self.log.aborted if self.replays and offline_draws else 0,
        }


def _evaluate_curves(dataset: OfflineDataset, episodes: int, points: list) -> None:
    """Append every curve point to its runs' logs. ``points`` holds, per
    curve point in order, its step, its live runs and a copy of their
    stacked actors; one ``evaluate_policy`` call scores every (run, point)
    pair over its seeded episodes."""
    pairs = [(k, step, run) for k, (step, runs, _) in enumerate(points) for run in runs]
    results = evaluate_policy(
        policy_fn(nn.stack_nets([actors for _, _, actors in points])),
        dataset.env,
        dataset.reference,
        episodes,
        [eval_seed_for(run.log.seed, k) for k, _, run in pairs],
    )
    for (_, step, run), result in zip(pairs, results):
        run.log.eval_curve.append(EvalPoint(step, result.mean, result.per_episode))


def run_finetune(
    dataset: OfflineDataset,
    agents: list[Td3Agent],
    methods: list[str],
    config: FinetuneConfig,
    seeds: list[int],
) -> list[RunLog]:
    """Fine-tune each agent (a group of one) online by its method and run
    seed, under the one ``config`` that every run shares; returns one RunLog
    per run, in order.

    The runs go in lockstep, as one group holding copies of the agents: one
    stacked ``td3_update`` per update and one exploring ``act`` per env step
    (see ``agents.stack_agents``). Their methods may differ where the runs
    update alike (see ``update_class``): the methods must share their
    schedule, and the agents their counters once a replay_reset run's agent
    is reset. ``agents`` is emptied, so that nothing here keeps the
    originals alive.

    The group's run state is group-level. One env holds a row per run and
    restarts a run's row with its next episode when its episode ends. One
    online buffer holds a block per run, with room for every step of the run;
    the runs that replay the dataset share its own buffer. One gather
    (``ReplayBuffer.sample``) draws every run's batch per update. Each run
    keeps its own episode seeds and generators, so its RunLog equals the
    one it would record alone. A run whose update blows up aborts alone:
    its agent row, env row and block stay in place and are ignored, and the
    group ends when no run is live.

    The curve is evaluated after training: at each curve point the loop
    keeps a copy of the live runs' actors, and one evaluation then scores
    every (run, point) pair (see ``_evaluate_curves``). Scores are
    normalized by the dataset's reference scores; runs act in the dataset's
    env. The dataset is sampled only by the replay-based methods.
    """
    hyper = agents[0].hyper
    reg, start_delay = _schedule(methods[0], config, hyper)
    if any(_schedule(method, config, hyper) != (reg, start_delay) for method in methods):
        raise ValueError("a lockstep group takes methods that share a schedule")
    for i, (method, seed) in enumerate(zip(methods, seeds)):  # no loop variable keeps an agent
        if method == METHOD_REPLAY_RESET:
            reset_parameters(agents[i], seed=stable_seed("reset", seed))
    group = stack_agents(agents)
    agents.clear()
    spec = dataset.env
    runs = [_Run.start(method, config, seed) for method, seed in zip(methods, seeds)]
    live = np.ones(len(runs), dtype=bool)  # the runs that have not aborted
    online = ReplayBuffer(config.total_env_steps, spec.obs_dim, spec.action_dim, len(runs))
    sampler, offline_draws = online, 0
    if any(run.replays for run in runs):
        offline = ReplayBuffer.from_dataset(dataset)
        sampler = MixedSampler(offline, online, config.alpha, [run.replays for run in runs])
        offline_draws = sampler.offline_count(hyper.batch)
    sample_rngs = [run.sample_rng for run in runs]
    update_rngs = [run.update_rng for run in runs]
    explore_rngs = [run.explore_rng for run in runs]
    env = make_env(spec)
    obs = env.reset([run.episode_seed() for run in runs])
    updates = 0  # of each live run
    points = []  # per curve point: its step, its live runs and a copy of their actors

    def add_point(step: int) -> None:
        points.append((step, [run for run, alive in zip(runs, live) if alive], group.actor[live]))

    add_point(0)  # for replay_reset this is the post-reset policy
    for step in range(1, config.total_env_steps + 1):
        if step > start_delay:
            for _ in range(config.utd):
                batch = sampler.sample(hyper.batch, sample_rngs)
                failed = td3_update(group, batch, reg, update_rngs)
                for i, reason in failed.items():
                    if live[i]:  # an aborted run may be reported again; it ended here
                        live[i] = False
                        runs[i].log.aborted = True
                        runs[i].log.abort_reason = reason
                        runs[i].finish(step - 1, updates, offline_draws)
                if not live.any():
                    break
                updates += 1
        if not live.any():
            break
        actions = act(group, obs, explore_rngs)
        res = env.step(actions)
        transitions = (obs, actions, res.reward, res.next_obs, res.terminated)
        online.push(*(rows[:, None] for rows in transitions))  # one row per block
        obs = res.next_obs
        ended = np.flatnonzero(res.done).tolist()  # the runs whose episodes the step ended
        if ended:
            for i in ended:
                runs[i].episode += 1
            obs[ended] = env.restart(ended, [runs[i].episode_seed() for i in ended])
        if step % config.eval_every == 0:
            add_point(step)

    for run, alive in zip(runs, live):
        if alive:
            run.finish(config.total_env_steps, updates, offline_draws)
    _evaluate_curves(dataset, config.eval_episodes, points)
    return [run.log for run in runs]
