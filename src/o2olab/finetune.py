"""Online fine-tuning loop and the six evaluated method configurations.

Per environment step the loop first performs the scheduled gradient
updates, then collects one transition, so with a warm-up of K steps the
first update happens at step K+1 while the online buffer still holds
exactly K transitions. Total updates are exactly
``utd * max(0, steps - start_delay)``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .agents import RegularizerConfig, Td3Agent, act, policy_fn, reset_parameters, td3_update
from .data import MixedSampler, OfflineDataset, ReplayBuffer
from .envs import EnvSpec, evaluate_policy
from .errors import ConfigError, NumericError, config_int
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
        for name in ("total_env_steps", "utd", "warmup_steps", "eval_every", "eval_episodes"):
            setattr(self, name, config_int(f"finetune.{name}", getattr(self, name)))
        if self.online_buffer_capacity is not None:
            self.online_buffer_capacity = config_int(
                "finetune.online_buffer_capacity", self.online_buffer_capacity
            )

    def validate(self) -> None:
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

    def to_dict(self) -> dict:
        return asdict(self)


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


def run_finetune(env, dataset: OfflineDataset, agent: Td3Agent, config: FinetuneConfig, seed: int):
    """Fine-tune ``agent`` online; returns (RunLog, agent).

    Scores are normalized by the dataset's reference scores. The dataset is
    sampled only by the replay-based methods and with ``single_buffer``.
    """
    config.validate()
    spec: EnvSpec = env.spec
    if config.method == METHOD_REPLAY_RESET:
        reset_parameters(agent, seed=stable_seed("reset", seed))

    capacity = config.online_buffer_capacity or config.total_env_steps
    offline = None
    sampler = None
    if config.single_buffer:  # the online buffer starts out holding the dataset
        online = ReplayBuffer.from_dataset(dataset, capacity + dataset.n_transitions)
    else:
        online = ReplayBuffer(capacity, spec.obs_dim, spec.action_dim)
        if config.method in REPLAY_METHODS:
            offline = ReplayBuffer.from_dataset(dataset)
            sampler = MixedSampler(offline, online, config.alpha)

    reg = _regularizer_for(config)
    start_delay = (
        config.warmup_steps if config.method == METHOD_WARMUP else agent.hyper.batch
    )
    explore_rng = rng_for("explore", seed)
    update_rng = rng_for("update", seed)
    sample_rng = rng_for("sample", seed)

    log = RunLog(method=config.method, seed=seed, config=config.to_dict(), eval_curve=[])

    def evaluate(step: int) -> None:
        point_index = len(log.eval_curve)
        result = evaluate_policy(
            policy_fn(agent),
            spec,
            dataset.reference,
            config.eval_episodes,
            seed=eval_seed_for(seed, point_index),
        )
        log.eval_curve.append(EvalPoint(step, result.mean, result.per_episode))

    evaluate(0)  # for replay_reset this is the post-reset policy
    updates = 0
    collected = 0
    episode = 0
    obs = env.reset([stable_seed("episode", seed, episode)])  # one episode at a time
    for step in range(1, config.total_env_steps + 1):
        if step > start_delay:
            for _ in range(config.utd):
                if sampler is not None:
                    batch = sampler.sample(agent.hyper.batch, sample_rng)
                else:
                    batch = online.sample(agent.hyper.batch, sample_rng)
                try:
                    td3_update(agent, batch, reg, update_rng)
                except NumericError as exc:
                    log.aborted = True
                    log.abort_reason = str(exc)
                    break
                updates += 1
        if log.aborted:
            break
        action = act(agent, obs, explore=True, rng=explore_rng)
        res = env.step(action)
        online.push(obs, action, res.reward, res.next_obs, res.terminated)
        collected += 1
        obs = res.next_obs
        if res.done[0]:
            episode += 1
            obs = env.reset([stable_seed("episode", seed, episode)])
        if step % config.eval_every == 0:
            evaluate(step)

    log.counters = {
        "env_steps": collected,
        "updates": updates,
        "episodes_started": episode + 1,
        "dataset_samples": offline.sample_reads if offline is not None else 0,
    }
    return log, agent
