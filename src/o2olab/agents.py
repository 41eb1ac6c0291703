"""TD3 agents: pretraining (behavior cloning + fitted Q evaluation, or
behavior-regularized TD3) and the shared online update rule.

The actor update minimizes ``-lambda * Q1(s, actor(s)) + beta * MSE(actor(s),
batch actions)`` where lambda is 1/mean|Q1| when Q-normalization is on.
beta = 0 with normalization off recovers plain TD3.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import nn
from .data import OfflineDataset, ReplayBuffer, TransitionBatch
from .errors import MissingInputError, NumericError, config_int
from .fsio import MANIFEST_FILE, read_json, write_json_atomic, write_npy_atomic
from .seeding import rng_for


@dataclass(frozen=True)
class Td3Hyper:
    gamma: float = 0.99
    tau: float = 0.005
    policy_delay: int = 2
    target_noise: float = 0.2
    noise_clip: float = 0.5
    explore_noise: float = 0.1
    batch: int = 256
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        # frozen, so the integer fields are converted through object.__setattr__
        for name in ("policy_delay", "batch"):
            object.__setattr__(self, name, config_int(f"agent.{name}", getattr(self, name)))
        hidden = tuple(config_int("agent.hidden", width) for width in self.hidden)
        object.__setattr__(self, "hidden", hidden)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        return d


@dataclass(frozen=True)
class RegularizerConfig:
    bc_coefficient: float = 0.0  # beta; 0 recovers plain TD3
    q_normalization: bool = False

    def __post_init__(self):
        if self.bc_coefficient < 0:
            raise ValueError("bc_coefficient must be >= 0")


@dataclass
class Td3Agent:
    """Actor, twin critics held as one stacked net (``critics.stack == 2``;
    member 0 is the critic the actor ascends), their Polyak targets, and one
    Adam state for the actor and one for the critic pair."""

    actor: nn.DenseNet
    critics: nn.DenseNet
    target_actor: nn.DenseNet
    target_critics: nn.DenseNet
    actor_opt: nn.AdamState
    critic_opt: nn.AdamState
    hyper: Td3Hyper
    update_count: int = 0

    @property
    def obs_dim(self) -> int:
        return self.actor.in_dim

    @property
    def action_dim(self) -> int:
        return self.actor.out_dim


def _net_seeds(seed: int) -> list[int]:
    return list(rng_for("agent-nets", seed).integers(0, 2**31, size=3))


def _init_actor(obs_dim: int, action_dim: int, hyper: Td3Hyper, seed: int) -> nn.DenseNet:
    return nn.init_net((obs_dim, *hyper.hidden, action_dim), "relu", "tanh", seed=seed)


def _init_critic(obs_dim: int, action_dim: int, hyper: Td3Hyper, seed: int) -> nn.DenseNet:
    return nn.init_net((obs_dim + action_dim, *hyper.hidden, 1), "relu", "linear", seed=seed)


def _assemble(
    actor: nn.DenseNet, critic1: nn.DenseNet, critic2: nn.DenseNet, hyper: Td3Hyper
) -> Td3Agent:
    """The one agent constructor: targets start equal to the online nets,
    optimizers start at zero."""
    critics = nn.stack_nets([critic1, critic2])
    return Td3Agent(
        actor=actor,
        critics=critics,
        target_actor=actor.copy(),
        target_critics=critics.copy(),
        actor_opt=nn.AdamState.for_net(actor, hyper.actor_lr),
        critic_opt=nn.AdamState.for_net(critics, hyper.critic_lr),
        hyper=hyper,
    )


def make_td3_agent(obs_dim: int, action_dim: int, hyper: Td3Hyper, seed: int = 0) -> Td3Agent:
    actor_seed, c1_seed, c2_seed = _net_seeds(seed)
    return _assemble(
        _init_actor(obs_dim, action_dim, hyper, actor_seed),
        _init_critic(obs_dim, action_dim, hyper, c1_seed),
        _init_critic(obs_dim, action_dim, hyper, c2_seed),
        hyper,
    )


def reset_parameters(agent: Td3Agent, seed: int) -> Td3Agent:
    """Re-initialize the agent in place, as if freshly constructed with
    ``seed``: new weights, zeroed optimizers, targets equal to online nets."""
    fresh = make_td3_agent(agent.obs_dim, agent.action_dim, agent.hyper, seed)
    agent.__dict__.update(fresh.__dict__)
    return agent


def act(
    agent: Td3Agent,
    obs: np.ndarray,
    explore: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Deterministic actor output, plus clipped Gaussian noise when exploring.

    ``obs`` is one observation (obs_dim,) or a stack of rows (rows,
    obs_dim); the result has the same leading shape. Each row runs as its
    own (1, obs_dim) slice, so a row's action equals ``act`` on that row
    alone, bit for bit.
    """
    a = nn.forward(agent.actor, np.asarray(obs, dtype=np.float64)[..., None, :])[..., 0, :]
    if explore:
        if rng is None:
            raise ValueError("explore=True requires an rng")
        a = a + rng.normal(0.0, agent.hyper.explore_noise, size=a.shape)
    return np.minimum(np.maximum(a, -1.0), 1.0)  # np.clip, bit for bit, faster


def policy_fn(agent: Td3Agent):
    """The agent's evaluation policy (no exploration noise), on one
    observation or a stack of rows (see ``act``)."""
    return lambda obs: act(agent, obs, explore=False)


def _critic_targets(agent: Td3Agent, batch: TransitionBatch, rng) -> np.ndarray:
    h = agent.hyper
    next_a = nn.forward(agent.target_actor, batch.next_obs)
    noise = np.clip(
        rng.normal(0.0, h.target_noise, size=next_a.shape), -h.noise_clip, h.noise_clip
    )
    next_a = np.clip(next_a + noise, -1.0, 1.0)
    x_next = np.concatenate([batch.next_obs, next_a], axis=1)
    q1_next, q2_next = nn.forward(agent.target_critics, x_next)
    q_next = np.minimum(q1_next, q2_next)[:, 0]
    # bootstrap is masked on termination but not on time-limit truncation
    return batch.reward + h.gamma * (1.0 - batch.terminated) * q_next


def _actor_gradients(agent: Td3Agent, batch: TransitionBatch, reg: RegularizerConfig):
    """Gradient of the (optionally BC-regularized) actor loss; returns
    (flat gradient, loss value, lambda)."""
    n = len(batch)
    actor_cache: list = []
    a = nn.forward(agent.actor, batch.obs, actor_cache)
    x = np.concatenate([batch.obs, a], axis=1)
    critic1 = agent.critics.member(0)
    critic_cache: list = []
    q1 = nn.forward(critic1, x, critic_cache)[:, 0]
    if reg.q_normalization:
        lam = 1.0 / max(float(np.mean(np.abs(q1))), 1e-8)
    else:
        lam = 1.0
    bc_err = a - batch.action
    loss = -lam * float(np.mean(q1)) + reg.bc_coefficient * float(np.mean(bc_err**2))
    # d(mean q1)/da through the critic's action inputs
    dq_din = nn.input_backward(critic1, critic_cache, np.full((n, 1), 1.0 / n))
    da = -lam * dq_din[:, agent.obs_dim :]
    if reg.bc_coefficient:
        da = da + (2.0 * reg.bc_coefficient / (n * agent.action_dim)) * bc_err
    grad = nn.backward(agent.actor, actor_cache, da)
    return grad, loss, lam


def td3_update(
    agent: Td3Agent,
    batch: TransitionBatch,
    reg: RegularizerConfig,
    rng: np.random.Generator,
) -> dict:
    """One TD3 step: twin-critic regression, delayed actor update, Polyak
    targets. Returns a loss report; raises NumericError on blow-up, before
    the step it would have corrupted changes any parameter."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    h = agent.hyper
    n = len(batch)
    y = _critic_targets(agent, batch, rng)
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite critic target")

    x = np.concatenate([batch.obs, batch.action], axis=1)
    cache: list = []
    err = nn.forward(agent.critics, x, cache)[:, :, 0] - y  # (2, batch)
    report = {}
    for name, member_err in zip(("critic1_loss", "critic2_loss"), err):
        loss = float(np.mean(member_err**2))
        if not np.isfinite(loss):
            raise NumericError(
                f"critic loss is not finite at update {agent.update_count + 1}"
            )
        report[name] = loss
    grad = nn.backward(agent.critics, cache, (2.0 / n) * err[:, :, None])
    nn.adam_step(agent.critics, grad, agent.critic_opt)

    agent.update_count += 1
    report["actor_loss"] = None
    if agent.update_count % h.policy_delay == 0:
        grad, actor_loss, lam = _actor_gradients(agent, batch, reg)
        if not np.isfinite(actor_loss):
            raise NumericError(
                f"actor loss is not finite at update {agent.update_count}"
            )
        nn.adam_step(agent.actor, grad, agent.actor_opt)
        report["actor_loss"] = actor_loss
        report["q_scale"] = lam

    nn.polyak_update(agent.target_actor, agent.actor, h.tau)
    nn.polyak_update(agent.target_critics, agent.critics, h.tau)
    return report


# --- pretraining ---


def bc_pretrain(dataset: OfflineDataset, steps: int, seed: int, hyper: Td3Hyper) -> nn.DenseNet:
    """Behavior cloning: regress the actor onto dataset actions."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    spec = dataset.env
    actor = _init_actor(spec.obs_dim, spec.action_dim, hyper, _net_seeds(seed)[0])
    opt = nn.AdamState.for_net(actor, hyper.actor_lr)
    buf = ReplayBuffer.from_dataset(dataset)
    rng = rng_for("bc", seed)
    n = hyper.batch
    for _ in range(steps):
        batch = buf.sample(n, rng)
        cache: list = []
        err = nn.forward(actor, batch.obs, cache) - batch.action
        grad = nn.backward(actor, cache, (2.0 / (n * spec.action_dim)) * err)
        nn.adam_step(actor, grad, opt)
    return actor


def fqe(
    policy_net: nn.DenseNet, dataset: OfflineDataset, steps: int, seed: int, hyper: Td3Hyper
) -> nn.DenseNet:
    """Fitted Q evaluation of a fixed policy from dataset transitions."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    spec = dataset.env
    critic = _init_critic(spec.obs_dim, spec.action_dim, hyper, _net_seeds(seed)[1])
    target = critic.copy()
    opt = nn.AdamState.for_net(critic, hyper.critic_lr)
    buf = ReplayBuffer.from_dataset(dataset)
    rng = rng_for("fqe", seed)
    n = hyper.batch
    for _ in range(steps):
        batch = buf.sample(n, rng)
        next_a = nn.forward(policy_net, batch.next_obs)
        x_next = np.concatenate([batch.next_obs, next_a], axis=1)
        y = batch.reward + hyper.gamma * (1.0 - batch.terminated) * nn.forward(target, x_next)[:, 0]
        x = np.concatenate([batch.obs, batch.action], axis=1)
        cache: list = []
        q = nn.forward(critic, x, cache)[:, 0]
        grad = nn.backward(critic, cache, (2.0 / n) * (q - y)[:, None])
        nn.adam_step(critic, grad, opt)
        nn.polyak_update(target, critic, hyper.tau)
    return critic


def agent_from_bc_fqe(actor: nn.DenseNet, critic: nn.DenseNet, hyper: Td3Hyper) -> Td3Agent:
    """Wrap a cloned actor and an FQE critic (duplicated into the twin slot)
    as a full agent ready for fine-tuning."""
    return _assemble(actor, critic, critic, hyper)


def offline_rl_pretrain(
    dataset: OfflineDataset, steps: int, beta: float, seed: int, hyper: Td3Hyper
) -> Td3Agent:
    """Behavior-regularized TD3 trained purely on dataset batches."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be > 0 for offline pretraining")
    spec = dataset.env
    agent = make_td3_agent(spec.obs_dim, spec.action_dim, hyper, seed)
    reg = RegularizerConfig(bc_coefficient=beta, q_normalization=True)
    buf = ReplayBuffer.from_dataset(dataset)
    rng = rng_for("offline-rl", seed)
    for _ in range(steps):
        td3_update(agent, buf.sample(hyper.batch, rng), reg, rng)
    return agent


# --- checkpoints ---

PARAMS_FILE = "params.npy"


def _state_arrays(agent: Td3Agent) -> list[np.ndarray]:
    """Every array a checkpoint stores, in ``params.npy`` order: actor,
    critic pair, target actor, target critic pair, then the actor's Adam
    m and v and the critic pair's Adam m and v. Each is a flat vector in
    the layout of ``nn.DenseNet``."""
    return [
        agent.actor.params,
        agent.critics.params,
        agent.target_actor.params,
        agent.target_critics.params,
        agent.actor_opt.m,
        agent.actor_opt.v,
        agent.critic_opt.m,
        agent.critic_opt.v,
    ]


def save_agent(agent: Td3Agent, directory, extra: dict | None = None) -> None:
    """Write every array of the agent to ``params.npy`` (one float64 vector)
    and the rest of its state to ``manifest.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_npy_atomic(directory / PARAMS_FILE, np.concatenate(_state_arrays(agent)))
    manifest = {
        "hyper": agent.hyper.to_dict(),
        "obs_dim": agent.obs_dim,
        "action_dim": agent.action_dim,
        "update_count": agent.update_count,
        "actor_adam_steps": agent.actor_opt.step_count,
        "critic_adam_steps": agent.critic_opt.step_count,
    }
    if extra:
        manifest.update(extra)
    write_json_atomic(directory / MANIFEST_FILE, manifest)


def load_agent(directory) -> Td3Agent:
    directory = Path(directory)
    if not (directory / PARAMS_FILE).exists() or not (directory / MANIFEST_FILE).exists():
        raise MissingInputError(
            f"no {PARAMS_FILE} checkpoint in {directory} (missing, or written by an "
            "older o2olab); re-run `o2olab pretrain --force`"
        )
    manifest = read_json(directory / MANIFEST_FILE)
    flat = np.load(directory / PARAMS_FILE)
    agent = make_td3_agent(
        int(manifest["obs_dim"]),
        int(manifest["action_dim"]),
        Td3Hyper(**manifest["hyper"]),
    )
    arrays = _state_arrays(agent)
    if flat.dtype != np.float64 or flat.shape != (sum(a.size for a in arrays),):
        raise MissingInputError(
            f"{directory / PARAMS_FILE} does not match its manifest; "
            "re-run `o2olab pretrain --force`"
        )
    start = 0
    for array in arrays:
        array[...] = flat[start : start + array.size]
        start += array.size
    agent.update_count = int(manifest["update_count"])
    agent.actor_opt.step_count = int(manifest["actor_adam_steps"])
    agent.critic_opt.step_count = int(manifest["critic_adam_steps"])
    return agent
