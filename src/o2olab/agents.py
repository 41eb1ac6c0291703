"""TD3 agents: pretraining (behavior cloning + fitted Q evaluation, or
behavior-regularized TD3) and the shared online update rule.

The actor update minimizes ``-lambda * Q1(s, actor(s)) + beta * MSE(actor(s),
batch actions)`` where lambda is 1/mean|Q1| when Q-normalization is on.
beta = 0 with normalization off recovers plain TD3.

Every agent is a lockstep group of R >= 1 runs; a single run is a group of
one. A group is one (R, L) array whose row r is run r's checkpoint, and
every net and Adam moment of the group is a view into it, so stacking
groups concatenates rows, selecting runs indexes them, and saving or
loading a run writes or reads one row. One update steps every run as its
own update would and reports the runs that blew up. Each pretrainer,
too, trains a group's (R, L) state in place, one seed per run, each seed
drawing from its own generators: behavior-regularized TD3 steps the group
as fine-tuning does; behavior cloning steps each run's actor and fitted Q
evaluation its critic 1, after which ``agent_from_bc_fqe`` restarts the
group's targets and optimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import nn
from .data import OfflineDataset, ReplayBuffer, TransitionBatch
from .errors import ConfigError, MissingInputError, NumericError, ShapeError, parse
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
        for name in ("batch", "policy_delay"):
            if getattr(self, name) < 1:
                raise ConfigError(f"agent.{name} must be >= 1, got {getattr(self, name)}")
        if any(size < 1 for size in self.hidden):
            raise ConfigError(f"agent.hidden sizes must be >= 1, got {list(self.hidden)}")
        for name in ("target_noise", "noise_clip", "explore_noise"):
            if getattr(self, name) < 0:
                raise ConfigError(f"agent.{name} must be >= 0, got {getattr(self, name)}")
        for name in ("gamma", "tau"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"agent.{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("actor_lr", "critic_lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"agent.{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class RegularizerConfig:
    bc_coefficient: float = 0.0  # beta; 0 recovers plain TD3
    q_normalization: bool = False

    def __post_init__(self):
        if self.bc_coefficient < 0:
            raise ValueError("bc_coefficient must be >= 0")


# a group's counters, by the names its checkpoint manifest gives them
_COUNTERS = ("update_count", "actor_adam_steps", "critic_adam_steps")
FRESH_COUNTERS = (0, 0, 0)  # those of a new agent


def _layouts(obs_dim: int, action_dim: int, hyper: Td3Hyper) -> tuple:
    """The actor's and a critic's (layer sizes, hidden activation, output
    activation)."""
    return (
        ((obs_dim, *hyper.hidden, action_dim), "relu", "tanh"),
        ((obs_dim + action_dim, *hyper.hidden, 1), "relu", "linear"),
    )


def _row_shapes(obs_dim: int, action_dim: int, hyper: Td3Hyper) -> list[tuple]:
    """The shapes of the parts of a run's state row, in order: actor,
    critic pair, target actor, target critic pair, then the actor's Adam m
    and v and the critic pair's Adam m and v."""
    actor, critic = (nn.param_count(sizes) for sizes, _, _ in _layouts(obs_dim, action_dim, hyper))
    return [(actor,), (2, critic)] * 2 + [(actor,)] * 2 + [(2, critic)] * 2


class Td3Agent:
    """A lockstep group of R runs, held in one C-contiguous float64 array
    ``state`` of shape (R, L). Row r is, byte for byte, run r's
    ``params.npy`` (see ``_row_shapes`` for its parts). Every net and Adam
    moment is a view into ``state``: the actors are an (R,) stack and the
    twin critics an (R, 2) stack, critic 1 of every run ``critics[:, 0]``,
    with the Polyak targets and the Adam moments (one Adam state for the
    actors, one for the critics) in the same shapes. The runs share
    hyperparameters and counters.
    """

    def __init__(
        self,
        state: np.ndarray,
        hyper: Td3Hyper,
        obs_dim: int,
        action_dim: int,
        counters: tuple = FRESH_COUNTERS,
    ):
        shapes = _row_shapes(obs_dim, action_dim, hyper)
        width = sum(math.prod(shape) for shape in shapes)
        if (
            state.dtype != np.float64
            or state.ndim != 2
            or state.shape[1] != width
            or not state.flags.c_contiguous
        ):
            raise ShapeError(
                f"expected a C-contiguous float64 state of shape (runs, {width}), "
                f"got {state.dtype} {state.shape}"
            )
        self.state = state
        self.hyper = hyper
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.update_count, actor_steps, critic_steps = counters
        parts = nn.views(state, shapes)
        layouts = _layouts(obs_dim, action_dim, hyper) * 2
        self.actor, self.critics, self.target_actor, self.target_critics = (
            nn.DenseNet(sizes, params, hidden, output)
            for (sizes, hidden, output), params in zip(layouts, parts)
        )
        actor_m, actor_v, critic_m, critic_v = parts[4:]
        self.actor_opt = nn.AdamState(hyper.actor_lr, actor_m, actor_v, actor_steps)
        self.critic_opt = nn.AdamState(hyper.critic_lr, critic_m, critic_v, critic_steps)

    @property
    def runs(self) -> int:
        return len(self.state)

    def _like(self, state: np.ndarray) -> "Td3Agent":
        """A group holding ``state``, with this group's hyperparameters,
        dimensions and counters."""
        return Td3Agent(state, self.hyper, self.obs_dim, self.action_dim, _counters(self))

    def __deepcopy__(self, memo) -> "Td3Agent":
        # a memberwise deep copy would copy the views apart from the state
        return self._like(self.state.copy())


def _counters(agent: Td3Agent) -> tuple:
    return agent.update_count, agent.actor_opt.step_count, agent.critic_opt.step_count


def make_td3_agent(obs_dim: int, action_dim: int, hyper: Td3Hyper, seed: int = 0) -> Td3Agent:
    """A new group of one run: actor and twin critics drawn from ``seed``,
    targets equal to the online nets, optimizers at zero."""
    actor, critic = _layouts(obs_dim, action_dim, hyper)
    net_seeds = rng_for("agent-nets", seed).integers(0, 2**31, size=3)
    online = np.concatenate([
        nn.init_net(*layout, seed=s).params for layout, s in zip((actor, critic, critic), net_seeds)
    ])
    state = np.concatenate([online, online, np.zeros(2 * online.size)])
    return Td3Agent(state[None], hyper, obs_dim, action_dim)


def reset_parameters(agent: Td3Agent, seed: int) -> Td3Agent:
    """Re-initialize the agent in place, as if freshly constructed with
    ``seed``: new weights, zeroed optimizers, targets equal to online nets."""
    fresh = make_td3_agent(agent.obs_dim, agent.action_dim, agent.hyper, seed)
    agent.__dict__.update(fresh.__dict__)
    return agent


# --- lockstep groups ---


def checkpoint_counters(manifest: dict) -> tuple:
    """The counters that a checkpoint's manifest records: its update count
    and its actor's and critics' Adam steps, None for a count it lacks
    (``load_agent`` reports such a checkpoint as damaged)."""
    return tuple(manifest.get(name) for name in _COUNTERS)


def stack_agents(agents: list[Td3Agent]) -> Td3Agent:
    """A lockstep group holding copies of the runs of ``agents``, in order:
    their rows, concatenated. They must share hyperparameters, dimensions
    and counters, so that one update steps every run as its own update
    would."""

    def shared(agent: Td3Agent) -> tuple:
        return agent.hyper, agent.obs_dim, agent.action_dim, _counters(agent)

    if any(shared(a) != shared(agents[0]) for a in agents):
        raise ValueError("stacked groups must share hyper, dimensions and counters")
    return agents[0]._like(np.concatenate([a.state for a in agents]))


def select_runs(group: Td3Agent, runs: list[int]) -> Td3Agent:
    """A lockstep group of copies of the runs ``runs`` of ``group``, in that
    order: their rows."""
    return group._like(group.state[runs])


# --- acting ---


def _normal(rngs: list[np.random.Generator], sigma: float, shape: tuple) -> np.ndarray:
    """Gaussian draws of ``shape``, whose leading axis is a group's runs:
    each run's slice from its own generator in ``rngs``, as that run alone
    would draw it."""
    draws = [g.normal(0.0, sigma, size=(1, *shape[1:])) for g in rngs]
    # concatenating a lone run's draws would only copy them
    return draws[0] if len(draws) == 1 else np.concatenate(draws)


def _actions(actor: nn.DenseNet, obs: np.ndarray) -> np.ndarray:
    """The actor's output on each row of ``obs``, each row as its own
    (1, obs_dim) slice, with the leading shape of ``obs``."""
    obs = np.asarray(obs, dtype=np.float64)
    return nn.forward(actor, obs[..., None, :]).reshape(*obs.shape[:-1], actor.out_dim)


def act(agent: Td3Agent, obs: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """The exploring action of each run of the group: its actor's output
    on its observation row, plus Gaussian noise from its generator, clipped.

    ``obs`` holds one row per run, (runs, obs_dim), and ``rngs`` one
    generator per run. Each row runs as its own (1, obs_dim) slice, so a
    row's action equals that of its run acting alone, bit for bit.
    """
    a = _actions(agent.actor, obs)
    if a.shape[:-1] != (agent.runs,) or len(rngs) != agent.runs:
        raise ValueError("exploring takes one row and one generator per run")
    a = a + _normal(rngs, agent.hyper.explore_noise, a.shape)
    return np.minimum(np.maximum(a, -1.0), 1.0)  # np.clip, bit for bit, faster


def policy_fn(actor: nn.DenseNet):
    """The evaluation policy (no exploration noise) of a stack of actors,
    one per policy that ``envs.evaluate_policy`` scores: the (episodes,
    policies, obs_dim) observations act by their policy's actor. Each
    actor's weights are broadcast over its own rows, and each row runs as
    its own (1, obs_dim) slice, so a row's action equals that of the row
    alone, bit for bit, and no parameter is copied."""
    return lambda obs: np.minimum(np.maximum(_actions(actor, obs), -1.0), 1.0)


# --- the update ---


def _critic_targets(agent: Td3Agent, batch: TransitionBatch, rngs) -> np.ndarray:
    h = agent.hyper
    next_a = nn.forward(agent.target_actor, batch.next_obs)
    noise = np.clip(_normal(rngs, h.target_noise, next_a.shape), -h.noise_clip, h.noise_clip)
    next_a = np.clip(next_a + noise, -1.0, 1.0)
    x_next = np.concatenate([batch.next_obs, next_a], axis=-1)
    q_next = nn.forward(agent.target_critics, x_next[:, None])[..., 0]  # (runs, 2, batch)
    q_next = np.minimum(q_next[:, 0], q_next[:, 1])
    # bootstrap is masked on termination but not on time-limit truncation
    return batch.reward + h.gamma * (1.0 - batch.terminated) * q_next


def _actor_gradients(agent: Td3Agent, batch: TransitionBatch, reg: RegularizerConfig):
    """Gradient of the (optionally BC-regularized) actor loss, and the loss
    of each run. Each run's loss and lambda are reduced over its own rows."""
    n = batch.reward.shape[-1]
    actor_cache: list = []
    a = nn.forward(agent.actor, batch.obs, actor_cache)
    x = np.concatenate([batch.obs, a], axis=-1)
    critic1 = agent.critics[:, 0]
    critic_cache: list = []
    q1 = nn.forward(critic1, x, critic_cache)[..., 0]
    bc_err = a - batch.action
    sq_err = (bc_err**2).reshape(agent.runs, n, -1)
    lam, loss = [], []
    for q, sq in zip(q1, sq_err):
        lam.append(
            1.0 / max(float(np.mean(np.abs(q))), 1e-8) if reg.q_normalization else 1.0
        )
        loss.append(-lam[-1] * float(np.mean(q)) + reg.bc_coefficient * float(np.mean(sq)))
    # d(mean q1)/da through the critic's action inputs
    dq_din = nn.input_backward(critic1, critic_cache, np.full((*q1.shape, 1), 1.0 / n))
    da = -np.reshape(lam, (agent.runs, 1, 1)) * dq_din[..., agent.obs_dim :]
    if reg.bc_coefficient:
        da = da + (2.0 * reg.bc_coefficient / (n * agent.action_dim)) * bc_err
    return nn.backward(agent.actor, actor_cache, da), np.array(loss)


def td3_update(
    agent: Td3Agent,
    batch: TransitionBatch,
    reg: RegularizerConfig,
    rngs: list[np.random.Generator],
) -> dict[int, str]:
    """One TD3 step of every run of the group: twin-critic regression,
    delayed actor update, Polyak targets.

    ``batch`` holds one batch per run, every field with a leading run axis
    (as ``data.ReplayBuffer.sample`` gathers it), and ``rngs`` one
    generator per run. Each run steps exactly as its own update would:
    every product and elementwise step acts on its slices alone, and every
    loss and lambda is reduced over its own rows.

    Returns {run: reason} for the runs whose update blew up: a non-finite
    critic target, critic loss, actor loss or gradient entry. Their
    parameters are then garbage, which later updates may report again;
    every other run has stepped as above, whatever the failed runs hold.
    """
    n = batch.reward.shape[-1]
    if n == 0:
        raise ValueError("batch must be non-empty")
    h = agent.hyper
    failed: dict[int, str] = {}

    def check(values: np.ndarray, reason: str) -> None:
        """Fail, with ``reason``, each run with a non-finite entry in its
        slice of ``values``, whose leading axis is the runs."""
        if not np.isfinite(values).all():
            ok = np.isfinite(values).reshape(agent.runs, -1).all(axis=1)
            for run in np.flatnonzero(~ok):
                failed.setdefault(int(run), reason)

    def step(net: nn.DenseNet, grad: np.ndarray, opt: nn.AdamState) -> None:
        """One Adam step of ``net`` with the failed runs' slices zeroed, so
        that it stays finite. ``adam_step``'s scan of ``grad`` is its one
        scan unless it finds a non-finite entry."""
        if failed:
            grad[list(failed)] = 0.0
        try:
            nn.adam_step(net, grad, opt)
        except NumericError:
            check(grad, "non-finite gradient entry")
            grad[list(failed)] = 0.0
            nn.adam_step(net, grad, opt)

    # the checks find every non-finite value; the failed runs go on
    # computing with theirs, and the caller ignores them
    with np.errstate(all="ignore"):
        y = _critic_targets(agent, batch, rngs)
        check(y, "non-finite critic target")

        x = np.concatenate([batch.obs, batch.action], axis=-1)
        cache: list = []
        err = nn.forward(agent.critics, x[:, None], cache)[..., 0] - y[:, None]
        # each critic's loss is finite where its sum of squared errors is
        check(
            (err * err).sum(axis=-1),
            f"critic loss is not finite at update {agent.update_count + 1}",
        )
        grad = nn.backward(agent.critics, cache, ((2.0 / n) * err)[..., None])
        step(agent.critics, grad, agent.critic_opt)

        agent.update_count += 1
        if agent.update_count % h.policy_delay == 0:
            grad, actor_loss = _actor_gradients(agent, batch, reg)
            check(actor_loss, f"actor loss is not finite at update {agent.update_count}")
            step(agent.actor, grad, agent.actor_opt)

        nn.polyak_update(agent.target_actor, agent.actor, h.tau)
        nn.polyak_update(agent.target_critics, agent.critics, h.tau)
    return failed


# --- pretraining ---


def bc_pretrain(group: Td3Agent, dataset: OfflineDataset, steps: int, seeds: list[int]) -> None:
    """Behavior cloning of a lockstep group, in place, one seed per run:
    each run's actor regressed onto the dataset actions of its own batches,
    drawn by its seed's generator, and stepped by the group's actor
    optimizer."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    buf = ReplayBuffer.from_dataset(dataset)
    rngs = [rng_for("bc", s) for s in seeds]
    actor, n = group.actor, group.hyper.batch
    for _ in range(steps):
        batch = buf.sample(n, rngs)
        cache: list = []
        err = nn.forward(actor, batch.obs, cache) - batch.action
        grad = nn.backward(actor, cache, (2.0 / (n * group.action_dim)) * err)
        nn.adam_step(actor, grad, group.actor_opt)


def fqe(group: Td3Agent, dataset: OfflineDataset, steps: int, seeds: list[int]) -> None:
    """Fitted Q evaluation of a lockstep group's actors from dataset
    transitions, in place, one seed per run: each run's critic 1 regresses
    toward the bootstrap of its target critic 1 on its own batches, with
    critic 1's slices of the group's critic optimizer."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    buf = ReplayBuffer.from_dataset(dataset)
    rngs = [rng_for("fqe", s) for s in seeds]
    h = group.hyper
    critic, target = group.critics[:, 0], group.target_critics[:, 0]
    opt = nn.AdamState(h.critic_lr, group.critic_opt.m[:, 0], group.critic_opt.v[:, 0])
    for _ in range(steps):
        batch = buf.sample(h.batch, rngs)
        next_a = nn.forward(group.actor, batch.next_obs)
        x_next = np.concatenate([batch.next_obs, next_a], axis=-1)
        q_next = nn.forward(target, x_next)[..., 0]
        y = batch.reward + h.gamma * (1.0 - batch.terminated) * q_next
        x = np.concatenate([batch.obs, batch.action], axis=-1)
        cache: list = []
        q = nn.forward(critic, x, cache)[..., 0]
        grad = nn.backward(critic, cache, (2.0 / h.batch) * (q - y)[..., None])
        nn.adam_step(critic, grad, opt)
        nn.polyak_update(target, critic, h.tau)


def agent_from_bc_fqe(group: Td3Agent) -> Td3Agent:
    """Ready a group that ``bc_pretrain`` and ``fqe`` trained for
    fine-tuning, in place: each run's FQE critic fills both of its twin
    slots, the targets restart equal to the online nets, and the
    optimizers and counters restart at zero. Returns ``group``."""
    group.critics.params[:, 1] = group.critics.params[:, 0]
    group.target_actor.params[...] = group.actor.params
    group.target_critics.params[...] = group.critics.params
    for opt in (group.actor_opt, group.critic_opt):
        opt.m[...] = opt.v[...] = 0.0
        opt.step_count = 0
    group.update_count = 0
    return group


def offline_rl_pretrain(
    group: Td3Agent, dataset: OfflineDataset, steps: int, beta: float, seeds: list[int]
) -> None:
    """Behavior-regularized TD3 of a lockstep group, in place, one seed per
    run, trained purely on dataset batches. Each run's generator samples
    its batch and then draws its target noise, so each run equals the one
    its seed trains alone. Raises NumericError when any run's update blows
    up."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be > 0 for offline pretraining")
    reg = RegularizerConfig(bc_coefficient=beta, q_normalization=True)
    buf = ReplayBuffer.from_dataset(dataset)
    rngs = [rng_for("offline-rl", s) for s in seeds]
    for _ in range(steps):
        batch = buf.sample(group.hyper.batch, rngs)
        failed = td3_update(group, batch, reg, rngs)
        if failed:
            raise NumericError(failed[min(failed)])


# --- checkpoints ---

PARAMS_FILE = "params.npy"


def save_agent(agent: Td3Agent, directory, extra: dict | None = None) -> None:
    """Write the row of the group of one ``agent`` to ``params.npy`` (one
    float64 vector) and the rest of its state to ``manifest.json``."""
    if agent.runs != 1:
        raise ValueError(f"a checkpoint holds one run, not {agent.runs}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_npy_atomic(directory / PARAMS_FILE, agent.state[0])
    manifest = {
        "hyper": asdict(agent.hyper),
        "obs_dim": agent.obs_dim,
        "action_dim": agent.action_dim,
        **dict(zip(_COUNTERS, _counters(agent))),
    }
    if extra:
        manifest.update(extra)
    write_json_atomic(directory / MANIFEST_FILE, manifest)


def _manifest_fields(
    hyper: Td3Hyper,
    obs_dim: int,
    action_dim: int,
    update_count: int,
    actor_adam_steps: int,
    critic_adam_steps: int,
    **extra,
) -> tuple:
    """The fields of a checkpoint manifest (typed by ``parse``) that rebuild
    its agent around its row: hyper, dimensions and counters. ``extra``
    holds the keys that the caller of ``save_agent`` added."""
    return hyper, obs_dim, action_dim, (update_count, actor_adam_steps, critic_adam_steps)


def load_agent(directory) -> Td3Agent:
    """The group of one saved in ``directory``, whose row is its
    ``params.npy``; a missing or damaged checkpoint is a MissingInputError."""
    directory = Path(directory)
    if not (directory / PARAMS_FILE).exists() or not (directory / MANIFEST_FILE).exists():
        raise MissingInputError(
            f"no {PARAMS_FILE} checkpoint in {directory} (missing, or written by an "
            "older o2olab); re-run `o2olab pretrain --force`"
        )
    try:
        hyper, obs_dim, action_dim, counters = parse(
            _manifest_fields, read_json(directory / MANIFEST_FILE), "manifest"
        )
        row = np.load(directory / PARAMS_FILE)
    except (ValueError, EOFError) as exc:  # bad JSON, a mistyped field, a cut .npy
        raise MissingInputError(
            f"{directory} holds a damaged checkpoint ({exc}); re-run `o2olab pretrain --force`"
        ) from None
    except OSError as exc:  # a directory in a file's place, say
        raise MissingInputError(
            f"{exc.filename} cannot be read ({exc.strerror}); remove it and re-run "
            "`o2olab pretrain --force`"
        ) from None
    try:
        return Td3Agent(row[None], hyper, obs_dim, action_dim, counters)
    except ShapeError:
        raise MissingInputError(
            f"{directory / PARAMS_FILE} does not match its manifest; "
            "re-run `o2olab pretrain --force`"
        ) from None
