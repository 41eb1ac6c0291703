"""TD3 agents: pretraining (behavior cloning + fitted Q evaluation, or
behavior-regularized TD3) and the shared online update rule.

The actor update minimizes ``-lambda * Q1(s, actor(s)) + beta * MSE(actor(s),
batch actions)`` where lambda is 1/mean|Q1| when Q-normalization is on.
beta = 0 with normalization off recovers plain TD3.

Every agent is a lockstep group of R >= 1 runs; a single run is a group of
one. One update steps every run as its own update would and reports the
runs that blew up.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import nn
from .data import OfflineDataset, ReplayBuffer, TransitionBatch, stack_batches
from .errors import MissingInputError, NumericError, parse
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


@dataclass(frozen=True)
class RegularizerConfig:
    bc_coefficient: float = 0.0  # beta; 0 recovers plain TD3
    q_normalization: bool = False

    def __post_init__(self):
        if self.bc_coefficient < 0:
            raise ValueError("bc_coefficient must be >= 0")


@dataclass
class Td3Agent:
    """A lockstep group of ``runs`` runs: the R actors as one stacked net,
    the 2R critics as another (critic 1 of every run, in run order, then
    critic 2 of every run, so the critics the actors ascend are the first R
    members), with their Polyak targets and Adam moments (one Adam state
    for the actors, one for the critics) in the same layouts. A group of
    one holds a single run's layout. The runs share hyperparameters and
    counters.
    """

    actor: nn.DenseNet
    critics: nn.DenseNet
    target_actor: nn.DenseNet
    target_critics: nn.DenseNet
    actor_opt: nn.AdamState
    critic_opt: nn.AdamState
    hyper: Td3Hyper
    update_count: int = 0

    @property
    def runs(self) -> int:
        return self.actor.stack

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
    """The one agent constructor, a group of one: targets start equal to the
    online nets, optimizers start at zero."""
    actor = nn.stack_nets([actor])
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


# --- lockstep groups ---

# which of ``_state_arrays`` hold a critic pair per run
_PAIRED = (False, True, False, True, False, False, True, True)


def _run_rows(array: np.ndarray, runs: int, paired: bool) -> np.ndarray:
    """A group's state array as (runs, n) rows, row r in the layout of run
    r's own array as a group of one holds it."""
    if paired:  # critic 1 of every run, then critic 2 of every run
        return array.reshape(2, runs, -1).swapaxes(0, 1).reshape(runs, -1)
    return array.reshape(runs, -1)


def _group_array(rows: np.ndarray, paired: bool) -> np.ndarray:
    """The inverse of ``_run_rows``: a new flat vector."""
    if paired:
        return rows.reshape(len(rows), 2, -1).swapaxes(0, 1).ravel()
    return rows.ravel()


def _with_state(like: Td3Agent, arrays: list[np.ndarray], runs: int) -> Td3Agent:
    """An agent of ``runs`` runs holding ``arrays``, in the order and layout
    of ``_state_arrays``, with the nets, learning rates, hyperparameters and
    counters of ``like``."""
    pair = 2 * runs
    nets = [
        nn.DenseNet(net.layer_sizes, params, net.hidden_activation, net.output_activation, stack)
        for net, params, stack in zip(
            (like.actor, like.critics, like.actor, like.critics),
            arrays[:4],
            (runs, pair, runs, pair),
        )
    ]
    opts = [
        nn.AdamState(opt.learning_rate, m, v, opt.step_count)
        for opt, m, v in ((like.actor_opt, *arrays[4:6]), (like.critic_opt, *arrays[6:8]))
    ]
    return Td3Agent(*nets, *opts, hyper=like.hyper, update_count=like.update_count)


def _counters(agent: Td3Agent) -> tuple:
    return agent.hyper, agent.update_count, agent.actor_opt.step_count, agent.critic_opt.step_count


def stack_agents(agents: list[Td3Agent]) -> Td3Agent:
    """A lockstep group holding copies of the groups of one ``agents`` as
    its runs, in order. They must share hyperparameters and counters, so
    that one update steps every run as its own update would."""
    first = agents[0]
    if any(a.runs != 1 or _counters(a) != _counters(first) for a in agents):
        raise ValueError("a lockstep group stacks groups of one that share hyper and counters")
    columns = zip(*(_state_arrays(a) for a in agents))
    arrays = [_group_array(np.stack(c), paired) for c, paired in zip(columns, _PAIRED)]
    return _with_state(first, arrays, len(agents))


def select_runs(group: Td3Agent, keep: list[int]) -> Td3Agent:
    """A lockstep group of copies of the runs ``keep`` of ``group``, in that
    order."""
    arrays = [
        _group_array(_run_rows(a, group.runs, paired)[keep], paired)
        for a, paired in zip(_state_arrays(group), _PAIRED)
    ]
    return _with_state(group, arrays, len(keep))


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


def act(
    agent: Td3Agent,
    obs: np.ndarray,
    explore: bool = False,
    rngs: list[np.random.Generator] | None = None,
) -> np.ndarray:
    """Deterministic actor output, plus clipped Gaussian noise when exploring.

    A group takes one row per run, (runs, obs_dim), each acting by its
    run's actor; a group of one also takes one observation (obs_dim,) or
    any stack of rows. The result has the leading shape of ``obs``. Each
    row runs as its own (1, obs_dim) slice, so a row's action equals
    ``act`` on that row alone, bit for bit. Exploring takes one row per
    run and a list of generators, one per run, each drawing its run's
    noise.
    """
    a = _actions(agent.actor, obs)
    if explore:
        if rngs is None or a.shape[:-1] != (agent.runs,) or len(rngs) != agent.runs:
            raise ValueError("exploring takes one row and one generator per run")
        a = a + _normal(rngs, agent.hyper.explore_noise, a.shape)
    return np.minimum(np.maximum(a, -1.0), 1.0)  # np.clip, bit for bit, faster


def policy_fn(agent: Td3Agent):
    """The group's evaluation policy (no exploration noise),
    ``policy(obs, runs)``: row i of the (rows, obs_dim) stack ``obs`` acts
    by the actor of run ``runs[i]``, alone, as it would under that run's
    own policy (see ``envs.evaluate_policy``). The rows go through one
    forward pass of a stack holding each row's actor, rebuilt only when the
    runs of the rows change.
    """
    actor = agent.actor
    members = actor.params.reshape(agent.runs, -1)
    rows = {}  # the stack of each row's actor, by the rows' runs

    def policy(obs, runs):
        key = runs.tobytes()
        if key not in rows:
            rows.clear()
            rows[key] = nn.DenseNet(
                actor.layer_sizes, members[runs].ravel(),
                actor.hidden_activation, actor.output_activation, len(runs),
            )
        return np.minimum(np.maximum(_actions(rows[key], obs), -1.0), 1.0)

    return policy


# --- the update ---


def _pair(agent: Td3Agent, x: np.ndarray) -> np.ndarray:
    """The critic pair's (runs, batch, in) input: a group of one's, as it
    is, broadcast over its two critics; a larger group's once for each
    critic half."""
    return x if agent.runs == 1 else np.concatenate([x, x])


def _critic_targets(agent: Td3Agent, batch: TransitionBatch, rngs) -> np.ndarray:
    h = agent.hyper
    next_a = nn.forward(agent.target_actor, batch.next_obs)
    noise = np.clip(_normal(rngs, h.target_noise, next_a.shape), -h.noise_clip, h.noise_clip)
    next_a = np.clip(next_a + noise, -1.0, 1.0)
    x_next = np.concatenate([batch.next_obs, next_a], axis=-1)
    q1_next, q2_next = nn.forward(agent.target_critics, _pair(agent, x_next)).reshape(
        (2, *batch.reward.shape)
    )
    q_next = np.minimum(q1_next, q2_next)
    # bootstrap is masked on termination but not on time-limit truncation
    return batch.reward + h.gamma * (1.0 - batch.terminated) * q_next


def _actor_gradients(agent: Td3Agent, batch: TransitionBatch, reg: RegularizerConfig):
    """Gradient of the (optionally BC-regularized) actor loss, and the loss
    of each run. Each run's loss and lambda are reduced over its own rows."""
    n = batch.reward.shape[-1]
    actor_cache: list = []
    a = nn.forward(agent.actor, batch.obs, actor_cache)
    x = np.concatenate([batch.obs, a], axis=-1)
    critics = agent.critics
    critic1 = nn.DenseNet(  # critic 1 of each run: the first half of the pair
        critics.layer_sizes, critics.params[: critics.params.size // 2],
        critics.hidden_activation, critics.output_activation, agent.runs,
    )
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
    (see ``data.stack_batches``), and ``rngs`` one generator per run. Each
    run steps exactly as its own update would: every product and
    elementwise step acts on its slices alone, and every loss and lambda is
    reduced over its own rows.

    Returns {run: reason} for the runs whose update blew up: a non-finite
    critic target, critic loss, actor loss or gradient entry. Their
    parameters are then garbage, and the caller drops them
    (``select_runs``); every other run has stepped as above.
    """
    n = batch.reward.shape[-1]
    if n == 0:
        raise ValueError("batch must be non-empty")
    h = agent.hyper
    failed: dict[int, str] = {}

    def check(values: np.ndarray, halves: int, reason: str) -> None:
        """Fail, with ``reason``, each run with a non-finite entry in its
        slices of ``values``: ``halves`` slices of every run, in run order."""
        if not np.isfinite(values).all():
            ok = np.isfinite(values).reshape(halves, agent.runs, -1).all(axis=(0, 2))
            for run in np.flatnonzero(~ok):
                failed.setdefault(int(run), reason)

    def step(net: nn.DenseNet, grad: np.ndarray, opt: nn.AdamState, halves: int) -> None:
        """One Adam step of ``net`` with the failed runs' slices zeroed, so
        that it stays finite. ``adam_step``'s scan of ``grad`` is its one
        scan unless it finds a non-finite entry."""
        per_run = grad.reshape(halves, agent.runs, -1)
        if failed:
            per_run[:, list(failed)] = 0.0
        try:
            nn.adam_step(net, grad, opt)
        except NumericError:
            check(grad, halves, "non-finite gradient entry")
            per_run[:, list(failed)] = 0.0
            nn.adam_step(net, grad, opt)

    # the checks find every non-finite value; the failed runs go on
    # computing with theirs until the caller drops them
    with np.errstate(all="ignore"):
        y = _critic_targets(agent, batch, rngs)
        check(y, 1, "non-finite critic target")

        x = np.concatenate([batch.obs, batch.action], axis=-1)
        cache: list = []
        err = nn.forward(agent.critics, _pair(agent, x), cache).reshape((2, *y.shape)) - y
        # each critic's loss is finite where its sum of squared errors is
        check(
            (err * err).sum(axis=-1), 2,
            f"critic loss is not finite at update {agent.update_count + 1}",
        )
        grad = nn.backward(agent.critics, cache, ((2.0 / n) * err).reshape(-1, n, 1))
        step(agent.critics, grad, agent.critic_opt, 2)

        agent.update_count += 1
        if agent.update_count % h.policy_delay == 0:
            grad, actor_loss = _actor_gradients(agent, batch, reg)
            check(actor_loss, 1, f"actor loss is not finite at update {agent.update_count}")
            step(agent.actor, grad, agent.actor_opt, 1)

        nn.polyak_update(agent.target_actor, agent.actor, h.tau)
        nn.polyak_update(agent.target_critics, agent.critics, h.tau)
    return failed


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
    as a group of one ready for fine-tuning."""
    return _assemble(actor, critic, critic, hyper)


def offline_rl_pretrain(
    dataset: OfflineDataset, steps: int, beta: float, seed: int, hyper: Td3Hyper
) -> Td3Agent:
    """Behavior-regularized TD3 trained purely on dataset batches, as a
    group of one; raises NumericError when its update blows up."""
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
        failed = td3_update(agent, stack_batches([buf.sample(hyper.batch, rng)]), reg, [rng])
        if failed:
            raise NumericError(failed[0])
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
        "hyper": asdict(agent.hyper),
        "obs_dim": agent.obs_dim,
        "action_dim": agent.action_dim,
        "update_count": agent.update_count,
        "actor_adam_steps": agent.actor_opt.step_count,
        "critic_adam_steps": agent.critic_opt.step_count,
    }
    if extra:
        manifest.update(extra)
    write_json_atomic(directory / MANIFEST_FILE, manifest)


def _agent_from_manifest(
    hyper: Td3Hyper,
    obs_dim: int,
    action_dim: int,
    update_count: int,
    actor_adam_steps: int,
    critic_adam_steps: int,
    **extra,
) -> Td3Agent:
    """A group of one with the counts of a checkpoint manifest (built by
    ``parse``, which types each field); ``extra`` holds the keys that the
    caller of ``save_agent`` added."""
    agent = make_td3_agent(obs_dim, action_dim, hyper)
    agent.update_count = update_count
    agent.actor_opt.step_count = actor_adam_steps
    agent.critic_opt.step_count = critic_adam_steps
    return agent


def load_agent(directory) -> Td3Agent:
    """The group of one saved in ``directory``; a missing or damaged
    checkpoint is a MissingInputError."""
    directory = Path(directory)
    if not (directory / PARAMS_FILE).exists() or not (directory / MANIFEST_FILE).exists():
        raise MissingInputError(
            f"no {PARAMS_FILE} checkpoint in {directory} (missing, or written by an "
            "older o2olab); re-run `o2olab pretrain --force`"
        )
    try:
        agent = parse(_agent_from_manifest, read_json(directory / MANIFEST_FILE), "manifest")
        flat = np.load(directory / PARAMS_FILE)
    except (ValueError, EOFError) as exc:  # bad JSON, a mistyped field, a cut .npy
        raise MissingInputError(
            f"{directory} holds a damaged checkpoint ({exc}); re-run `o2olab pretrain --force`"
        ) from None
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
    return agent
