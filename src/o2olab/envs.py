"""Desk-scale continuous-control environments and policy evaluation.

Two families: a 2-D point-mass goal reacher (sparse or dense reward) and a
torque-limited pendulum swing-up. Both are deterministic given a reset
seed; all randomness flows through numpy Generators.

One env object runs n episodes side by side, one state row each (see
``_Env``). Each episode keeps its own generator, so its rows are the same,
bit for bit, whatever else runs beside it. A row never moves: it holds its
episode until its caller starts a new one in it with ``restart``, and a
row whose episode has ended steps on while its caller ignores what it
returns. The fine-tune loop runs a row per run of its group and restarts
a run's row when the run's episode ends.

Every rollout goes through one loop (``_steps``): it steps every row until
every episode has ended, asking ``act(t, obs)`` for one action row per row
at step t, and tells which rows' episodes were still running. ``_returns``
adds each row's rewards while its episode runs: ``evaluate_policy`` asks
one policy call for the rows of every episode of several policies at
once, laid out as episodes x policies, and ``compute_reference_scores``
scores each behavior's episodes side by side. ``run_episodes`` (dataset
generation) keeps the steps each episode ran and returns them as columns,
episode after episode.

The scripted behaviors act row-wise too: ``behavior_act`` is one ``act``
for a set of trajectories, each of its own behavior kind and generator.
It takes the expert's action on every row that needs it at once, and
indexes by step the actions or noise that each uniform-random or
noisy-expert trajectory drew as one block at the start; only
``epsilon_mixture`` rows draw at each step, one row at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .seeding import rng_for, stable_seed

POINT_GOAL_SPARSE = "point_goal_sparse"
POINT_GOAL_DENSE = "point_goal_dense"
PENDULUM = "pendulum"
ENV_KINDS = (POINT_GOAL_SPARSE, POINT_GOAL_DENSE, PENDULUM)


@dataclass(frozen=True)
class EnvSpec:
    kind: str
    horizon: int
    obs_dim: int
    action_dim: int

    def to_dict(self) -> dict:
        return {"kind": self.kind, "horizon": self.horizon}


def env_spec(kind: str, horizon: int | None = None) -> EnvSpec:
    if horizon is not None and horizon < 1:
        raise ConfigError(f"env.horizon must be >= 1, got {horizon}")
    if kind in (POINT_GOAL_SPARSE, POINT_GOAL_DENSE):
        return EnvSpec(kind, horizon if horizon is not None else 100, 4, 2)
    if kind == PENDULUM:
        return EnvSpec(kind, horizon if horizon is not None else 200, 3, 1)
    raise ConfigError(f"unknown environment kind {kind!r}")


@dataclass
class StepResult:
    """One step of the env's rows, one row each, in the env's row order."""

    next_obs: np.ndarray  # (rows, obs_dim)
    reward: np.ndarray  # (rows,)
    terminated: np.ndarray  # (rows,) bool
    truncated: np.ndarray  # (rows,) bool

    @property
    def done(self) -> np.ndarray:
        return self.terminated | self.truncated


def wrap_angle(theta: float) -> float:
    """Map an angle to (-pi, pi]."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


class _Env:
    """Episodes side by side, one row each.

    ``reset`` starts one episode per seed; every state array then has a
    leading axis over the rows, in seed order. ``step`` takes one action
    row per row and returns one row each. The rows stay fixed: a row whose
    episode has ended steps on, past its end, and what it returns means
    nothing. ``restart`` starts a new episode in place of a row's, leaving
    every other row as it was.

    The env counts its steps in ``_t``, and each row the count at which its
    episode started, so rows that started apart truncate apart, each at the
    horizon of its own episode.
    """

    _STATE: tuple[str, ...] = ()  # the attributes holding per-episode rows

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        self._t = 0
        self._started = np.zeros(0, dtype=np.int64)  # per row, ``_t`` at its start

    def reset(self, seeds) -> np.ndarray:
        """Start one episode per seed in place of any rows; returns the
        (n, obs_dim) observations."""
        self._t = 0
        state, obs = self._draw([np.random.default_rng(seed) for seed in seeds])
        for name, rows in zip(self._STATE, state):
            setattr(self, name, rows)
        self._started = np.zeros(len(obs), dtype=np.int64)
        return obs

    def restart(self, rows, seeds) -> np.ndarray:
        """Start one episode per seed in place, the i-th in row
        ``rows[i]``, leaving every other row as it was; returns the new
        episodes' (n, obs_dim) observations."""
        state, obs = self._draw([np.random.default_rng(seed) for seed in seeds])
        for name, new_rows in zip(self._STATE, state):
            getattr(self, name)[rows] = new_rows
        self._started[rows] = self._t
        return obs

    def step(self, actions) -> StepResult:
        n = len(self._started)
        if not n:
            raise RuntimeError("step() called on an env with no rows; reset first")
        a = np.asarray(actions, dtype=np.float64)
        if a.shape != (n, self.spec.action_dim):
            raise ShapeError(
                f"expected actions of shape ({n}, {self.spec.action_dim}), got {a.shape}"
            )
        self._t += 1
        # np.clip, bit for bit, faster
        obs, reward, terminated = self._transition(np.minimum(np.maximum(a, -1.0), 1.0))
        truncated = ~terminated & (self._t - self._started >= self.spec.horizon)
        return StepResult(obs, reward, terminated, truncated)

    def _draw(self, rngs) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The state rows (one array per ``_STATE`` name) and observations
        of one new episode per generator, starting at step ``_t``."""
        raise NotImplementedError

    def _transition(self, actions):
        """Advance every row; returns (obs, reward, terminated) rows."""
        raise NotImplementedError


class PointGoalEnv(_Env):
    """Point mass in [0, 10]^2 steered toward a fixed goal at (9, 9).

    Each episode draws its start position and then its whole noise sequence
    at its start, from its own generator; ``normal(size=(horizon, 2))`` row
    t equals the t-th ``normal(size=2)`` draw, so the episode is the same as
    one drawing its noise step by step. A row holds its noise rotated by
    the env's step count at its start, so every row's noise for the next
    step is column ``_t mod horizon``.
    """

    STEP_GAIN = 0.3
    GOAL_RADIUS = 0.5
    ARENA_LO, ARENA_HI = 0.0, 10.0
    NOISE_SIGMA = 0.01
    GOAL = np.array([9.0, 9.0])
    _STATE = ("_pos", "_noise")

    def __init__(self, spec: EnvSpec):
        super().__init__(spec)
        self._pos = np.zeros((0, 2))
        self._noise = np.zeros((0, spec.horizon, 2))

    def _draw(self, rngs):
        n, horizon = len(rngs), self.spec.horizon
        pos = np.empty((n, 2))
        noise = np.empty((n, horizon, 2))
        for i, rng in enumerate(rngs):
            pos[i] = rng.uniform(self.ARENA_LO, self.ARENA_HI, size=2)
            noise[i] = rng.normal(0.0, self.NOISE_SIGMA, size=(horizon, 2))
        shift = self._t % horizon
        if shift:  # the episode's step k reads column (_t + k) mod horizon
            noise = np.concatenate((noise[:, horizon - shift :], noise[:, : horizon - shift]), 1)
        return (pos, noise), np.concatenate((pos, self.GOAL - pos), axis=1)

    def _transition(self, actions):
        noise = self._noise[:, (self._t - 1) % self.spec.horizon]
        pos = np.minimum(
            np.maximum(
                self._pos + self.STEP_GAIN * actions + noise,
                self.ARENA_LO,
            ),
            self.ARENA_HI,
        )
        self._pos = pos
        to_goal = self.GOAL - pos
        # per row the dot product d.dot(d) that np.linalg.norm computes, bit
        # for bit; (d * d).sum(1) rounds differently on some rows
        dist = np.sqrt(np.matmul(to_goal[:, None, :], to_goal[:, :, None])[:, 0, 0])
        at_goal = dist <= self.GOAL_RADIUS
        if self.spec.kind == POINT_GOAL_SPARSE:
            reward = at_goal.astype(np.float64)
        else:
            reward = dist / -10.0  # -dist / 10.0, bit for bit
        return np.concatenate((pos, to_goal), axis=1), reward, at_goal


class PendulumEnv(_Env):
    """Torque-limited pendulum; theta = 0 is upright and unstable.

    The dynamics run in scalar ``math``, row by row: numpy's sin and cos
    need not round as ``math`` does, and pendulum settings run few episodes
    side by side.
    """

    GRAVITY = 10.0
    MASS = 1.0
    LENGTH = 1.0
    DT = 0.05
    MAX_TORQUE = 2.0
    MAX_SPEED = 8.0
    _STATE = ("_theta", "_theta_dot")

    def __init__(self, spec: EnvSpec):
        super().__init__(spec)
        self._theta = np.zeros(0)
        self._theta_dot = np.zeros(0)

    @staticmethod
    def _observe(theta: np.ndarray, theta_dot: np.ndarray) -> np.ndarray:
        """The (n, 3) observations of the states (theta, theta_dot)."""
        return np.array(
            [
                [math.cos(t), math.sin(t), t_dot]
                for t, t_dot in zip(theta.tolist(), theta_dot.tolist())
            ]
        ).reshape(-1, 3)

    def _draw(self, rngs):
        theta = np.empty(len(rngs))
        theta_dot = np.empty(len(rngs))
        for i, rng in enumerate(rngs):
            theta[i] = rng.uniform(-math.pi, math.pi)
            theta_dot[i] = rng.uniform(-1.0, 1.0)
        return (theta, theta_dot), self._observe(theta, theta_dot)

    def _transition(self, actions):
        g, m, l, dt = self.GRAVITY, self.MASS, self.LENGTH, self.DT
        n = len(self._theta)
        obs = np.empty((n, 3))
        reward = np.empty(n)
        rows = zip(self._theta.tolist(), self._theta_dot.tolist(), actions[:, 0].tolist())
        for i, (theta, theta_dot, a) in enumerate(rows):
            torque = self.MAX_TORQUE * a
            # cost uses the pre-step state and the applied torque
            reward[i] = -(wrap_angle(theta) ** 2 + 0.1 * theta_dot**2 + 0.001 * torque**2)
            accel = 3.0 * g / (2.0 * l) * math.sin(theta) + 3.0 * torque / (m * l * l)
            theta_dot = min(max(theta_dot + accel * dt, -self.MAX_SPEED), self.MAX_SPEED)
            theta = theta + theta_dot * dt
            self._theta[i], self._theta_dot[i] = theta, theta_dot
            obs[i] = (math.cos(theta), math.sin(theta), theta_dot)
        return obs, reward, np.zeros(n, dtype=bool)


def make_env(spec: EnvSpec) -> _Env:
    if spec.kind in (POINT_GOAL_SPARSE, POINT_GOAL_DENSE):
        return PointGoalEnv(spec)
    if spec.kind == PENDULUM:
        return PendulumEnv(spec)
    raise ConfigError(f"unknown environment kind {spec.kind!r}")


# --- scripted behavior policies ---

UNIFORM_RANDOM = "uniform_random"
EXPERT = "expert"
NOISY_EXPERT = "noisy_expert"
EPSILON_MIXTURE = "epsilon_mixture"
BEHAVIOR_KINDS = (UNIFORM_RANDOM, EXPERT, NOISY_EXPERT, EPSILON_MIXTURE)


@dataclass(frozen=True)
class BehaviorSpec:
    kind: str
    sigma: float = 0.0  # noisy_expert noise scale
    epsilon: float = 0.0  # epsilon_mixture random-action probability

    def __post_init__(self):
        if self.kind not in BEHAVIOR_KINDS:
            raise ConfigError(f"unknown behavior kind {self.kind!r}")
        if not self.sigma >= 0.0:  # NaN too, which JSON's NaN literal gives
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0, 1]")
        for key, owner in (("sigma", NOISY_EXPERT), ("epsilon", EPSILON_MIXTURE)):
            if getattr(self, key) and self.kind != owner:
                raise ConfigError(
                    f"{key} is a parameter of kind {owner!r} only; "
                    f"kind {self.kind!r} has {key} {getattr(self, key)}"
                )


# Pendulum swing-up controller. Pumps total energy toward the upright level
# with bang-bang torque, then hands over to a PD law inside the catch zone.
# Gains tuned in simulation: from a hanging start the controller reaches
# |wrap(theta)| < 0.2 within 150 steps.
_PEND_INERTIA = PendulumEnv.MASS * PendulumEnv.LENGTH**2 / 3.0
_PEND_UPRIGHT_ENERGY = PendulumEnv.MASS * PendulumEnv.GRAVITY * PendulumEnv.LENGTH / 2.0
_PEND_CATCH_ANGLE = 0.6
_PEND_CATCH_RATE = 3.0
_PEND_KP = 8.0
_PEND_KD = 2.0


def _pendulum_expert(cos_t: float, sin_t: float, theta_dot: float) -> float:
    theta = math.atan2(sin_t, cos_t)
    max_t = PendulumEnv.MAX_TORQUE
    if abs(theta) < _PEND_CATCH_ANGLE and abs(theta_dot) < _PEND_CATCH_RATE:
        torque = -_PEND_KP * theta - _PEND_KD * theta_dot
    else:
        energy = 0.5 * _PEND_INERTIA * theta_dot**2 + _PEND_UPRIGHT_ENERGY * cos_t
        direction = math.copysign(1.0, theta_dot) if abs(theta_dot) > 1e-3 else 1.0
        torque = max_t * direction * math.copysign(1.0, _PEND_UPRIGHT_ENERGY - energy)
    return min(max(torque / max_t, -1.0), 1.0)


def expert_actions(spec: EnvSpec, obs: np.ndarray) -> np.ndarray:
    """The expert's (n, action_dim) actions on (n, obs_dim) observation
    rows, each row's action a function of that row alone.

    The pendulum expert runs row by row in scalar ``math``: numpy's
    ``arctan2`` need not round as ``math.atan2`` does."""
    if spec.kind == PENDULUM:
        return np.array([_pendulum_expert(*row) for row in obs.tolist()]).reshape(-1, 1)
    # obs carries (goal - pos) in its last two columns
    return np.minimum(np.maximum(obs[:, 2:4], -1.0), 1.0)


def behavior_act(spec: EnvSpec, behaviors: list[BehaviorSpec], rngs: list[np.random.Generator]):
    """One ``act(t, obs)`` for ``run_episodes``: trajectory i acts by
    ``behaviors[i]``, drawing from its own generator ``rngs[i]`` as it
    would draw step by step alone. Every trajectory starts at the env's
    reset, and ``act`` gets every row at each step t.

    A uniform-random or noisy-expert trajectory draws its whole horizon of
    actions or noise at once: row t of ``uniform(-1, 1, size=(horizon,
    action_dim))`` or ``normal(0, sigma, size=(horizon, action_dim))`` is
    its t-th per-step draw. An ``epsilon_mixture`` trajectory draws
    ``random()``, and ``uniform(-1, 1, size=action_dim)`` when it acts at
    random, at each step, the rows in order; past its episode's end it
    draws on, and nothing reads those draws. Every other row takes the
    expert's action on its observation, a noisy expert's with its noise
    added and clipped to [-1, 1].
    """
    n, horizon, width = len(behaviors), spec.horizon, spec.action_dim
    drawn = np.zeros((horizon, n, width))  # per step, each trajectory's draw
    for i, (behavior, rng) in enumerate(zip(behaviors, rngs)):
        if behavior.kind == UNIFORM_RANDOM:
            drawn[:, i] = rng.uniform(-1.0, 1.0, size=(horizon, width))
        elif behavior.kind == NOISY_EXPERT:
            drawn[:, i] = rng.normal(0.0, behavior.sigma, size=(horizon, width))
    uniform, noisy, mixing = (
        np.array([b.kind == kind for b in behaviors], dtype=bool)
        for kind in (UNIFORM_RANDOM, NOISY_EXPERT, EPSILON_MIXTURE)
    )
    mixing = np.flatnonzero(mixing).tolist()

    def act(t, obs):
        actions = drawn[t].copy()  # right for the uniform-random rows
        scripted = ~uniform  # the rows that take the expert's action
        for i in mixing:
            if rngs[i].random() < behaviors[i].epsilon:
                actions[i] = rngs[i].uniform(-1.0, 1.0, size=width)
                scripted[i] = False
        rows = np.flatnonzero(scripted)
        if len(rows):
            expert = expert_actions(spec, obs[rows])
            shaken = noisy[rows]
            if shaken.any():
                noise = actions[rows[shaken]]
                expert[shaken] = np.minimum(np.maximum(expert[shaken] + noise, -1.0), 1.0)
            actions[rows] = expert
        return actions

    return act


# --- rollouts and evaluation ---


@dataclass(frozen=True)
class ReferenceScores:
    """Raw undiscounted returns anchoring the normalized score."""

    env: str
    random_return: float
    expert_return: float
    episodes: int
    seed: int

    def normalize(self, raw_return: float) -> float:
        return (raw_return - self.random_return) / (
            self.expert_return - self.random_return
        )


def _steps(env: _Env, seeds, act):
    """Roll one episode per seed side by side in ``env``, every row until
    every episode has ended: the one rollout loop.

    At step t (from 0) ``act(t, obs)`` gets the (n, obs_dim) observations
    of every row and returns one action row each. Yields, per step, the
    observations, the actions, the step's ``StepResult`` and the (n,) mask
    of the rows whose episodes the step belongs to. A row whose episode
    has ended steps on, and its caller ignores it."""
    obs = env.reset(seeds)
    running = np.ones(len(seeds), dtype=bool)
    t = 0
    while running.any():
        actions = np.asarray(act(t, obs), dtype=np.float64)
        res = env.step(actions)
        yield obs, actions, res, running
        running = running & ~res.done
        obs = res.next_obs
        t += 1


def run_episodes(spec: EnvSpec, seeds, act) -> dict:
    """Roll one episode per seed side by side (see ``_steps``, which asks
    ``act(t, obs)`` for every row at each step). Returns the steps each
    episode ran as columns (obs, action, reward, next_obs, terminated,
    truncated), episode after episode in step order, and ``offsets``:
    episode i's rows are ``offsets[i]:offsets[i + 1]``."""
    *fields, running = zip(*(
        (obs, actions, res.reward, res.next_obs, res.terminated, res.truncated, running)
        for obs, actions, res, running in _steps(make_env(spec), seeds, act)
    ))
    ran = np.stack(running, axis=1)  # (episodes, steps): the steps each episode ran
    names = ("obs", "action", "reward", "next_obs", "terminated", "truncated")
    columns = {name: np.stack(field, axis=1)[ran] for name, field in zip(names, fields)}
    columns["offsets"] = np.concatenate(([0], np.cumsum(ran.sum(axis=1))))
    return columns


def _returns(spec: EnvSpec, seeds, act) -> tuple[np.ndarray, np.ndarray]:
    """The undiscounted return and the length of one episode per seed,
    rolled side by side (see ``_steps``, which asks ``act(t, obs)`` for
    every row at each step). Each row's rewards are added while its episode
    runs, in its own step order, so each return equals that of its episode
    rolled alone."""
    raw = np.zeros(len(seeds))
    lengths = np.zeros(len(seeds), dtype=np.int64)
    for _, _, res, running in _steps(make_env(spec), seeds, act):
        np.add(raw, res.reward, out=raw, where=running)
        lengths += running
    return raw, lengths


@dataclass
class PolicyEvaluation:
    per_episode: list[float]  # normalized returns
    mean: float


def evaluate_policy(
    policy,
    spec: EnvSpec,
    reference: ReferenceScores,
    episodes: int,
    seeds: list[int],
) -> list[PolicyEvaluation]:
    """Normalized undiscounted return of each of several policies over its
    seeded episodes: one evaluation per seed in ``seeds``, in order.

    The ``episodes`` episodes of every policy all go in lockstep in one env
    until the longest has ended. At every step ``policy(obs)`` gets the
    (episodes, policies, obs_dim) observations, row ``[i, p]`` of policy
    p's i-th episode, and returns one action row each, (episodes, policies,
    action_dim). The row of an episode that has ended steps on past its
    end, and its action is ignored. The policy must act on each row alone,
    so that an episode's actions do not depend on which other episodes run
    (as ``agents.policy_fn`` does). Each return is summed in its episode's
    own step order, so the scores equal those of each episode rolled alone,
    and each policy's evaluation equals that of the policy alone.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    n = len(seeds)
    lead = (episodes, n)
    # row i * n + p is policy p's i-th episode, so the rows reshape to ``lead``
    episode_seeds = [stable_seed("eval-episode", s, i) for i in range(episodes) for s in seeds]

    def act(t, obs):
        actions = np.asarray(policy(obs.reshape(*lead, spec.obs_dim)), dtype=np.float64)
        if actions.shape != (*lead, spec.action_dim):
            raise ShapeError(
                f"expected actions of shape {(*lead, spec.action_dim)}, got {actions.shape}"
            )
        return actions.reshape(len(obs), spec.action_dim)

    raw = _returns(spec, episode_seeds, act)[0].tolist()
    results = []
    for p in range(n):
        scores = [reference.normalize(r) for r in raw[p::n]]
        results.append(PolicyEvaluation(scores, float(np.mean(scores))))
    return results


def _random_returns(spec: EnvSpec, seeds, rng: np.random.Generator) -> list[float]:
    """Raw returns of uniform-random episodes that share ``rng``, one after
    the other, as if each drew ``uniform(-1, 1, size=action_dim)`` from it
    at each step.

    Row t of one block draw ``uniform(-1, 1, size=(episodes * horizon,
    action_dim))`` is the t-th per-step draw, so episode i's t-th action
    is row ``start_i + t``, ``start_i`` being the steps of the episodes
    before it. Each pass rolls every remaining episode side by side,
    taking each earlier one of the pass to run the full horizon; it keeps
    the episodes up to and including the first that ended early, and the
    next pass starts after that one.
    """
    horizon = spec.horizon
    draws = rng.uniform(-1.0, 1.0, size=(len(seeds) * horizon, spec.action_dim))
    returns: list[float] = []
    start = 0  # the draw row of the pass's first episode
    while len(returns) < len(seeds):
        rest = seeds[len(returns) :]
        rows = draws[start : start + horizon * len(rest)].reshape(len(rest), horizon, -1)
        raw, lengths = _returns(spec, rest, lambda t, obs: rows[:, t])
        lengths = lengths.tolist()
        kept = next((i + 1 for i, n in enumerate(lengths) if n < horizon), len(rest))
        returns += raw[:kept].tolist()
        start += horizon * (kept - 1) + lengths[kept - 1]
    return returns


def compute_reference_scores(spec: EnvSpec, seed: int, episodes: int = 100) -> ReferenceScores:
    """Mean raw returns of the uniform-random and expert behaviors, each
    over ``episodes`` seeded episodes run side by side."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    means = {}
    for kind in (UNIFORM_RANDOM, EXPERT):
        seeds = [stable_seed("reference", kind, seed, i) for i in range(episodes)]
        if kind == EXPERT:  # draws nothing
            returns = _returns(spec, seeds, lambda t, obs: expert_actions(spec, obs))[0]
        else:
            returns = _random_returns(spec, seeds, rng_for("reference", kind, seed))
        means[kind] = float(np.mean(returns))
    if means[EXPERT] <= means[UNIFORM_RANDOM]:
        raise ConfigError(
            f"degenerate reference scores for {spec.kind}: expert "
            f"{means[EXPERT]:.3f} <= random {means[UNIFORM_RANDOM]:.3f}"
        )
    return ReferenceScores(
        env=spec.kind,
        random_return=means[UNIFORM_RANDOM],
        expert_return=means[EXPERT],
        episodes=episodes,
        seed=seed,
    )
