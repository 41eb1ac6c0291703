"""Desk-scale continuous-control environments and policy evaluation.

Two families: a 2-D point-mass goal reacher (sparse or dense reward) and a
torque-limited pendulum swing-up. Both are deterministic given a reset
seed; all randomness flows through numpy Generators.

One env object runs n episodes side by side, one state row each (see
``_Env``). Each episode keeps its own generator, so its rows are the same,
bit for bit, whatever else runs beside it; the fine-tune loop runs one row.

``rollout`` holds the one reset/step/drop loop: ``act(live, obs)`` gets
the indices and observation rows of the live episodes and returns one
action row per row. ``evaluate_policy`` asks one policy for every row at
once, naming each row's run, and ``compute_reference_scores`` one behavior
per episode; both sum only the rewards. ``run_episodes`` (dataset
generation) asks each episode's own policy for its row and returns the
transitions as columns.
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
    if kind in (POINT_GOAL_SPARSE, POINT_GOAL_DENSE):
        return EnvSpec(kind, horizon if horizon is not None else 100, 4, 2)
    if kind == PENDULUM:
        return EnvSpec(kind, horizon if horizon is not None else 200, 3, 1)
    raise ConfigError(f"unknown environment kind {kind!r}")


@dataclass
class StepResult:
    """One step of the live episodes, one row each, in the env's row order."""

    next_obs: np.ndarray  # (live, obs_dim)
    reward: np.ndarray  # (live,)
    terminated: np.ndarray  # (live,) bool
    truncated: np.ndarray  # (live,) bool

    @property
    def done(self) -> np.ndarray:
        return self.terminated | self.truncated


def wrap_angle(theta: float) -> float:
    """Map an angle to (-pi, pi]."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


class _Env:
    """Episodes side by side, one row each.

    ``reset`` starts one episode per seed; every state array then has a
    leading axis over the live episodes, in seed order. ``step`` takes one
    action row per live episode and returns one row each; the rows of the
    episodes that the step ends are then dropped, so the next step takes
    actions for the remaining episodes only, in the same order.
    """

    _STATE: tuple[str, ...] = ()  # the attributes holding per-episode rows

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        self._t = 0
        self._live = 0

    def reset(self, seeds) -> np.ndarray:
        """Start one episode per seed; returns the (n, obs_dim) observations."""
        rngs = [np.random.default_rng(seed) for seed in seeds]
        self._t = 0
        self._live = len(rngs)
        return self._reset_state(rngs)

    def step(self, actions) -> StepResult:
        live = self._live
        if not live:
            raise RuntimeError("step() called on finished episodes; reset first")
        a = np.asarray(actions, dtype=np.float64)
        if a.shape != (live, self.spec.action_dim):
            raise ShapeError(
                f"expected actions of shape ({live}, {self.spec.action_dim}), got {a.shape}"
            )
        self._t += 1
        # np.clip, bit for bit, faster
        obs, reward, terminated = self._transition(np.minimum(np.maximum(a, -1.0), 1.0))
        if self._t >= self.spec.horizon:
            truncated = ~terminated
            self._live = 0
        else:
            truncated = np.zeros(live, dtype=bool)
            ended = np.count_nonzero(terminated)
            if ended:
                self._keep(~terminated)
                self._live = live - ended
        return StepResult(obs, reward, terminated, truncated)

    def _reset_state(self, rngs) -> np.ndarray:
        raise NotImplementedError

    def _transition(self, actions):
        """Advance every live row; returns (obs, reward, terminated) rows."""
        raise NotImplementedError

    def _keep(self, rows: np.ndarray) -> None:
        """Keep only the state rows where the boolean mask ``rows`` is set."""
        for name in self._STATE:
            setattr(self, name, getattr(self, name)[rows])


class PointGoalEnv(_Env):
    """Point mass in [0, 10]^2 steered toward a fixed goal at (9, 9).

    Each episode draws its start position and then its whole noise sequence
    at reset, from its own generator; ``normal(size=(horizon, 2))`` row t
    equals the t-th ``normal(size=2)`` draw, so the episode is the same as
    one drawing its noise step by step.
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

    def _reset_state(self, rngs) -> np.ndarray:
        n, horizon = len(rngs), self.spec.horizon
        pos = np.empty((n, 2))
        noise = np.empty((n, horizon, 2))
        for i, rng in enumerate(rngs):
            pos[i] = rng.uniform(self.ARENA_LO, self.ARENA_HI, size=2)
            noise[i] = rng.normal(0.0, self.NOISE_SIGMA, size=(horizon, 2))
        self._pos, self._noise = pos, noise
        return np.concatenate((pos, self.GOAL - pos), axis=1)

    def _transition(self, actions):
        pos = np.minimum(
            np.maximum(
                self._pos + self.STEP_GAIN * actions + self._noise[:, self._t - 1],
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

    def _obs(self) -> np.ndarray:
        return np.array(
            [
                [math.cos(theta), math.sin(theta), theta_dot]
                for theta, theta_dot in zip(self._theta.tolist(), self._theta_dot.tolist())
            ]
        ).reshape(-1, 3)

    def _reset_state(self, rngs) -> np.ndarray:
        self._theta = np.empty(len(rngs))
        self._theta_dot = np.empty(len(rngs))
        for i, rng in enumerate(rngs):
            self._theta[i] = rng.uniform(-math.pi, math.pi)
            self._theta_dot[i] = rng.uniform(-1.0, 1.0)
        return self._obs()

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
        if self.sigma < 0.0:
            raise ConfigError("sigma must be >= 0")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0, 1]")


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


def _pendulum_expert(obs) -> np.ndarray:
    cos_t, sin_t, theta_dot = float(obs[0]), float(obs[1]), float(obs[2])
    theta = math.atan2(sin_t, cos_t)
    max_t = PendulumEnv.MAX_TORQUE
    if abs(theta) < _PEND_CATCH_ANGLE and abs(theta_dot) < _PEND_CATCH_RATE:
        torque = -_PEND_KP * theta - _PEND_KD * theta_dot
    else:
        energy = 0.5 * _PEND_INERTIA * theta_dot**2 + _PEND_UPRIGHT_ENERGY * cos_t
        direction = math.copysign(1.0, theta_dot) if abs(theta_dot) > 1e-3 else 1.0
        torque = max_t * direction * math.copysign(1.0, _PEND_UPRIGHT_ENERGY - energy)
    return np.array([min(max(torque / max_t, -1.0), 1.0)])


def _point_expert(obs) -> np.ndarray:
    # obs carries (goal - pos) in its last two entries
    return np.minimum(np.maximum(np.asarray(obs[2:4], dtype=np.float64), -1.0), 1.0)


def expert_action(spec: EnvSpec, obs) -> np.ndarray:
    if spec.kind == PENDULUM:
        return _pendulum_expert(obs)
    return _point_expert(obs)


def scripted_action(
    behavior: BehaviorSpec, spec: EnvSpec, obs, rng: np.random.Generator
) -> np.ndarray:
    if behavior.kind == UNIFORM_RANDOM:
        return rng.uniform(-1.0, 1.0, size=spec.action_dim)
    if behavior.kind == EXPERT:
        return expert_action(spec, obs)
    if behavior.kind == NOISY_EXPERT:
        a = expert_action(spec, obs) + rng.normal(0.0, behavior.sigma, spec.action_dim)
        return np.minimum(np.maximum(a, -1.0), 1.0)
    # epsilon_mixture
    if rng.random() < behavior.epsilon:
        return rng.uniform(-1.0, 1.0, size=spec.action_dim)
    return expert_action(spec, obs)


def behavior_policy(behavior: BehaviorSpec, spec: EnvSpec, rng: np.random.Generator):
    """Close the behavior over its rng so it can be used as a plain policy."""
    return lambda obs: scripted_action(behavior, spec, obs, rng)


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


def rollout(env: _Env, seeds, act):
    """Roll one episode per seed side by side in ``env``.

    At every step ``act(live, obs)`` gets the (live,) episode indices and
    (live, obs_dim) observation rows of the episodes still running, in
    episode order, and returns one action row per row. Yields
    ``(live, obs, actions, StepResult)`` per step; the episodes that the
    step ends are then dropped.
    """
    live = np.arange(len(seeds))
    obs = env.reset(seeds)
    while len(live):
        actions = np.asarray(act(live, obs), dtype=np.float64)
        res = env.step(actions)
        yield live, obs, actions, res
        if env._live < len(live):  # the step ended some episodes
            running = ~res.done
            live, obs = live[running], res.next_obs[running]
        else:
            obs = res.next_obs


def _per_episode(policies):
    """An ``act`` asking ``policies[i]`` for episode i's row alone, in row
    order, so a policy drawing from its own generator draws as it would
    alone."""
    return lambda live, obs: [policies[i](o) for i, o in zip(live.tolist(), obs)]


def _raw_returns(env: _Env, seeds, act) -> list[float]:
    """Undiscounted return per episode, each summed in its own step order."""
    raw = [0.0] * len(seeds)
    for live, _, _, res in rollout(env, seeds, act):
        for i, reward in zip(live.tolist(), res.reward.tolist()):
            raw[i] += reward
    return raw


def run_episodes(env: _Env, policies, seeds) -> dict:
    """Roll one episode per seed, episode i acting by ``policies[i]`` on its
    own observation (obs_dim,). Returns the transitions as columns (obs,
    action, reward, next_obs, terminated, truncated), episode after episode
    in step order, and ``offsets``: episode i's rows are
    ``offsets[i]:offsets[i + 1]``."""
    steps = [
        (live, obs, actions, res.reward, res.next_obs, res.terminated, res.truncated)
        for live, obs, actions, res in rollout(env, seeds, _per_episode(policies))
    ]
    episode, *fields = (np.concatenate(part) for part in zip(*steps))
    order = np.argsort(episode, kind="stable")
    names = ("obs", "action", "reward", "next_obs", "terminated", "truncated")
    columns = {name: field[order] for name, field in zip(names, fields)}
    columns["offsets"] = np.searchsorted(episode[order], np.arange(len(seeds) + 1))
    return columns


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
    """Normalized undiscounted return of each run of a lockstep group over
    its seeded episodes: one evaluation per run seed in ``seeds``, in order.

    The ``episodes`` episodes of each run, run after run, all go in lockstep
    in one env: at every step ``policy(obs, runs)`` gets the (live,
    obs_dim) stack of the observations of the episodes still running, in
    episode order, and the run of each row, and returns one action row per
    observation row. It must act on each row alone, so that an episode's
    actions do not depend on which other episodes are live (as
    ``agents.policy_fn`` does). Each return is summed in its episode's own
    step order, so the scores equal those of each episode rolled alone, and
    each run's evaluation equals that of its run alone.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    episode_seeds = [stable_seed("eval-episode", s, i) for s in seeds for i in range(episodes)]
    raw = _raw_returns(
        make_env(spec), episode_seeds, lambda live, obs: policy(obs, live // episodes)
    )
    results = []
    for start in range(0, len(raw), episodes):
        scores = [reference.normalize(r) for r in raw[start : start + episodes]]
        results.append(PolicyEvaluation(scores, float(np.mean(scores))))
    return results


def compute_reference_scores(spec: EnvSpec, seed: int, episodes: int = 100) -> ReferenceScores:
    """Mean raw returns of the uniform-random and expert behaviors."""
    means = {}
    for kind in (UNIFORM_RANDOM, EXPERT):
        # the episodes share one behavior generator, so they run one at a time
        env = make_env(spec)
        rng = rng_for("reference", kind, seed)
        act = _per_episode([behavior_policy(BehaviorSpec(kind), spec, rng)])
        returns = [
            _raw_returns(env, [stable_seed("reference", kind, seed, i)], act)[0]
            for i in range(episodes)
        ]
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
