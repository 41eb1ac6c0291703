"""Desk-scale continuous-control environments and policy evaluation.

Two families: a 2-D point-mass goal reacher (sparse or dense reward) and a
torque-limited pendulum swing-up. Both are deterministic given a reset
seed; all randomness flows through numpy Generators.

A policy is a callable on observations. ``run_episode`` (dataset
generation, reference scores) calls it on one observation at a time;
``evaluate_policy`` steps its episodes in lockstep and calls it once per
step on a stack of observation rows, expecting one action row back per
row, computed row by row.
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
    next_obs: np.ndarray
    reward: float
    terminated: bool
    truncated: bool

    @property
    def done(self) -> bool:
        return self.terminated or self.truncated


def wrap_angle(theta: float) -> float:
    """Map an angle to (-pi, pi]."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


class _Env:
    def __init__(self, spec: EnvSpec):
        self.spec = spec
        self._t = 0
        self._done = True
        self._rng: np.random.Generator | None = None

    def reset(self, seed: int) -> np.ndarray:
        self._rng = np.random.default_rng(seed)
        self._t = 0
        self._done = False
        return self._reset_state(self._rng)

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset first")
        a = np.asarray(action, dtype=np.float64)
        if a.shape != (self.spec.action_dim,):
            raise ShapeError(
                f"expected action of shape ({self.spec.action_dim},), got {a.shape}"
            )
        a = np.minimum(np.maximum(a, -1.0), 1.0)  # np.clip, bit for bit, faster
        self._t += 1
        obs, reward, terminated = self._transition(a)
        truncated = self._t >= self.spec.horizon and not terminated
        self._done = terminated or truncated
        return StepResult(obs, reward, terminated, truncated)

    def _reset_state(self, rng) -> np.ndarray:
        raise NotImplementedError

    def _transition(self, action):
        raise NotImplementedError


class PointGoalEnv(_Env):
    """Point mass in [0, 10]^2 steered toward a fixed goal at (9, 9)."""

    STEP_GAIN = 0.3
    GOAL_RADIUS = 0.5
    ARENA_LO, ARENA_HI = 0.0, 10.0
    NOISE_SIGMA = 0.01
    GOAL = np.array([9.0, 9.0])

    def __init__(self, spec: EnvSpec):
        super().__init__(spec)
        self._pos = np.zeros(2)

    def _obs(self) -> np.ndarray:
        return np.concatenate([self._pos, self.GOAL - self._pos])

    def _reset_state(self, rng) -> np.ndarray:
        self._pos = rng.uniform(self.ARENA_LO, self.ARENA_HI, size=2)
        return self._obs()

    def _transition(self, action):
        noise = self._rng.normal(0.0, self.NOISE_SIGMA, size=2)
        self._pos = np.minimum(
            np.maximum(self._pos + self.STEP_GAIN * action + noise, self.ARENA_LO),
            self.ARENA_HI,
        )
        d = self._pos - self.GOAL
        dist = math.sqrt(d.dot(d))  # what np.linalg.norm computes for a float vector
        at_goal = dist <= self.GOAL_RADIUS
        if self.spec.kind == POINT_GOAL_SPARSE:
            reward = 1.0 if at_goal else 0.0
        else:
            reward = -dist / 10.0
        return self._obs(), reward, at_goal


class PendulumEnv(_Env):
    """Torque-limited pendulum; theta = 0 is upright and unstable."""

    GRAVITY = 10.0
    MASS = 1.0
    LENGTH = 1.0
    DT = 0.05
    MAX_TORQUE = 2.0
    MAX_SPEED = 8.0

    def __init__(self, spec: EnvSpec):
        super().__init__(spec)
        self._theta = 0.0
        self._theta_dot = 0.0

    def _obs(self) -> np.ndarray:
        return np.array([math.cos(self._theta), math.sin(self._theta), self._theta_dot])

    def _reset_state(self, rng) -> np.ndarray:
        self._theta = rng.uniform(-math.pi, math.pi)
        self._theta_dot = rng.uniform(-1.0, 1.0)
        return self._obs()

    def set_state(self, theta: float, theta_dot: float) -> np.ndarray:
        """Place the pendulum in an exact state (used by controller tests)."""
        self._theta = theta
        self._theta_dot = theta_dot
        self._t = 0
        self._done = False
        self._rng = np.random.default_rng(0)
        return self._obs()

    def _transition(self, action):
        g, m, l, dt = self.GRAVITY, self.MASS, self.LENGTH, self.DT
        torque = self.MAX_TORQUE * float(action[0])
        # cost uses the pre-step state and the applied torque
        reward = -(
            wrap_angle(self._theta) ** 2
            + 0.1 * self._theta_dot**2
            + 0.001 * torque**2
        )
        accel = 3.0 * g / (2.0 * l) * math.sin(self._theta) + 3.0 * torque / (m * l * l)
        self._theta_dot = min(
            max(self._theta_dot + accel * dt, -self.MAX_SPEED), self.MAX_SPEED
        )
        self._theta = self._theta + self._theta_dot * dt
        return self._obs(), reward, False


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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "sigma": self.sigma, "epsilon": self.epsilon}

    @classmethod
    def from_dict(cls, data: dict) -> "BehaviorSpec":
        return cls(
            kind=data["kind"],
            sigma=float(data.get("sigma", 0.0)),
            epsilon=float(data.get("epsilon", 0.0)),
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
    return np.array([np.clip(torque / max_t, -1.0, 1.0)])


def _point_expert(obs) -> np.ndarray:
    # obs carries (goal - pos) in its last two entries
    return np.clip(np.asarray(obs[2:4], dtype=np.float64), -1.0, 1.0)


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
        return np.clip(a, -1.0, 1.0)
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

    def to_dict(self) -> dict:
        return {
            "env": self.env,
            "random_return": self.random_return,
            "expert_return": self.expert_return,
            "episodes": self.episodes,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReferenceScores":
        return cls(
            env=data["env"],
            random_return=float(data["random_return"]),
            expert_return=float(data["expert_return"]),
            episodes=int(data["episodes"]),
            seed=int(data["seed"]),
        )


def run_episode(env: _Env, policy, seed: int):
    """Roll one episode; returns (steps, raw_return) where steps is a list of
    (obs, action, reward, next_obs, terminated, truncated)."""
    obs = env.reset(seed)
    steps = []
    raw_return = 0.0
    while True:
        action = np.asarray(policy(obs), dtype=np.float64)
        res = env.step(action)
        steps.append((obs, action, res.reward, res.next_obs, res.terminated, res.truncated))
        raw_return += res.reward
        obs = res.next_obs
        if res.done:
            return steps, raw_return


@dataclass
class PolicyEvaluation:
    per_episode: list[float]  # normalized returns
    mean: float


def evaluate_policy(
    policy,
    spec: EnvSpec,
    reference: ReferenceScores,
    episodes: int,
    seed: int,
) -> PolicyEvaluation:
    """Normalized undiscounted return of a policy over seeded episodes.

    The episodes run in lockstep, one env each: at every step ``policy``
    gets the (live, obs_dim) stack of the observations of the episodes
    still running, in episode order, and returns one action row per
    observation row. It must act on each row alone, so that an episode's
    actions do not depend on which other episodes are live (as
    ``agents.act`` does). Each return is summed in its episode's own step
    order, so the scores equal those of one ``run_episode`` per episode.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    envs = [make_env(spec) for _ in range(episodes)]
    obs = [env.reset(stable_seed("eval-episode", seed, i)) for i, env in enumerate(envs)]
    raw = [0.0] * episodes
    live = list(range(episodes))
    while live:
        actions = np.asarray(policy(np.stack([obs[i] for i in live])), dtype=np.float64)
        if actions.shape[:1] != (len(live),):
            raise ShapeError(
                f"expected {len(live)} action rows from the policy, got shape {actions.shape}"
            )
        running = []
        for i, action in zip(live, actions):
            res = envs[i].step(action)
            raw[i] += res.reward
            obs[i] = res.next_obs
            if not res.done:
                running.append(i)
        live = running
    scores = [reference.normalize(r) for r in raw]
    return PolicyEvaluation(scores, float(np.mean(scores)))


def compute_reference_scores(spec: EnvSpec, seed: int, episodes: int = 100) -> ReferenceScores:
    """Mean raw returns of the uniform-random and expert behaviors."""
    means = {}
    for kind in (UNIFORM_RANDOM, EXPERT):
        env = make_env(spec)
        rng = rng_for("reference", kind, seed)
        policy = behavior_policy(BehaviorSpec(kind), spec, rng)
        returns = [
            run_episode(env, policy, seed=stable_seed("reference", kind, seed, i))[1]
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
