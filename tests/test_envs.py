import math

import numpy as np
import pytest

from o2olab import envs
from o2olab.envs import (
    BehaviorSpec,
    PendulumEnv,
    PointGoalEnv,
    behavior_policy,
    compute_reference_scores,
    env_spec,
    evaluate_policy,
    expert_action,
    make_env,
    run_episode,
    scripted_action,
    wrap_angle,
)
from o2olab.errors import ConfigError, ShapeError


def test_env_spec_dims():
    p = env_spec("point_goal_sparse")
    assert (p.horizon, p.obs_dim, p.action_dim) == (100, 4, 2)
    d = env_spec("point_goal_dense")
    assert (d.horizon, d.obs_dim, d.action_dim) == (100, 4, 2)
    pe = env_spec("pendulum")
    assert (pe.horizon, pe.obs_dim, pe.action_dim) == (200, 3, 1)
    with pytest.raises(ConfigError):
        env_spec("cartpole")


def test_reset_deterministic():
    for kind in ("point_goal_dense", "pendulum"):
        env = make_env(env_spec(kind))
        a = env.reset(123)
        b = env.reset(123)
        assert np.array_equal(a, b)


def test_point_observation_layout():
    env = PointGoalEnv(env_spec("point_goal_sparse"))
    obs = env.reset(5)
    assert obs.shape == (4,)
    assert np.allclose(obs[2:], PointGoalEnv.GOAL - obs[:2])


def test_pendulum_observation_layout():
    env = PendulumEnv(env_spec("pendulum"))
    obs = env.reset(5)
    assert obs.shape == (3,)
    assert obs[0] ** 2 + obs[1] ** 2 == pytest.approx(1.0)
    assert -1.0 <= obs[2] <= 1.0


def test_point_zero_action_dense_reward():
    env = PointGoalEnv(env_spec("point_goal_dense"))
    env.reset(0)
    env.NOISE_SIGMA = 0.0  # isolate the dynamics formula
    pos = env._pos.copy()
    res = env.step(np.zeros(2))
    assert np.allclose(env._pos, pos)
    dist = np.linalg.norm(pos - PointGoalEnv.GOAL)
    assert res.reward == pytest.approx(-dist / 10.0)


def test_point_goal_entry_sparse():
    env = PointGoalEnv(env_spec("point_goal_sparse"))
    env.reset(0)
    env.NOISE_SIGMA = 0.0
    env._pos = np.array([9.0, 8.6])  # distance 0.4 from the goal
    res = env.step(np.zeros(2))
    assert res.reward == 1.0
    assert res.terminated


def test_point_action_clipped_and_arena_bounded():
    env = PointGoalEnv(env_spec("point_goal_dense"))
    env.reset(3)
    env._pos = np.array([9.99, 0.01])
    res = env.step(np.array([5.0, -5.0]))  # clipped to (1, -1)
    assert env._pos[0] <= 10.0 and env._pos[1] >= 0.0
    assert not res.terminated or np.linalg.norm(env._pos - env.GOAL) <= 0.5


def test_pendulum_upright_equilibrium():
    env = PendulumEnv(env_spec("pendulum"))
    env.reset(0)
    env.set_state(0.0, 0.0)
    res = env.step(np.zeros(1))
    assert res.reward == 0.0
    assert env._theta == 0.0 and env._theta_dot == 0.0


def test_pendulum_dynamics_step():
    env = PendulumEnv(env_spec("pendulum"))
    env.reset(0)
    theta, theta_dot = 1.0, 0.5
    env.set_state(theta, theta_dot)
    action = np.array([0.25])
    res = env.step(action)
    torque = 2.0 * 0.25
    accel = 3.0 * 10.0 / 2.0 * math.sin(theta) + 3.0 * torque
    new_dot = theta_dot + accel * 0.05
    assert res.reward == pytest.approx(-(wrap_angle(theta) ** 2 + 0.1 * theta_dot**2 + 0.001 * torque**2))
    assert env._theta_dot == pytest.approx(np.clip(new_dot, -8, 8))
    assert env._theta == pytest.approx(theta + env._theta_dot * 0.05)


def test_step_after_done_raises():
    spec = env_spec("pendulum", horizon=2)
    env = make_env(spec)
    env.reset(0)
    env.step(np.zeros(1))
    res = env.step(np.zeros(1))
    assert res.truncated
    with pytest.raises(RuntimeError):
        env.step(np.zeros(1))


def test_action_shape_checked():
    env = make_env(env_spec("pendulum"))
    env.reset(0)
    with pytest.raises(ShapeError):
        env.step(np.zeros(2))


def test_horizon_truncation_exact():
    spec = env_spec("pendulum")
    env = make_env(spec)
    env.reset(7)
    for t in range(1, spec.horizon + 1):
        res = env.step(np.zeros(1))
        if t < spec.horizon:
            assert not res.truncated and not res.terminated
    assert res.truncated and not res.terminated


def test_trajectories_bit_identical():
    spec = env_spec("point_goal_dense")
    for _ in range(2):
        runs = []
        for _ in range(2):
            env = make_env(spec)
            rng = np.random.default_rng(99)
            policy = behavior_policy(BehaviorSpec("uniform_random"), spec, rng)
            steps, ret = run_episode(env, policy, seed=4)
            runs.append((steps, ret))
        (s1, r1), (s2, r2) = runs
        assert r1 == r2
        for a, b in zip(s1, s2):
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
            assert a[2] == b[2]


def test_sparse_rewards_binary_single_success():
    spec = env_spec("point_goal_sparse")
    env = make_env(spec)
    rng = np.random.default_rng(0)
    for ep in range(20):
        policy = behavior_policy(BehaviorSpec("expert"), spec, rng)
        steps, ret = run_episode(env, policy, seed=ep)
        rewards = [s[2] for s in steps]
        assert set(rewards) <= {0.0, 1.0}
        assert sum(rewards) <= 1.0
        assert len(steps) <= spec.horizon


# --- scripted behaviors ---


def test_point_expert_direction():
    spec = env_spec("point_goal_sparse")
    obs = np.array([0.0, 0.0, 9.0, 9.0])
    assert np.array_equal(expert_action(spec, obs), np.array([1.0, 1.0]))
    obs = np.array([8.8, 9.1, 0.2, -0.1])
    assert np.allclose(expert_action(spec, obs), np.array([0.2, -0.1]))


def test_epsilon_one_is_uniform_random_in_distribution():
    spec = env_spec("point_goal_sparse")
    obs = np.array([0.0, 0.0, 9.0, 9.0])  # expert here would always emit (1, 1)
    rng = np.random.default_rng(5)
    draws = np.array([
        scripted_action(BehaviorSpec("epsilon_mixture", epsilon=1.0), spec, obs, rng)
        for _ in range(2000)
    ])
    assert np.all(np.abs(draws.mean(axis=0)) < 0.05)
    assert np.all(draws.min(axis=0) < -0.95) and np.all(draws.max(axis=0) > 0.95)


def test_epsilon_zero_is_expert():
    spec = env_spec("point_goal_sparse")
    obs = np.array([1.0, 2.0, 8.0, 7.0])
    mix = scripted_action(BehaviorSpec("epsilon_mixture", epsilon=0.0), spec, obs,
                          np.random.default_rng(5))
    assert np.array_equal(mix, expert_action(spec, obs))


def test_noisy_expert_clipped():
    spec = env_spec("point_goal_sparse")
    obs = np.array([0.0, 0.0, 9.0, 9.0])
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = scripted_action(BehaviorSpec("noisy_expert", sigma=2.0), spec, obs, rng)
        assert np.all(a >= -1.0) and np.all(a <= 1.0)


def test_behavior_validation():
    with pytest.raises(ConfigError):
        BehaviorSpec("noisy_expert", sigma=-1.0)
    with pytest.raises(ConfigError):
        BehaviorSpec("epsilon_mixture", epsilon=1.5)
    with pytest.raises(ConfigError):
        BehaviorSpec("greedy")


def test_pendulum_expert_swings_up_from_hanging():
    # simulation oracle behind the frozen controller gains
    spec = env_spec("pendulum")
    caught = 0
    for seed in range(10):
        env = PendulumEnv(spec)
        env.reset(seed)
        jitter = np.random.default_rng(seed).uniform(-0.05, 0.05)
        obs = env.set_state(math.pi - jitter, 0.0)
        reached = None
        for t in range(spec.horizon):
            res = env.step(expert_action(spec, obs))
            obs = res.next_obs
            if reached is None and abs(wrap_angle(env._theta)) < 0.2:
                reached = t + 1
            if res.done:
                break
        if reached is not None and reached <= 150:
            caught += 1
    assert caught >= 9


# --- evaluation and reference scores ---


@pytest.fixture(scope="module")
def pendulum_reference():
    return compute_reference_scores(env_spec("pendulum"), seed=0, episodes=30)


def test_reference_scores_pendulum_ranges(pendulum_reference):
    ref = pendulum_reference
    assert -1400 <= ref.random_return <= -800
    assert ref.expert_return > ref.random_return


def test_reference_scores_point_sparse():
    ref = compute_reference_scores(env_spec("point_goal_sparse"), seed=0, episodes=50)
    assert ref.expert_return >= 0.95
    assert ref.random_return < 0.2


def rows_policy(policy):
    """A per-observation policy as the row-stack policy evaluate_policy
    calls, applied row by row."""
    return lambda obs: np.stack([policy(o) for o in obs])


def test_evaluate_policy_normalization_identity(pendulum_reference):
    spec = env_spec("pendulum")
    rng = np.random.default_rng(1)
    expert = rows_policy(behavior_policy(BehaviorSpec("expert"), spec, rng))
    result = evaluate_policy(expert, spec, pendulum_reference, episodes=20, seed=3)
    assert result.mean == pytest.approx(1.0, abs=0.35)

    random_pol = rows_policy(behavior_policy(BehaviorSpec("uniform_random"), spec,
                                             np.random.default_rng(2)))
    result = evaluate_policy(random_pol, spec, pendulum_reference, episodes=20, seed=3)
    assert result.mean == pytest.approx(0.0, abs=0.35)


def test_evaluate_policy_deterministic(pendulum_reference):
    spec = env_spec("pendulum")

    def policy(obs):
        return np.array([0.3])

    a = evaluate_policy(rows_policy(policy), spec, pendulum_reference, episodes=5, seed=9)
    b = evaluate_policy(rows_policy(policy), spec, pendulum_reference, episodes=5, seed=9)
    assert a.per_episode == b.per_episode
    assert a.mean == b.mean


def test_evaluate_policy_rejects_zero_episodes(pendulum_reference):
    with pytest.raises(ValueError):
        evaluate_policy(lambda o: np.zeros(1), env_spec("pendulum"),
                        pendulum_reference, episodes=0, seed=0)


def test_normalized_anchors_on_fresh_seeds():
    # expert >= 0.9 and random <= 0.1 when re-evaluated away from the
    # reference seeds, on both environments
    for kind in ("point_goal_sparse", "pendulum"):
        spec = env_spec(kind)
        ref = compute_reference_scores(spec, seed=0, episodes=60)
        expert = rows_policy(
            behavior_policy(BehaviorSpec("expert"), spec, np.random.default_rng(7))
        )
        rand = rows_policy(behavior_policy(BehaviorSpec("uniform_random"), spec,
                                           np.random.default_rng(8)))
        e = evaluate_policy(expert, spec, ref, episodes=40, seed=1234)
        r = evaluate_policy(rand, spec, ref, episodes=40, seed=4321)
        assert e.mean >= 0.9, kind
        assert r.mean <= 0.1, kind


def test_interaction_counter_increments(monkeypatch):
    steps = []
    real_step = envs._Env.step

    def counting_step(self, action):
        steps.append(action)
        return real_step(self, action)

    monkeypatch.setattr(envs._Env, "step", counting_step)
    spec = env_spec("pendulum")
    env = make_env(spec)
    env.reset(0)
    env.step(np.zeros(1))
    assert len(steps) == 1
