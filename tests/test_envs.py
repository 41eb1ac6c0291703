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
    run_episodes,
    scripted_action,
    wrap_angle,
)
from o2olab.errors import ConfigError, ShapeError
from o2olab.seeding import stable_seed


def reference_episode(spec, policy, seed):
    """One episode of the per-episode dynamics, transcribed from the env
    before it stepped episodes side by side: the point goal draws one
    ``normal(size=2)`` per step and measures its distance with a vector dot
    product, the pendulum runs in scalar ``math``. ``policy`` gets one
    observation. Returns the list of (obs, action, reward, next_obs,
    terminated, truncated) steps."""
    rng = np.random.default_rng(seed)
    goal = PointGoalEnv.GOAL
    if spec.kind == "pendulum":
        P = PendulumEnv
        theta = rng.uniform(-math.pi, math.pi)
        theta_dot = rng.uniform(-1.0, 1.0)
        obs = np.array([math.cos(theta), math.sin(theta), theta_dot])
    else:
        pos = rng.uniform(PointGoalEnv.ARENA_LO, PointGoalEnv.ARENA_HI, size=2)
        obs = np.concatenate([pos, goal - pos])
    steps = []
    for t in range(1, spec.horizon + 1):
        action = np.asarray(policy(obs), dtype=np.float64)
        a = np.clip(action, -1.0, 1.0)
        if spec.kind == "pendulum":
            torque = P.MAX_TORQUE * float(a[0])
            reward = -(wrap_angle(theta) ** 2 + 0.1 * theta_dot**2 + 0.001 * torque**2)
            accel = (3.0 * P.GRAVITY / (2.0 * P.LENGTH) * math.sin(theta)
                     + 3.0 * torque / (P.MASS * P.LENGTH * P.LENGTH))
            theta_dot = min(max(theta_dot + accel * P.DT, -P.MAX_SPEED), P.MAX_SPEED)
            theta = theta + theta_dot * P.DT
            next_obs = np.array([math.cos(theta), math.sin(theta), theta_dot])
            terminated = False
        else:
            noise = rng.normal(0.0, PointGoalEnv.NOISE_SIGMA, size=2)
            pos = np.clip(pos + PointGoalEnv.STEP_GAIN * a + noise,
                          PointGoalEnv.ARENA_LO, PointGoalEnv.ARENA_HI)
            d = pos - goal
            dist = math.sqrt(d.dot(d))
            terminated = dist <= PointGoalEnv.GOAL_RADIUS
            if spec.kind == "point_goal_sparse":
                reward = 1.0 if terminated else 0.0
            else:
                reward = -dist / 10.0
            next_obs = np.concatenate([pos, goal - pos])
        truncated = t >= spec.horizon and not terminated
        steps.append((obs, action, reward, next_obs, terminated, truncated))
        if terminated or truncated:
            return steps
        obs = next_obs


def assert_steps_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g[0], w[0]) and np.array_equal(g[1], w[1])
        assert g[2] == w[2]
        assert np.array_equal(g[3], w[3])
        assert (g[4], g[5]) == (w[4], w[5])


STEP_COLUMNS = ("obs", "action", "reward", "next_obs", "terminated", "truncated")


def assert_columns_equal_steps(columns, i, want):
    """Episode i's rows of ``run_episodes``' columns equal the steps of a
    ``reference_episode``, bit for bit."""
    start, stop = columns["offsets"][i], columns["offsets"][i + 1]
    assert stop - start == len(want)
    for k, name in enumerate(STEP_COLUMNS):
        got = columns[name][start:stop]
        assert np.array_equal(got, np.array([step[k] for step in want])), name


def place_pendulum(env, theta, theta_dot):
    """Put the one live pendulum of a reset env in an exact state; returns
    its (1, 3) observation."""
    env._theta = np.array([theta])
    env._theta_dot = np.array([theta_dot])
    return env._obs()


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
        a = env.reset([123])
        b = env.reset([123])
        assert np.array_equal(a, b)


def test_point_observation_layout():
    env = PointGoalEnv(env_spec("point_goal_sparse"))
    obs = env.reset([5])
    assert obs.shape == (1, 4)
    assert np.allclose(obs[0, 2:], PointGoalEnv.GOAL - obs[0, :2])


def test_pendulum_observation_layout():
    env = PendulumEnv(env_spec("pendulum"))
    obs = env.reset([5])
    assert obs.shape == (1, 3)
    assert obs[0, 0] ** 2 + obs[0, 1] ** 2 == pytest.approx(1.0)
    assert -1.0 <= obs[0, 2] <= 1.0


def test_point_zero_action_dense_reward():
    env = PointGoalEnv(env_spec("point_goal_dense"))
    env.NOISE_SIGMA = 0.0  # isolate the dynamics formula; noise is drawn at reset
    env.reset([0])
    pos = env._pos.copy()
    res = env.step(np.zeros((1, 2)))
    assert np.allclose(env._pos, pos)
    dist = np.linalg.norm(pos[0] - PointGoalEnv.GOAL)
    assert res.reward[0] == pytest.approx(-dist / 10.0)


def test_point_goal_entry_sparse():
    env = PointGoalEnv(env_spec("point_goal_sparse"))
    env.NOISE_SIGMA = 0.0
    env.reset([0])
    env._pos = np.array([[9.0, 8.6]])  # distance 0.4 from the goal
    res = env.step(np.zeros((1, 2)))
    assert res.reward[0] == 1.0
    assert res.terminated[0]


def test_point_action_clipped_and_arena_bounded():
    env = PointGoalEnv(env_spec("point_goal_dense"))
    env.reset([3])
    env._pos = np.array([[9.99, 0.01]])
    res = env.step(np.array([[5.0, -5.0]]))  # clipped to (1, -1)
    pos = res.next_obs[0, :2]
    assert pos[0] <= 10.0 and pos[1] >= 0.0
    assert not res.terminated[0] or np.linalg.norm(pos - env.GOAL) <= 0.5


def test_pendulum_upright_equilibrium():
    env = PendulumEnv(env_spec("pendulum"))
    env.reset([0])
    place_pendulum(env, 0.0, 0.0)
    res = env.step(np.zeros((1, 1)))
    assert res.reward[0] == 0.0
    assert env._theta[0] == 0.0 and env._theta_dot[0] == 0.0


def test_pendulum_dynamics_step():
    env = PendulumEnv(env_spec("pendulum"))
    env.reset([0])
    theta, theta_dot = 1.0, 0.5
    place_pendulum(env, theta, theta_dot)
    action = np.array([[0.25]])
    res = env.step(action)
    torque = 2.0 * 0.25
    accel = 3.0 * 10.0 / 2.0 * math.sin(theta) + 3.0 * torque
    new_dot = theta_dot + accel * 0.05
    assert res.reward[0] == pytest.approx(-(wrap_angle(theta) ** 2 + 0.1 * theta_dot**2 + 0.001 * torque**2))
    assert env._theta_dot[0] == pytest.approx(np.clip(new_dot, -8, 8))
    assert env._theta[0] == pytest.approx(theta + env._theta_dot[0] * 0.05)


def test_step_after_done_raises():
    spec = env_spec("pendulum", horizon=2)
    env = make_env(spec)
    env.reset([0])
    env.step(np.zeros((1, 1)))
    res = env.step(np.zeros((1, 1)))
    assert res.truncated[0]
    with pytest.raises(RuntimeError):
        env.step(np.zeros((1, 1)))


def test_action_shape_checked():
    env = make_env(env_spec("pendulum"))
    env.reset([0])
    with pytest.raises(ShapeError):
        env.step(np.zeros(2))
    # one action row per live episode, each of width action_dim; a rejected
    # step leaves the episodes where they were
    env = make_env(env_spec("point_goal_dense"))
    env.reset([0, 1, 2])
    pos = env._pos.copy()
    for shape in [(3, 1), (3, 3), (2, 2), (4, 2), (2,), (3, 2, 1)]:
        with pytest.raises(ShapeError):
            env.step(np.zeros(shape))
    assert np.array_equal(env._pos, pos) and env._t == 0
    assert env.step(np.zeros((3, 2))).reward.shape == (3,)


def test_horizon_truncation_exact():
    spec = env_spec("pendulum")
    env = make_env(spec)
    env.reset([7])
    for t in range(1, spec.horizon + 1):
        res = env.step(np.zeros((1, 1)))
        if t < spec.horizon:
            assert not res.truncated[0] and not res.terminated[0]
    assert res.truncated[0] and not res.terminated[0]


def test_trajectories_bit_identical():
    spec = env_spec("point_goal_dense")
    for _ in range(2):
        runs = []
        for _ in range(2):
            env = make_env(spec)
            rng = np.random.default_rng(99)
            policy = behavior_policy(BehaviorSpec("uniform_random"), spec, rng)
            runs.append(run_episodes(env, [policy], [4]))
        c1, c2 = runs
        assert sum(c1["reward"].tolist()) == sum(c2["reward"].tolist())
        for name in (*STEP_COLUMNS, "offsets"):
            assert np.array_equal(c1[name], c2[name]), name


def test_sparse_rewards_binary_single_success():
    spec = env_spec("point_goal_sparse")
    env = make_env(spec)
    rng = np.random.default_rng(0)
    for ep in range(20):
        policy = behavior_policy(BehaviorSpec("expert"), spec, rng)
        columns = run_episodes(env, [policy], [ep])
        rewards = columns["reward"].tolist()
        assert set(rewards) <= {0.0, 1.0}
        assert sum(rewards) <= 1.0
        assert columns["offsets"].tolist() == [0, len(rewards)]
        assert len(rewards) <= spec.horizon


@pytest.mark.parametrize("kind", ["pendulum", "point_goal_dense", "point_goal_sparse"])
def test_rows_equal_reference_episodes(kind):
    # n episodes in one env, stepped directly and through run_episodes, and
    # each alone through run_episodes, against the per-episode reference. At horizon 20 the expert brings some point-goal
    # episodes to the goal, at different steps, and runs out of time on others.
    spec = env_spec(kind, horizon=20)

    def policy(obs):
        return expert_action(spec, obs)

    endings = set()
    for n in (1, 3, 12):
        seeds = [stable_seed("rows", kind, n, i) for i in range(n)]
        want = [reference_episode(spec, policy, s) for s in seeds]
        for s, w in zip(seeds, want):
            assert_columns_equal_steps(run_episodes(make_env(spec), [policy], [s]), 0, w)
        columns = run_episodes(make_env(spec), [policy] * n, seeds)
        for i, w in enumerate(want):
            assert_columns_equal_steps(columns, i, w)
        env = make_env(spec)
        obs = env.reset(seeds)
        got = [[] for _ in seeds]
        live = list(range(n))
        while live:
            actions = np.stack([policy(o) for o in obs])
            res = env.step(actions)
            for j, i in enumerate(live):
                got[i].append((obs[j], actions[j], res.reward[j], res.next_obs[j],
                               res.terminated[j], res.truncated[j]))
            live = [i for i, done in zip(live, res.done) if not done]
            obs = res.next_obs[~res.done]
        for g, w in zip(got, want):
            assert_steps_equal(g, w)
        endings |= {(len(w), w[-1][4]) for w in want}
    if kind == "pendulum":
        assert endings == {(spec.horizon, False)}
    else:
        assert {terminated for _, terminated in endings} == {True, False}
        assert len({length for length, terminated in endings if terminated}) > 1


def test_run_episodes_asks_each_live_episode_in_row_order():
    # at every step the live episodes' policies are asked once each, in
    # episode order, and an ended episode is asked no more
    spec = env_spec("point_goal_dense", horizon=20)
    calls = []

    def logging_policy(i):
        def policy(obs):
            calls.append(i)
            return expert_action(spec, obs)
        return policy

    n = 12
    seeds = [stable_seed("rows", "order", i) for i in range(n)]
    columns = run_episodes(make_env(spec), [logging_policy(i) for i in range(n)], seeds)
    lengths = np.diff(columns["offsets"]).tolist()
    assert len(set(lengths)) > 1
    assert calls == [i for t in range(max(lengths)) for i in range(n) if lengths[i] > t]


def test_goal_distance_is_the_vector_dot_product():
    # the dense reward's distance, computed for all rows at once, equals
    # math.sqrt(d.dot(d)) per row bit for bit; (d * d).sum(1) and einsum
    # round differently on some rows where BLAS fuses multiply and add
    n = 2000
    env = PointGoalEnv(env_spec("point_goal_dense"))
    env.NOISE_SIGMA = 0.0
    env.reset(range(n))
    pos = np.random.default_rng(0).uniform(0.0, 10.0, size=(n, 2))
    env._pos = pos.copy()
    res = env.step(np.zeros((n, 2)))
    want = [-math.sqrt(d.dot(d)) / 10.0 for d in pos - PointGoalEnv.GOAL]
    assert res.reward.tolist() == want


def test_noise_block_rows_are_the_per_step_draws():
    # the point goal draws an episode's noise as one (horizon, 2) block at
    # reset; row t is the t-th normal(size=2) draw of the same generator
    for seed in (0, 1, 7, 2**31 - 1):
        block = np.random.default_rng(seed).normal(0.0, 0.01, size=(100, 2))
        rng = np.random.default_rng(seed)
        rows = np.array([rng.normal(0.0, 0.01, size=2) for _ in range(100)])
        assert np.array_equal(block, rows)


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
        env.reset([seed])
        jitter = np.random.default_rng(seed).uniform(-0.05, 0.05)
        obs = place_pendulum(env, math.pi - jitter, 0.0)[0]
        reached = None
        for t in range(spec.horizon):
            res = env.step(expert_action(spec, obs)[None])
            obs = res.next_obs[0]
            if reached is None and abs(wrap_angle(env._theta[0])) < 0.2:
                reached = t + 1
            if res.done[0]:
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
    calls, applied row by row, whatever the rows' runs."""
    return lambda obs, runs: np.stack([policy(o) for o in obs])


def test_evaluate_policy_normalization_identity(pendulum_reference):
    spec = env_spec("pendulum")
    rng = np.random.default_rng(1)
    expert = rows_policy(behavior_policy(BehaviorSpec("expert"), spec, rng))
    [result] = evaluate_policy(expert, spec, pendulum_reference, episodes=20, seeds=[3])
    assert result.mean == pytest.approx(1.0, abs=0.35)

    random_pol = rows_policy(behavior_policy(BehaviorSpec("uniform_random"), spec,
                                             np.random.default_rng(2)))
    [result] = evaluate_policy(random_pol, spec, pendulum_reference, episodes=20, seeds=[3])
    assert result.mean == pytest.approx(0.0, abs=0.35)


def test_evaluate_policy_deterministic(pendulum_reference):
    spec = env_spec("pendulum")

    def policy(obs):
        return np.array([0.3])

    [a] = evaluate_policy(rows_policy(policy), spec, pendulum_reference, episodes=5, seeds=[9])
    [b] = evaluate_policy(rows_policy(policy), spec, pendulum_reference, episodes=5, seeds=[9])
    assert a.per_episode == b.per_episode
    assert a.mean == b.mean


def test_evaluate_policy_rejects_zero_episodes(pendulum_reference):
    with pytest.raises(ValueError):
        evaluate_policy(lambda obs, runs: np.zeros((len(obs), 1)), env_spec("pendulum"),
                        pendulum_reference, episodes=0, seeds=[0])


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
        [e] = evaluate_policy(expert, spec, ref, episodes=40, seeds=[1234])
        [r] = evaluate_policy(rand, spec, ref, episodes=40, seeds=[4321])
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
    env.reset([0])
    env.step(np.zeros((1, 1)))
    assert len(steps) == 1
