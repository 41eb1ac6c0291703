import math

import numpy as np
import pytest

from o2olab import envs
from o2olab.envs import (
    BehaviorSpec,
    PendulumEnv,
    PointGoalEnv,
    ReferenceScores,
    behavior_act,
    compute_reference_scores,
    env_spec,
    evaluate_policy,
    expert_actions,
    make_env,
    run_episodes,
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


def expert_policy(spec):
    """The expert as a policy of one observation."""
    return lambda obs: expert_actions(spec, np.asarray(obs)[None])[0]


def scripted_action(behavior, spec, obs, rng):
    """A behavior's action on one observation, its draws made step by step
    from ``rng``: the per-step transcription of the behaviors from before
    they acted row-wise."""
    if behavior.kind == "uniform_random":
        return rng.uniform(-1.0, 1.0, size=spec.action_dim)
    if behavior.kind == "expert":
        return expert_policy(spec)(obs)
    if behavior.kind == "noisy_expert":
        a = expert_policy(spec)(obs) + rng.normal(0.0, behavior.sigma, spec.action_dim)
        return np.minimum(np.maximum(a, -1.0), 1.0)
    # epsilon_mixture
    if rng.random() < behavior.epsilon:
        return rng.uniform(-1.0, 1.0, size=spec.action_dim)
    return expert_policy(spec)(obs)


def behavior_policy(behavior, spec, rng):
    """The per-step transcription as a policy of one observation."""
    return lambda obs: scripted_action(behavior, spec, obs, rng)


def expert_act(spec):
    """The expert as an ``act(t, obs)`` of ``run_episodes``."""
    return lambda t, obs: expert_actions(spec, obs)


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
    return env._observe(env._theta, env._theta_dot)


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


def test_a_row_steps_on_past_its_end_and_an_env_without_rows_refuses_a_step():
    # the env drops no row: a row whose episode has ended steps on, beside
    # one still running, until its caller restarts it or resets the env
    spec = env_spec("pendulum", horizon=2)
    env = make_env(spec)
    env.reset([0])
    env.step(np.zeros((1, 1)))
    env.restart([0], [1])  # now the row's episode is one step behind
    for want in (False, True, True):
        res = env.step(np.zeros((1, 1)))
        assert res.truncated.tolist() == [want]
    env = make_env(spec)
    env.reset([0, 1])
    env.step(np.zeros((2, 1)))
    assert env.step(np.zeros((2, 1))).truncated.tolist() == [True, True]
    assert env.step(np.zeros((2, 1))).reward.shape == (2,)
    env.reset([])
    with pytest.raises(RuntimeError):
        env.step(np.zeros((0, 1)))
    with pytest.raises(RuntimeError):
        make_env(spec).step(np.zeros((0, 1)))


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
            rng = np.random.default_rng(99)
            act = behavior_act(spec, [BehaviorSpec("uniform_random")], [rng])
            runs.append(run_episodes(spec, [4], act))
        c1, c2 = runs
        assert sum(c1["reward"].tolist()) == sum(c2["reward"].tolist())
        for name in (*STEP_COLUMNS, "offsets"):
            assert np.array_equal(c1[name], c2[name]), name


def test_sparse_rewards_binary_single_success():
    spec = env_spec("point_goal_sparse")
    rng = np.random.default_rng(0)
    for ep in range(20):
        columns = run_episodes(spec, [ep], behavior_act(spec, [BehaviorSpec("expert")], [rng]))
        rewards = columns["reward"].tolist()
        assert set(rewards) <= {0.0, 1.0}
        assert sum(rewards) <= 1.0
        assert columns["offsets"].tolist() == [0, len(rewards)]
        assert len(rewards) <= spec.horizon


@pytest.mark.parametrize("kind", ["pendulum", "point_goal_dense", "point_goal_sparse"])
def test_rows_equal_reference_episodes(kind):
    # n episodes in one env, stepped directly (every row until every episode
    # has ended, recording the rows of the episodes still running) and
    # through run_episodes, and each alone through run_episodes, against the
    # per-episode reference. At horizon 20 the expert brings some point-goal
    # episodes to the goal, at different steps, and runs out of time on
    # others.
    spec = env_spec(kind, horizon=20)
    policy = expert_policy(spec)
    endings = set()
    for n in (1, 3, 12):
        seeds = [stable_seed("rows", kind, n, i) for i in range(n)]
        want = [reference_episode(spec, policy, s) for s in seeds]
        for s, w in zip(seeds, want):
            assert_columns_equal_steps(run_episodes(spec, [s], expert_act(spec)), 0, w)
        columns = run_episodes(spec, seeds, expert_act(spec))
        for i, w in enumerate(want):
            assert_columns_equal_steps(columns, i, w)
        env = make_env(spec)
        obs = env.reset(seeds)
        got = [[] for _ in seeds]
        running = np.ones(n, dtype=bool)
        while running.any():
            actions = np.stack([policy(o) for o in obs])
            res = env.step(actions)
            for i in np.flatnonzero(running):
                got[i].append((obs[i], actions[i], res.reward[i], res.next_obs[i],
                               res.terminated[i], res.truncated[i]))
            running &= ~res.done
            obs = res.next_obs
        for g, w in zip(got, want):
            assert_steps_equal(g, w)
        endings |= {(len(w), w[-1][4]) for w in want}
    if kind == "pendulum":
        assert endings == {(spec.horizon, False)}
    else:
        assert {terminated for _, terminated in endings} == {True, False}
        assert len({length for length, terminated in endings if terminated}) > 1


@pytest.mark.parametrize("kind", ["point_goal_dense", "point_goal_sparse"])
def test_a_row_restarted_alone_leaves_the_others_as_alone(kind):
    # three rows go on for 70 steps, each starting its next episode in its
    # row when its episode ends, as the fine-tune loop does. Every episode
    # equals its one-row reference, bit for bit: the rows beside a restart,
    # and a restarted episode, which truncates at its own horizon, not the
    # env's; an episode still running at the end equals its reference's
    # first steps.
    spec = env_spec(kind, horizon=20)
    policy = expert_policy(spec)
    env = make_env(spec)
    seeds = [[stable_seed("restart", kind, row, 0)] for row in range(3)]
    episodes = [[[]] for _ in range(3)]  # per row, per episode, its steps
    obs = env.reset([row_seeds[0] for row_seeds in seeds])
    restarts = []
    for _ in range(70):
        actions = np.stack([policy(o) for o in obs])
        res = env.step(actions)
        for row in range(3):
            episodes[row][-1].append((obs[row], actions[row], res.reward[row], res.next_obs[row],
                                      res.terminated[row], res.truncated[row]))
        obs = res.next_obs.copy()  # the steps recorded keep views of next_obs
        ended = np.flatnonzero(res.done).tolist()
        if ended:
            restarts.append(ended)
            for row in ended:
                seeds[row].append(stable_seed("restart", kind, row, len(seeds[row])))
                episodes[row].append([])
            obs[ended] = env.restart(ended, [seeds[row][-1] for row in ended])
    for row_seeds, row_episodes in zip(seeds, episodes):
        for seed, got in zip(row_seeds, row_episodes):
            want = reference_episode(spec, policy, seed)
            assert_steps_equal(got, want[: len(got)])
            assert len(got) < len(want) or got[-1][4] or got[-1][5]
    assert [1] in restarts or [0] in restarts or [2] in restarts  # a row restarted alone
    ends = {(len(got), got[-1][4]) for row in episodes for got in row[1:-1]}
    assert (spec.horizon, False) in ends  # a restarted episode ran to its horizon
    assert any(terminated for _, terminated in ends)


def test_run_episodes_asks_every_row_at_every_step():
    # at every step t the act gets every episode's row, in episode order,
    # an ended episode's too, until the longest episode has ended
    spec = env_spec("point_goal_dense", horizon=20)
    calls = []

    def logging_act(t, obs):
        calls.append((t, obs.copy()))
        return expert_actions(spec, obs)

    n = 12
    seeds = [stable_seed("rows", "order", i) for i in range(n)]
    columns = run_episodes(spec, seeds, logging_act)
    lengths = np.diff(columns["offsets"]).tolist()
    assert len(set(lengths)) > 1
    assert [t for t, _ in calls] == list(range(max(lengths)))
    for i, (start, length) in enumerate(zip(columns["offsets"].tolist(), lengths)):
        rows = np.stack([obs[i] for _, obs in calls])
        assert np.array_equal(rows[:length], columns["obs"][start : start + length])


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
    obs = np.array([[0.0, 0.0, 9.0, 9.0]])
    assert np.array_equal(expert_actions(spec, obs), np.array([[1.0, 1.0]]))
    obs = np.array([[8.8, 9.1, 0.2, -0.1]])
    assert np.allclose(expert_actions(spec, obs), np.array([[0.2, -0.1]]))


def one_row_actions(behavior, spec, obs, rng, steps):
    """The actions of one trajectory acting by ``behavior`` on the same
    observation row at each of ``steps`` steps."""
    act = behavior_act(env_spec(spec.kind, horizon=steps), [behavior], [rng])
    return np.concatenate([act(t, obs[None]) for t in range(steps)])


def test_behavior_act_gets_every_row_at_every_step():
    # trajectories of every kind side by side, some reaching the goal early:
    # the act gets every row at each step, an ended trajectory's too, and
    # each trajectory's rows equal those it rolls alone
    spec = env_spec("point_goal_sparse", horizon=30)
    kinds = [BehaviorSpec("expert"), BehaviorSpec("noisy_expert", sigma=0.3),
             BehaviorSpec("epsilon_mixture", epsilon=0.3), BehaviorSpec("uniform_random")]
    behaviors = kinds * 3
    seeds = [stable_seed("every-row", i) for i in range(len(behaviors))]

    def rngs():
        return [np.random.default_rng(seed) for seed in seeds]

    act, calls = behavior_act(spec, behaviors, rngs()), []

    def logging_act(t, obs):
        calls.append((t, len(obs)))
        return act(t, obs)

    columns = run_episodes(spec, seeds, logging_act)
    lengths = np.diff(columns["offsets"]).tolist()
    assert len(set(lengths)) > 1
    assert calls == [(t, len(seeds)) for t in range(max(lengths))]
    for i, (behavior, seed, rng) in enumerate(zip(behaviors, seeds, rngs())):
        alone = run_episodes(spec, [seed], behavior_act(spec, [behavior], [rng]))
        start, stop = columns["offsets"][i : i + 2]
        for name in STEP_COLUMNS:
            assert np.array_equal(columns[name][start:stop], alone[name]), name


def test_epsilon_one_is_uniform_random_in_distribution():
    spec = env_spec("point_goal_sparse")
    obs = np.array([0.0, 0.0, 9.0, 9.0])  # expert here would always emit (1, 1)
    rng = np.random.default_rng(5)
    draws = one_row_actions(BehaviorSpec("epsilon_mixture", epsilon=1.0), spec, obs, rng, 2000)
    assert np.all(np.abs(draws.mean(axis=0)) < 0.05)
    assert np.all(draws.min(axis=0) < -0.95) and np.all(draws.max(axis=0) > 0.95)


def test_epsilon_zero_is_expert():
    spec = env_spec("point_goal_sparse")
    obs = np.array([1.0, 2.0, 8.0, 7.0])
    mix = one_row_actions(BehaviorSpec("epsilon_mixture", epsilon=0.0), spec, obs,
                          np.random.default_rng(5), 1)
    assert np.array_equal(mix, expert_actions(spec, obs[None]))


def test_noisy_expert_clipped():
    spec = env_spec("point_goal_sparse")
    obs = np.array([0.0, 0.0, 9.0, 9.0])
    rng = np.random.default_rng(0)
    for a in one_row_actions(BehaviorSpec("noisy_expert", sigma=2.0), spec, obs, rng, 50):
        assert np.all(a >= -1.0) and np.all(a <= 1.0)


def test_behavior_validation():
    with pytest.raises(ConfigError):
        BehaviorSpec("noisy_expert", sigma=-1.0)
    with pytest.raises(ConfigError, match="sigma must be >= 0, got nan"):
        BehaviorSpec("noisy_expert", sigma=float("nan"))
    with pytest.raises(ConfigError):
        BehaviorSpec("epsilon_mixture", epsilon=1.5)
    with pytest.raises(ConfigError):
        BehaviorSpec("greedy")
    # a parameter of another kind would draw nothing
    for kind in ("uniform_random", "expert", "epsilon_mixture"):
        with pytest.raises(ConfigError, match="^sigma is a parameter of kind 'noisy_expert'"):
            BehaviorSpec(kind, sigma=0.5)
    for kind in ("uniform_random", "expert", "noisy_expert"):
        with pytest.raises(ConfigError, match="^epsilon is a parameter of kind 'epsilon_mixture'"):
            BehaviorSpec(kind, epsilon=0.2)
    assert BehaviorSpec("expert", sigma=0.0, epsilon=0.0) == BehaviorSpec("expert")


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
            res = env.step(expert_actions(spec, obs[None]))
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


def lone_reference(spec, seed, episodes):
    """The reference means of episodes run one at a time, each random one
    drawing its actions step by step from the shared generator, and the
    step count of each random episode."""
    means, lengths = {}, []
    for behavior in ("uniform_random", "expert"):
        rng = np.random.default_rng(stable_seed("reference", behavior, seed))
        policy = behavior_policy(BehaviorSpec(behavior), spec, rng)
        returns = []
        for i in range(episodes):
            steps = reference_episode(spec, policy, stable_seed("reference", behavior, seed, i))
            raw = 0.0
            for _, _, reward, *_ in steps:
                raw += reward
            returns.append(raw)
            if behavior == "uniform_random":
                lengths.append(len(steps))
        means[behavior] = float(np.mean(returns))
    return means, lengths


@pytest.mark.parametrize("kind", ["pendulum", "point_goal_dense", "point_goal_sparse"])
def test_reference_means_equal_the_episodes_run_one_at_a_time(kind):
    # the expert's episodes and the random ones run side by side; both means
    # are those of the lone episodes. No random episode ends early here, so
    # the random ones take one pass.
    spec, seed, episodes = env_spec(kind, horizon=20), 7, 12
    ref = compute_reference_scores(spec, seed=seed, episodes=episodes)
    means, lengths = lone_reference(spec, seed, episodes)
    assert lengths == [spec.horizon] * episodes
    assert (ref.random_return, ref.expert_return) == (means["uniform_random"], means["expert"])


def test_random_reference_episodes_after_one_that_ends_early_take_another_pass():
    # random episodes 2, 7, 8 and 12 of 16 reach the goal early, so the
    # random ones take five passes, one starting right after another's end
    spec, seed, episodes = env_spec("point_goal_dense", horizon=60), 0, 16
    means, lengths = lone_reference(spec, seed, episodes)
    assert [i for i, n in enumerate(lengths) if n < spec.horizon] == [2, 7, 8, 12]
    ref = compute_reference_scores(spec, seed=seed, episodes=episodes)
    assert (ref.random_return, ref.expert_return) == (means["uniform_random"], means["expert"])


@pytest.mark.parametrize("episodes", [0, -3])
def test_reference_scores_reject_fewer_than_one_episode(episodes):
    with pytest.raises(ValueError, match="episodes must be >= 1"):
        compute_reference_scores(env_spec("pendulum"), seed=0, episodes=episodes)


def rows_policy(policy):
    """A per-observation policy as the episodes x policies policy that
    evaluate_policy calls, applied row by row, whatever the rows' policies.
    It also acts on the rows of the episodes that have ended."""
    return lambda obs: np.stack([policy(o) for o in obs.reshape(-1, obs.shape[-1])]).reshape(
        *obs.shape[:-1], -1
    )


def expert_grid(spec):
    """The expert as the episodes x policies policy that evaluate_policy
    calls, on every row at once, the rows of ended episodes too."""
    return lambda obs: expert_actions(spec, obs.reshape(-1, spec.obs_dim)).reshape(
        *obs.shape[:-1], -1
    )


def random_grid(spec, rng):
    """Uniform-random actions from ``rng`` for the episodes x policies rows
    of evaluate_policy, the rows of ended episodes too, row after row."""
    return lambda obs: rng.uniform(-1.0, 1.0, size=(*obs.shape[:-1], spec.action_dim))


@pytest.mark.parametrize("kind", ["point_goal_dense", "point_goal_sparse"])
def test_evaluation_steps_until_its_longest_episode_has_ended(kind):
    # the expert brings every point-goal episode to the goal, at different
    # steps and before the horizon: each scores exactly as its one-episode
    # rollout, and the evaluation asks the policy once per step of the
    # longest episode
    spec = env_spec(kind)
    ref = ReferenceScores(kind, -10.0, 1.0, 1, 0)
    expert, calls = expert_grid(spec), []

    def counting_expert(obs):
        calls.append(obs.shape)
        return expert(obs)

    episodes, seeds = 12, [5, 6]
    got = evaluate_policy(counting_expert, spec, ref, episodes, seeds)
    lengths = []
    for seed, evaluation in zip(seeds, got):
        want = []
        for i in range(episodes):
            episode_seed = stable_seed("eval-episode", seed, i)
            rewards = run_episodes(spec, [episode_seed], expert_act(spec))["reward"]
            raw = 0.0
            for reward in rewards.tolist():
                raw += reward
            want.append(ref.normalize(raw))
            lengths.append(len(rewards))
        assert evaluation.per_episode == want
    assert len(set(lengths)) > 1 and max(lengths) < spec.horizon
    assert calls == [(episodes, len(seeds), spec.obs_dim)] * max(lengths)


def test_evaluate_policy_normalization_identity(pendulum_reference):
    spec = env_spec("pendulum")
    expert = expert_grid(spec)
    [result] = evaluate_policy(expert, spec, pendulum_reference, episodes=20, seeds=[3])
    assert result.mean == pytest.approx(1.0, abs=0.35)

    random_pol = random_grid(spec, np.random.default_rng(2))
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
        evaluate_policy(lambda obs: np.zeros((*obs.shape[:-1], 1)), env_spec("pendulum"),
                        pendulum_reference, episodes=0, seeds=[0])


def test_normalized_anchors_on_fresh_seeds():
    # expert >= 0.9 and random <= 0.1 when re-evaluated away from the
    # reference seeds, on both environments
    for kind in ("point_goal_sparse", "pendulum"):
        spec = env_spec(kind)
        ref = compute_reference_scores(spec, seed=0, episodes=60)
        expert = expert_grid(spec)
        rand = random_grid(spec, np.random.default_rng(8))
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
