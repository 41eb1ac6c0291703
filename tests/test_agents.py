import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from o2olab import envs, nn
from o2olab.agents import (
    RegularizerConfig,
    Td3Hyper,
    _actor_gradients,
    act,
    agent_from_bc_fqe,
    bc_pretrain,
    fqe,
    load_agent,
    make_td3_agent,
    offline_rl_pretrain,
    policy_fn,
    reset_parameters,
    save_agent,
    select_runs,
    stack_agents,
    td3_update,
)
from o2olab.data import (
    OfflineDataset,
    ReplayBuffer,
    TransitionBatch,
    generate_dataset,
)
from o2olab.envs import (
    BehaviorSpec,
    ReferenceScores,
    compute_reference_scores,
    env_spec,
    evaluate_policy,
    run_episodes,
)
from o2olab.errors import MissingInputError, NumericError, ShapeError
from o2olab.seeding import stable_seed

from test_data import COLUMNS, one_trajectory, trajectory
from test_envs import assert_columns_equal_steps, reference_episode
from test_nn import fresh_adam, member, param_grad

SMALL = Td3Hyper(hidden=(16, 16), batch=64)


NETS = ("actor", "critics", "target_actor", "target_critics")


def nets_equal(a: nn.DenseNet, b: nn.DenseNet) -> bool:
    return a.layer_sizes == b.layer_sizes and np.array_equal(a.params, b.params)


def constant_action_dataset(action_value=0.25, n=200, seed=0):
    spec = env_spec("point_goal_dense")
    ref = ReferenceScores("point_goal_dense", -70.0, -8.0, 1, 0)
    rng = np.random.default_rng(seed)
    obs = np.array([rng.uniform(0, 10, 4) for _ in range(n)])
    return one_trajectory(spec, ref, obs, np.full((n, 2), action_value), np.full(n, -1.0),
                          obs, np.zeros(n, dtype=bool))


def stack_batches(batches):
    """Lone batches, (B, ...) each, as one batch with a leading run axis."""
    return TransitionBatch(*(np.stack(c) for c in zip(*(vars(b).values() for b in batches))))


def batch_from(dataset, size, rng):
    """A lone batch, without a run axis: ``size`` dataset rows drawn by ``rng``."""
    [batch] = zip(*vars(ReplayBuffer.from_dataset(dataset).sample(size, [rng])).values())
    return TransitionBatch(*batch)


def update(agent, batch, reg, rng):
    """One update of the group of one ``agent`` on ``batch``, drawing from
    ``rng``; returns {0: reason} when it blows up."""
    return td3_update(agent, stack_batches([batch]), reg, [rng])


def plain(net):
    """The one member of a stack of one as a plain net sharing its memory."""
    return member(net, 0)


# --- construction / act / reset ---


def test_make_agent_deterministic():
    a = make_td3_agent(3, 1, SMALL, seed=4)
    b = make_td3_agent(3, 1, SMALL, seed=4)
    for name in NETS:
        assert nets_equal(getattr(a, name), getattr(b, name))
    assert not nets_equal(member(a.critics, 0), member(a.critics, 1))
    assert (a.runs, a.actor.stack, a.critics.stack) == (1, (1,), (1, 2))


def test_targets_start_equal_to_online():
    a = make_td3_agent(3, 1, SMALL, seed=4)
    assert nets_equal(a.actor, a.target_actor)
    assert nets_equal(a.critics, a.target_critics)


def test_act_deterministic_and_clipped():
    # the policy is deterministic, and the exploring act is determined by
    # its generators; both are clipped to [-1, 1]
    agent = make_td3_agent(3, 2, SMALL, seed=0)
    obs = np.array([0.5, -0.2, 1.0])
    a1 = policy_fn(agent.actor)(obs)
    assert np.array_equal(a1, policy_fn(agent.actor)(obs))
    assert np.all(np.abs(a1) <= 1.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        noisy = act(agent, obs[None], [rng])
        assert np.all(np.abs(noisy) <= 1.0)
    assert np.array_equal(act(agent, obs[None], [np.random.default_rng(1)]),
                          act(agent, obs[None], [np.random.default_rng(1)]))
    # one row and one generator per run: no noise row is shared by others
    for rows, rngs in ((obs, [rng]), (np.stack([obs, obs]), [rng]), (obs[None], [rng, rng])):
        with pytest.raises(ValueError, match="one row and one generator per run"):
            act(agent, rows, rngs)


@pytest.mark.parametrize("obs_dim,action_dim", [(3, 1), (4, 2)])
@pytest.mark.parametrize("hidden", [(32, 32), (64, 64)])
def test_act_on_rows_equals_act_per_row(obs_dim, action_dim, hidden):
    agent = make_td3_agent(obs_dim, action_dim, Td3Hyper(hidden=hidden), seed=2)
    rows = np.random.default_rng(3).normal(0.0, 4.0, size=(17, obs_dim))
    policy = policy_fn(agent.actor)
    got = policy(rows)
    assert got.shape == (17, action_dim)
    assert np.array_equal(got, np.stack([policy(r) for r in rows]))


def steer_to_goal(agent):
    """Make a point-goal actor head for the goal: its first four hidden
    units per layer carry relu(+-(goal - pos)), and the output adds them with
    a large gain to the other units' random contribution scaled by 0.1. The
    sparse reward's episodes then end at the goal, at different steps."""
    w, b = plain(agent.actor).weights, plain(agent.actor).biases
    w[0][:4] = 0.0
    w[0][[0, 1, 2, 3], [2, 2, 3, 3]] = [1.0, -1.0, 1.0, -1.0]
    b[0][:4] = 0.0
    for l in range(1, len(w) - 1):
        w[l][:4] = 0.0
        w[l][:4, :4] = np.eye(4)
        b[l][:4] = 0.0
    w[-1] *= 0.1
    w[-1][:, :4] = [[3.0, -3.0, 0.0, 0.0], [0.0, 0.0, 3.0, -3.0]]
    return agent


@pytest.mark.parametrize("kind", ["pendulum", "point_goal_dense", "point_goal_sparse"])
@pytest.mark.parametrize("hidden", [(32, 32), (64, 64)])
def test_evaluate_policy_equals_sequential_episodes(kind, hidden):
    # the lockstep evaluation, and the one-row rollouts of run_episodes,
    # against the per-episode reference dynamics on single observations:
    # steps and scores must agree exactly. At horizon 25 the point-goal
    # episodes end at the goal at different steps, one of them on the
    # horizon step itself, and others are cut off by the horizon.
    spec = env_spec(kind) if kind == "pendulum" else env_spec(kind, horizon=25)
    ref = ReferenceScores(kind, -1000.0, -100.0, 1, 0)
    agent = make_td3_agent(spec.obs_dim, spec.action_dim, Td3Hyper(hidden=hidden), seed=6)
    if kind != "pendulum":
        steer_to_goal(agent)
    seed = 31
    endings = set()
    for episodes in (1, 3, 12):
        want = []
        for i in range(episodes):
            episode_seed = stable_seed("eval-episode", seed, i)
            policy = policy_fn(agent.actor)
            steps = reference_episode(spec, policy, episode_seed)
            rolled = run_episodes(spec, [episode_seed], lambda t, obs: [policy(o) for o in obs])
            assert_columns_equal_steps(rolled, 0, steps)
            raw = 0.0
            for step in steps:
                raw += step[2]
            want.append(ref.normalize(raw))
            endings.add((len(steps), step[4], step[5]))
        [got] = evaluate_policy(policy_fn(agent.actor), spec, ref, episodes, [seed])
        assert got.per_episode == want
        assert got.mean == float(np.mean(want))
    if kind != "pendulum":
        assert len({n for n, terminated, _ in endings if terminated}) > 1
        assert (spec.horizon, True, False) in endings
        assert (spec.horizon, False, True) in endings
    else:
        assert endings == {(spec.horizon, False, True)}


def test_evaluate_policy_rejects_wrong_action_rows():
    # exactly one action row of width action_dim per episode of each
    # policy: an (episodes, policies, 1) stack would otherwise broadcast
    # over the point goal's 2-wide positions
    wrong_shapes = {
        "pendulum": [lambda e, p: (1,), lambda e, p: (e, p, 2), lambda e, p: (e - 1, p, 1),
                     lambda e, p: (e * p, 1)],
        "point_goal_dense": [
            lambda e, p: (e, p, 1),
            lambda e, p: (e, p, 3),
            lambda e, p: (e - 1, p, 2),
            lambda e, p: (e, p + 1, 2),
            lambda e, p: (e * p, 2),
            lambda e, p: (2,),
        ],
    }
    for kind, shapes in wrong_shapes.items():
        spec = env_spec(kind)
        ref = ReferenceScores(kind, -1000.0, -100.0, 1, 0)
        for shape in shapes:
            with pytest.raises(ShapeError):
                evaluate_policy(lambda obs: np.zeros(shape(*obs.shape[:-1])), spec, ref,
                                episodes=3, seeds=[0, 1])


def test_act_zero_noise_equals_deterministic():
    hyper = Td3Hyper(hidden=(8,), explore_noise=0.0)
    agent = make_td3_agent(3, 1, hyper, seed=1)
    obs = np.array([[0.1, 0.2, 0.3]])
    assert np.array_equal(act(agent, obs, [np.random.default_rng(0)]), policy_fn(agent.actor)(obs))


def test_reset_equals_fresh_agent():
    agent = make_td3_agent(4, 2, SMALL, seed=3)
    rng = np.random.default_rng(0)
    ds = constant_action_dataset()
    for _ in range(5):
        update(agent, batch_from(ds, 32, rng), RegularizerConfig(), rng)
    reset_parameters(agent, seed=42)
    fresh = make_td3_agent(4, 2, SMALL, seed=42)
    for name in NETS:
        assert nets_equal(getattr(agent, name), getattr(fresh, name))
    assert agent.update_count == 0
    for opt in (agent.actor_opt, agent.critic_opt):
        assert opt.step_count == 0
        assert np.all(opt.m == 0.0) and np.all(opt.v == 0.0)


# --- td3_update mechanics ---


def test_policy_delay_semantics():
    agent = make_td3_agent(4, 2, SMALL, seed=0)
    ds = constant_action_dataset()
    rng = np.random.default_rng(1)
    actor_before = agent.actor.params.copy()
    critic_before = member(agent.critics, 0).params.copy()
    assert update(agent, batch_from(ds, 32, rng), RegularizerConfig(), rng) == {}
    assert agent.update_count == 1
    assert agent.actor_opt.step_count == 0
    assert np.array_equal(agent.actor.params, actor_before)
    assert not np.array_equal(member(agent.critics, 0).params, critic_before)
    assert update(agent, batch_from(ds, 32, rng), RegularizerConfig(), rng) == {}
    assert agent.actor_opt.step_count == 1
    assert not np.array_equal(agent.actor.params, actor_before)


def test_polyak_applied_every_update():
    agent = make_td3_agent(4, 2, SMALL, seed=0)
    ds = constant_action_dataset()
    rng = np.random.default_rng(1)
    tau = agent.hyper.tau
    target_prev = [w[0].copy() for w in agent.target_critics.weights]
    update(agent, batch_from(ds, 32, rng), RegularizerConfig(), rng)
    expected = [
        (1 - tau) * tp + tau * on[0]
        for tp, on in zip(target_prev, agent.critics.weights)
    ]
    for got, want in zip(agent.target_critics.weights, expected):
        assert np.array_equal(got[0], want)


def test_textbook_td3_hand_check():
    # one-transition batch, beta=0, q_normalization off: replay every stage
    # of the update by hand and require bit-identical results
    hyper = Td3Hyper(hidden=(2,), batch=1, gamma=0.5, target_noise=0.0, noise_clip=0.0,
                     tau=0.1, policy_delay=1)
    agent = make_td3_agent(1, 1, hyper, seed=0)
    mirror = make_td3_agent(1, 1, hyper, seed=0)
    obs = np.array([[0.7]])
    action = np.array([[0.2]])
    reward, terminated = 1.0, 0.0
    next_obs = np.array([[0.3]])
    batch = TransitionBatch(
        obs=obs, action=action, reward=np.array([reward]), next_obs=next_obs,
        terminated=np.array([terminated]),
    )
    assert update(agent, batch, RegularizerConfig(), np.random.default_rng(0)) == {}

    # --- hand computation on the mirror agent, one plain net per critic,
    # each with its own Adam state (members are views into the pair) ---
    critic1, critic2 = member(mirror.critics, 0), member(mirror.critics, 1)
    target1, target2 = member(mirror.target_critics, 0), member(mirror.target_critics, 1)
    actor, target_actor = plain(mirror.actor), plain(mirror.target_actor)
    a_next = np.clip(nn.forward(target_actor, next_obs), -1, 1)  # zero noise
    x_next = np.concatenate([next_obs, a_next], axis=1)
    q1n = nn.forward(target1, x_next)[0, 0]
    q2n = nn.forward(target2, x_next)[0, 0]
    y = reward + hyper.gamma * (1 - terminated) * min(q1n, q2n)
    x = np.concatenate([obs, action], axis=1)
    for critic in (critic1, critic2):
        q = nn.forward(critic, x)[0, 0]
        grad = param_grad(critic, x, np.array([[2.0 * (q - y)]]))
        nn.adam_step(critic, grad, fresh_adam(critic, hyper.critic_lr))
    x_pi = np.concatenate([obs, nn.forward(actor, obs)], axis=1)
    da = -nn.input_gradient(critic1, x_pi, np.ones((1, 1)))[:, 1:]
    nn.adam_step(mirror.actor, param_grad(actor, obs, da)[None], mirror.actor_opt)
    for target, online in ((target_actor, actor),
                           (target1, critic1),
                           (target2, critic2)):
        nn.polyak_update(target, online, hyper.tau)

    for name in NETS:
        assert nets_equal(getattr(agent, name), getattr(mirror, name)), name


def test_beta_zero_gradient_is_pure_dpg():
    agent = make_td3_agent(4, 2, SMALL, seed=5)
    ds = constant_action_dataset()
    batch = batch_from(ds, 16, np.random.default_rng(0))
    g_plain, _ = _actor_gradients(agent, stack_batches([batch]), RegularizerConfig())
    # replicate the deterministic-policy-gradient term by hand
    a = nn.forward(plain(agent.actor), batch.obs)
    x = np.concatenate([batch.obs, a], axis=1)
    n = batch.reward.size
    dq = nn.input_gradient(member(agent.critics, 0), x, np.full((n, 1), 1.0 / n))[:, 4:]
    g_hand = param_grad(plain(agent.actor), batch.obs, -dq)
    assert np.allclose(g_plain, g_hand, atol=1e-14)


def test_actor_step_takes_no_critic_parameter_gradient(monkeypatch):
    # the actor step needs only critic 1's input gradient: one full backward
    # for the critic pair and one for the actor
    calls = []
    real_backward = nn.backward

    def counting_backward(net, cache, output_grad):
        calls.append(net)
        return real_backward(net, cache, output_grad)

    monkeypatch.setattr(nn, "backward", counting_backward)
    agent = make_td3_agent(4, 2, SMALL, seed=5)
    batch = batch_from(constant_action_dataset(), 16, np.random.default_rng(0))
    agent.update_count = SMALL.policy_delay - 1  # the next update steps the actor
    update(agent, batch, RegularizerConfig(0.4, True), np.random.default_rng(1))
    assert calls == [agent.critics, agent.actor]


def test_huge_beta_aligns_with_bc_gradient():
    # gradient-direction oracle: at beta = 1e6 the actor update direction is
    # the behavior-cloning gradient
    agent = make_td3_agent(4, 2, SMALL, seed=6)
    ds = constant_action_dataset()
    batch = batch_from(ds, 32, np.random.default_rng(1))
    g_reg, _ = _actor_gradients(
        agent, stack_batches([batch]), RegularizerConfig(bc_coefficient=1e6, q_normalization=False)
    )
    pred = nn.forward(plain(agent.actor), batch.obs)
    err = pred - batch.action
    va = g_reg[0]  # the gradient of the one run
    vb = param_grad(plain(agent.actor), batch.obs, 2.0 * err / err.size)
    cosine = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
    assert cosine > 0.99


def test_update_rejects_nonfinite():
    agent = make_td3_agent(2, 1, SMALL, seed=0)
    batch = TransitionBatch(
        obs=np.zeros((4, 2)), action=np.zeros((4, 1)),
        reward=np.array([np.inf, 0, 0, 0]), next_obs=np.zeros((4, 2)),
        terminated=np.zeros(4),
    )
    failed = update(agent, batch, RegularizerConfig(), np.random.default_rng(0))
    assert failed == {0: "non-finite critic target"}


def test_update_deterministic_given_rng():
    ds = constant_action_dataset()
    outs = []
    for _ in range(2):
        agent = make_td3_agent(4, 2, SMALL, seed=9)
        rng = np.random.default_rng(33)
        for _ in range(4):
            update(agent, batch_from(ds, 16, rng), RegularizerConfig(), rng)
        outs.append(agent)
    assert nets_equal(outs[0].actor, outs[1].actor)
    assert nets_equal(outs[0].critics, outs[1].critics)


# --- lockstep groups ---


def random_batch(rng, size, obs_dim, action_dim):
    return TransitionBatch(
        obs=rng.normal(size=(size, obs_dim)), action=rng.uniform(-1, 1, (size, action_dim)),
        reward=rng.normal(size=size), next_obs=rng.normal(size=(size, obs_dim)),
        terminated=(rng.random(size) < 0.1).astype(float),
    )


def same_state(a, b):
    return a.update_count == b.update_count and np.array_equal(a.state, b.state)


def run_of(group, run):
    """Run ``run`` of a group as a group of one."""
    return select_runs(group, [run])


# (obs_dim, action_dim, sha256 of ``state``) of make_td3_agent(obs_dim,
# action_dim, hyper, seed=0) after 40 updates on random_batch draws. The
# point-goal sizes were recorded when a run alone was a plain single-run agent
# with its own update path; the pendulum one, whose actor ends in a 1-wide
# layer, before ReLU and the 1-wide layers' backprop left numpy's slow paths
POINT, PENDULUM = (4, 2), (3, 1)
ALONE_DIGESTS = {
    ((8, 8), 16, False): (*POINT, "cf1e9746845ba8a500cf0a826f4aa730b721cd1a64b8b35269612427f1839558"),
    ((8, 8), 16, True): (*POINT, "52a0ecb8e50aa66f6033c88f9e9e2050175ad8f62b7f0b14ab8dfde63e8f78fb"),
    ((32, 32), 64, False): (*POINT, "c0413e7fc496c59a6288e0abd301d1eb6c378ca26a66a09fdc475c4bb7a7237b"),
    ((32, 32), 64, True): (*POINT, "59a4f4109c07bae7ffc69b78b3d27b7d5440caf90b0b4db216325cb462af4501"),
    ((64, 64), 256, False): (*PENDULUM, "13bba7f28ca98edc1eeb3f1202f160be8683220d00d0fabe8a94dd5d8562d258"),
    ((64, 64), 256, True): (*PENDULUM, "7040c8db57bfb2dbfc53cb3a0cda6f3a140d2bbe3583f24ddc16d3f942a4fbf6"),
}


@pytest.mark.parametrize("hidden,batch,regularized", sorted(ALONE_DIGESTS))
def test_a_group_of_one_steps_as_the_single_run_did(hidden, batch, regularized):
    obs_dim, action_dim, want = ALONE_DIGESTS[(hidden, batch, regularized)]
    reg = RegularizerConfig(0.4, True) if regularized else RegularizerConfig()
    agent = make_td3_agent(obs_dim, action_dim, Td3Hyper(hidden=hidden, batch=batch), seed=0)
    rng, data = np.random.default_rng(10), np.random.default_rng(7)
    for _ in range(40):
        assert update(agent, random_batch(data, batch, obs_dim, action_dim), reg, rng) == {}
    digest = hashlib.sha256(agent.state.tobytes()).hexdigest()
    assert agent.update_count == 40
    assert digest == want


# point-goal nets in groups of 1 to 3, and pendulum (64, 64)@256 nets, which
# the lockstep rule groups too, in a group of 2
GROUP_CASES = [
    pytest.param(runs, hidden, batch, POINT, id=f"{runs}-hidden{i}-{batch}")
    for runs in (1, 2, 3)
    for i, (hidden, batch) in enumerate([((8, 8), 16), ((32, 32), 64)])
] + [pytest.param(2, (64, 64), 256, PENDULUM, id="2-hidden2-256")]


@pytest.mark.parametrize("reg", [RegularizerConfig(), RegularizerConfig(0.4, True)])
@pytest.mark.parametrize("runs,hidden,batch,dims", GROUP_CASES)
def test_group_update_equals_each_run_alone(reg, runs, hidden, batch, dims):
    hyper = Td3Hyper(hidden=hidden, batch=batch)
    alone = [make_td3_agent(*dims, hyper, seed=s) for s in range(runs)]
    group = stack_agents(alone)
    alone_rngs = [np.random.default_rng(10 + r) for r in range(runs)]
    group_rngs = [np.random.default_rng(10 + r) for r in range(runs)]
    data = np.random.default_rng(7)
    for _ in range(40):  # policy delay 2: 20 actor steps
        batches = [random_batch(data, batch, *dims) for _ in range(runs)]
        for agent, b, rng in zip(alone, batches, alone_rngs):
            assert update(agent, b, reg, rng) == {}
        assert td3_update(group, stack_batches(batches), reg, group_rngs) == {}
    for r, agent in enumerate(alone):
        assert same_state(run_of(group, r), agent), r


def test_stack_and_select_keep_each_run():
    agents = [make_td3_agent(4, 2, SMALL, seed=s) for s in range(3)]
    for r, agent in enumerate(agents):  # moments and targets apart from the online nets
        online = agent.actor.params.size + agent.critics.params.size
        rest = agent.state[:, online:]
        rest += np.random.default_rng(r).normal(size=rest.shape)
    group = stack_agents(agents)
    assert group.runs == 3 and group.critics.stack == (3, 2)
    for r, agent in enumerate(agents):
        assert same_state(run_of(group, r), agent)
        assert np.array_equal(group.critics[r, 0].params, agent.critics[0, 0].params)
        assert np.array_equal(group.critics[r, 1].params, agent.critics[0, 1].params)
    kept = select_runs(group, [2, 0])
    assert kept.runs == 2
    assert same_state(run_of(kept, 0), agents[2]) and same_state(run_of(kept, 1), agents[0])
    agents[1].update_count += 1
    with pytest.raises(ValueError):
        stack_agents(agents)


def test_a_groups_rows_are_its_runs_checkpoints(tmp_path):
    group = stack_agents([make_td3_agent(4, 2, SMALL, seed=s) for s in range(3)])
    state = group.state
    data = np.random.default_rng(7)
    rngs = [np.random.default_rng(r) for r in range(3)]
    for _ in range(3):  # targets and moments apart from the online nets and zero
        batch = stack_batches([random_batch(data, 32, 4, 2) for _ in range(3)])
        assert td3_update(group, batch, RegularizerConfig(0.4, True), rngs) == {}
    assert group.state is state and state.flags.c_contiguous  # updated in place
    for r in range(3):
        save_agent(select_runs(group, [r]), tmp_path / str(r))
        params = (tmp_path / str(r) / "params.npy").read_bytes()
        assert params.endswith(state[r].tobytes())
        assert np.load(tmp_path / str(r) / "params.npy").tobytes() == state[r].tobytes()
    loaded = stack_agents([load_agent(tmp_path / str(r)) for r in range(3)])
    assert loaded.state.tobytes() == state.tobytes()
    # every net and moment is a view into the state, not a copy
    actor, critic = group.actor.params.shape[-1], group.critics.params.shape[-1]
    group.actor.params[1, 0] = 42.0
    assert state[1, 0] == 42.0
    group.critic_opt.m[2, 1, -1] = -7.0  # critic 2 of run 2: the end of its row's critic m
    assert state[2, 4 * actor + 6 * critic - 1] == -7.0
    group.critics[:, 0].weights[0][0, 0, 0] = 5.0  # critic 1's first weight, run 0
    assert state[0, actor] == 5.0
    with pytest.raises(ValueError, match="one run"):
        save_agent(group, tmp_path / "group")


def test_group_act_and_policy_act_as_each_run():
    agents = [make_td3_agent(4, 2, SMALL, seed=s) for s in range(3)]
    group = stack_agents(agents)
    obs = np.random.default_rng(0).normal(0.0, 4.0, size=(3, 4))
    got = act(group, obs, [np.random.default_rng(r) for r in range(3)])
    for r, agent in enumerate(agents):
        alone = act(agent, obs[r : r + 1], [np.random.default_rng(r)])
        assert np.array_equal(got[r : r + 1], alone)
    # the evaluation policy: episodes x runs rows, each by its run's actor
    policy = policy_fn(group.actor)
    rows = np.random.default_rng(1).normal(0.0, 4.0, size=(5, 3, 4))
    want = np.stack([[policy_fn(agents[r].actor)(row[r]) for r in range(3)] for row in rows])
    assert np.array_equal(policy(rows), want)


def test_group_evaluation_equals_each_run_alone():
    # episodes end at the goal at different steps, so rows drop mid-way
    spec = env_spec("point_goal_sparse", horizon=25)
    ref = ReferenceScores(spec.kind, -1000.0, -100.0, 1, 0)
    agents = [steer_to_goal(make_td3_agent(4, 2, SMALL, seed=s)) for s in range(3)]
    seeds = [31, 32, 33]
    got = evaluate_policy(policy_fn(stack_agents(agents).actor), spec, ref, 5, seeds)
    for result, agent, seed in zip(got, agents, seeds):
        [alone] = evaluate_policy(policy_fn(agent.actor), spec, ref, 5, [seed])
        assert (result.per_episode, result.mean) == (alone.per_episode, alone.mean)
    assert len({score for result in got for score in result.per_episode}) > 1


def overflow_targets(agent):
    for w in agent.target_critics.weights[1:]:
        w[:] = 1e200  # the targets overflow to +inf


def infinite_second_critic(agent):
    member(agent.critics, 1).biases[-1][:] = np.inf


@pytest.mark.parametrize("damage,reason", [
    (overflow_targets, "non-finite critic target"),
    (infinite_second_critic, "critic loss is not finite at update 1"),
])
def test_group_update_fails_only_the_run_that_blows_up(damage, reason):
    agents = [make_td3_agent(4, 2, SMALL, seed=s) for s in range(3)]
    damage(agents[1])
    group = stack_agents(agents)
    data = np.random.default_rng(7)
    batches = [random_batch(data, 32, 4, 2) for _ in range(3)]
    reg = RegularizerConfig(0.4, True)
    failed = td3_update(group, stack_batches(batches), reg,
                        [np.random.default_rng(r) for r in range(3)])
    assert failed == {1: reason}
    assert update(agents[1], batches[1], reg, np.random.default_rng(1)) == {0: reason}
    for r in (0, 2):
        assert update(agents[r], batches[r], reg, np.random.default_rng(r)) == {}
        assert same_state(run_of(group, r), agents[r]), r


def test_group_update_fails_only_the_run_whose_gradient_is_not_finite(monkeypatch):
    agents = [make_td3_agent(4, 2, SMALL, seed=s) for s in range(3)]
    group = stack_agents(agents)
    real_backward = nn.backward

    def poisoned_backward(net, cache, output_grad):
        grad = real_backward(net, cache, output_grad)
        if net is group.critics:
            grad[1, 1, 0] = np.nan  # an entry of critic 2 of run 1
        return grad

    monkeypatch.setattr(nn, "backward", poisoned_backward)
    data = np.random.default_rng(7)
    batches = [random_batch(data, 32, 4, 2) for _ in range(3)]
    reg = RegularizerConfig(0.4, True)
    failed = td3_update(group, stack_batches(batches), reg,
                        [np.random.default_rng(r) for r in range(3)])
    assert failed == {1: "non-finite gradient entry"}
    monkeypatch.undo()
    for r in (0, 2):
        assert update(agents[r], batches[r], reg, np.random.default_rng(r)) == {}
        assert same_state(run_of(group, r), agents[r]), r


# --- pretraining ---


@pytest.fixture(scope="module")
def dense_ref():
    return compute_reference_scores(env_spec("point_goal_dense"), seed=0, episodes=30)


def pretrain_group(dataset, seeds, hyper=SMALL):
    """A new lockstep group for ``dataset``'s env, one run per seed, as the
    runner builds one to pretrain."""
    spec = dataset.env
    return stack_agents([make_td3_agent(spec.obs_dim, spec.action_dim, hyper, s) for s in seeds])


def test_bc_learns_constant_action():
    ds = constant_action_dataset(action_value=0.25)
    group = pretrain_group(ds, [0])
    bc_pretrain(group, ds, steps=3000, seeds=[0])
    obs = trajectory(ds, 0)["obs"][:50]
    pred = nn.forward(group.actor, obs)
    assert np.all(np.abs(pred - 0.25) < 0.05)


def test_bc_requires_steps():
    ds = constant_action_dataset()
    with pytest.raises(ValueError):
        bc_pretrain(pretrain_group(ds, [0]), ds, steps=0, seeds=[0])


def test_bc_raises_on_a_nonfinite_gradient():
    ds = constant_action_dataset(action_value=np.inf)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="non-finite gradient"):
        bc_pretrain(pretrain_group(ds, [0]), ds, steps=3, seeds=[0])


def test_bc_deterministic():
    ds = constant_action_dataset()
    a, b = pretrain_group(ds, [3]), pretrain_group(ds, [3])
    bc_pretrain(a, ds, steps=50, seeds=[3])
    bc_pretrain(b, ds, steps=50, seeds=[3])
    assert nets_equal(a.actor, b.actor)


def test_fqe_terminal_fixed_point():
    # every transition terminates with reward r: Q must converge to r
    spec = env_spec("point_goal_dense")
    ref = ReferenceScores("point_goal_dense", -70.0, -8.0, 1, 0)
    rng = np.random.default_rng(0)
    rows = [(rng.uniform(0, 10, 4), rng.uniform(-1, 1, 2), rng.uniform(0, 10, 4))
            for _ in range(100)]
    obs, action, next_obs = (np.array(column) for column in zip(*rows))
    ds = one_trajectory(spec, ref, obs, action, np.full(100, 2.0), next_obs,
                        np.ones(100, dtype=bool))
    group = pretrain_group(ds, [0])
    bc_pretrain(group, ds, steps=30, seeds=[0])
    fqe(group, ds, steps=10_000, seeds=[0])
    x = np.concatenate([obs, action], axis=1)
    q = nn.forward(group.critics[0, 0], x)[:, 0]
    assert np.all(np.abs(q - 2.0) < 0.05)


def test_fqe_raises_on_a_nonfinite_gradient():
    ds = constant_action_dataset()
    ds.reward[:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="non-finite gradient"):
        fqe(pretrain_group(ds, [0]), ds, steps=3, seeds=[0])


def test_fqe_gamma_zero_regresses_reward():
    ds = constant_action_dataset()
    group = pretrain_group(ds, [0], hyper=replace(SMALL, gamma=0.0))
    bc_pretrain(group, ds, steps=30, seeds=[0])
    fqe(group, ds, steps=4000, seeds=[0])
    traj = trajectory(ds, 0)
    x = np.concatenate([traj["obs"][:50], traj["action"][:50]], axis=1)
    q = nn.forward(group.critics[0, 0], x)[:, 0]
    assert np.all(np.abs(q - (-1.0)) < 0.1)


def test_fqe_heldout_td_error_decreases(dense_ref):
    spec = env_spec("point_goal_dense")
    ds = generate_dataset(spec, BehaviorSpec("noisy_expert", sigma=0.4), 20, seed=2,
                          reference=dense_ref)
    group = pretrain_group(ds, [0])
    bc_pretrain(group, ds, steps=200, seeds=[0])
    split = ds.offsets[2]  # the first two trajectories are held out
    held = {name: getattr(ds, name)[:split] for name in COLUMNS}
    train = OfflineDataset(
        **{name: getattr(ds, name)[split:] for name in COLUMNS},
        offsets=ds.offsets[2:] - split, env=spec, behavior=ds.behavior,
        reference=ds.reference,
    )

    def td_error(group):
        obs, acts, nxt = held["obs"], held["action"], held["next_obs"]
        rew = held["reward"]
        term = held["terminated"].astype(float)
        a_next = nn.forward(plain(group.actor), nxt)
        critic = group.critics[0, 0]
        qn = nn.forward(critic, np.concatenate([nxt, a_next], axis=1))[:, 0]
        y = rew + SMALL.gamma * (1 - term) * qn
        q = nn.forward(critic, np.concatenate([obs, acts], axis=1))[:, 0]
        return float(np.mean((q - y) ** 2))

    longer = select_runs(group, [0])  # a copy, with the same cloned actor
    fqe(group, train, steps=1, seeds=[0])
    fqe(longer, train, steps=2000, seeds=[0])
    assert td_error(longer) < td_error(group)


def test_offline_rl_expert_pendulum(dense_ref):
    # end-to-end oracle on a small expert dense dataset: the pretrained agent
    # must reach at least 80% of the dataset's score
    spec = env_spec("point_goal_dense")
    ds = generate_dataset(spec, BehaviorSpec("expert"), 30, seed=0, reference=dense_ref)
    agent = pretrain_group(ds, [0])
    offline_rl_pretrain(agent, ds, steps=2500, beta=0.4, seeds=[0])
    from o2olab.agents import policy_fn
    from o2olab.data import dataset_return
    from o2olab.envs import evaluate_policy

    [result] = evaluate_policy(policy_fn(agent.actor), spec, dense_ref, episodes=20, seeds=[77])
    _, jd = dataset_return(ds)
    assert result.mean >= 0.8 * jd


def test_offline_rl_requires_positive_beta():
    ds = constant_action_dataset()
    with pytest.raises(ValueError):
        offline_rl_pretrain(pretrain_group(ds, [0]), ds, steps=10, beta=0.0, seeds=[0])


def test_offline_rl_deterministic():
    ds = constant_action_dataset()
    a, b = pretrain_group(ds, [5]), pretrain_group(ds, [5])
    offline_rl_pretrain(a, ds, steps=20, beta=0.4, seeds=[5])
    offline_rl_pretrain(b, ds, steps=20, beta=0.4, seeds=[5])
    assert nets_equal(a.actor, b.actor)
    assert nets_equal(a.target_critics, b.target_critics)


def test_pretraining_never_touches_environment(monkeypatch):
    steps = []
    real_step = envs._Env.step

    def counting_step(self, action):
        steps.append(action)
        return real_step(self, action)

    monkeypatch.setattr(envs._Env, "step", counting_step)
    ds = constant_action_dataset()
    offline_rl_pretrain(pretrain_group(ds, [0]), ds, steps=30, beta=0.4, seeds=[0])
    group = pretrain_group(ds, [0])
    bc_pretrain(group, ds, steps=30, seeds=[0])
    fqe(group, ds, steps=30, seeds=[0])
    assert steps == []


# --- bc+fqe wrapper and checkpoints ---


def test_agent_from_bc_fqe_duplicates_critic():
    ds = constant_action_dataset()
    group = pretrain_group(ds, [0, 1])
    bc_pretrain(group, ds, steps=30, seeds=[0, 1])
    cloned = group.actor.copy()
    fqe(group, ds, steps=30, seeds=[0, 1])
    critic = group.critics[:, 0].copy()
    agent = agent_from_bc_fqe(group)
    assert agent is group
    assert nets_equal(agent.actor, cloned)
    assert nets_equal(agent.critics[:, 0], critic)
    assert nets_equal(agent.critics[:, 1], critic)
    assert nets_equal(agent.target_actor, agent.actor)
    assert nets_equal(agent.critics, agent.target_critics)
    for opt in (agent.actor_opt, agent.critic_opt):
        assert not opt.m.any() and not opt.v.any()
    assert (agent.update_count, agent.actor_opt.step_count, agent.critic_opt.step_count) == (0, 0, 0)


def test_checkpoint_round_trip(tmp_path):
    ds = constant_action_dataset()
    agent = pretrain_group(ds, [8])
    offline_rl_pretrain(agent, ds, steps=25, beta=0.4, seeds=[8])
    save_agent(agent, tmp_path / "ckpt", extra={"seed": 8})
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == [
        "manifest.json", "params.npy"
    ]
    back = load_agent(tmp_path / "ckpt")
    assert back.runs == 1
    for name in NETS:
        assert nets_equal(getattr(agent, name), getattr(back, name))
    assert back.update_count == agent.update_count
    assert back.hyper == agent.hyper
    for name in ("actor_opt", "critic_opt"):
        a, b = getattr(agent, name), getattr(back, name)
        assert (a.learning_rate, a.step_count) == (b.learning_rate, b.step_count)
        assert np.array_equal(a.m, b.m) and np.array_equal(a.v, b.v)
    obs = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(policy_fn(agent.actor)(obs), policy_fn(back.actor)(obs))
    # loading and saving again reproduces both files byte for byte
    save_agent(back, tmp_path / "again", extra={"seed": 8})
    for name in ("manifest.json", "params.npy"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "ckpt" / name).read_bytes()


def test_loading_draws_no_nets_and_restores_every_array(tmp_path, monkeypatch):
    agent = make_td3_agent(3, 1, SMALL, seed=3)
    # every array apart from the others
    agent.state += np.random.default_rng(agent.state.size).normal(size=agent.state.shape)
    agent.update_count, agent.actor_opt.step_count, agent.critic_opt.step_count = 7, 3, 7
    save_agent(agent, tmp_path)

    def draw(*args, **kwargs):
        raise AssertionError("load_agent drew a net that params.npy overwrites")

    monkeypatch.setattr(nn, "init_net", draw)
    back = load_agent(tmp_path)
    assert same_state(back, agent) and back.hyper == agent.hyper
    assert (back.actor_opt.step_count, back.critic_opt.step_count) == (3, 7)


def test_load_agent_types_the_hyperparameters(tmp_path):
    # a checkpoint's hyper is parsed like the config's agent section, and a
    # mistyped one is a damaged checkpoint
    save_agent(make_td3_agent(4, 2, SMALL, seed=0), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert load_agent(tmp_path).hyper == SMALL
    manifest["hyper"]["gamma"] = "0.99"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(MissingInputError, match="hyper.gamma must be a number"):
        load_agent(tmp_path)


@pytest.mark.parametrize("key", ["obs_dim", "action_dim", "update_count",
                                 "actor_adam_steps", "critic_adam_steps"])
@pytest.mark.parametrize("value", [3.7, "3", None, "missing"])
def test_load_agent_refuses_a_mistyped_count(tmp_path, key, value):
    save_agent(make_td3_agent(4, 2, SMALL, seed=0), tmp_path, extra={"seed": 8})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    if value == "missing":
        del manifest[key]
    else:
        manifest[key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(MissingInputError, match=f"'?{key}.*pretrain --force"):
        load_agent(tmp_path)


def test_load_agent_takes_an_integral_float_count(tmp_path):
    agent = make_td3_agent(4, 2, SMALL, seed=0)
    agent.update_count = 5
    save_agent(agent, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["update_count"] = 5.0
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    back = load_agent(tmp_path)
    assert back.update_count == 5 and type(back.update_count) is int


def test_load_agent_rejects_old_checkpoint(tmp_path):
    # checkpoints written before params.npy existed held one JSON file per net
    (tmp_path / "manifest.json").write_text('{"update_count": 0}')
    (tmp_path / "actor.json").write_text("{}")
    with pytest.raises(MissingInputError, match="pretrain --force"):
        load_agent(tmp_path)
