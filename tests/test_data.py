import json
import re

import numpy as np
import pytest

from o2olab import data
from o2olab.data import (
    MixedSampler,
    OfflineDataset,
    ReplayBuffer,
    dataset_return,
    generate_dataset,
    generate_mixed_dataset,
    load_dataset,
    read_manifest,
    save_dataset,
)
from o2olab.envs import BehaviorSpec, ReferenceScores, compute_reference_scores, env_spec
from o2olab.errors import DatasetFormatError, EmptyBufferError, ShapeError
from o2olab.seeding import rng_for, stable_seed
from test_envs import assert_columns_equal_steps, behavior_policy, reference_episode

COLUMNS = ("obs", "action", "reward", "next_obs", "terminated", "truncated")
BUFFER_FIELDS = ("obs", "action", "reward", "next_obs", "terminated")


def trajectory(ds, i):
    """Trajectory i's rows, one column slice per transition field."""
    start, stop = ds.offsets[i], ds.offsets[i + 1]
    return {name: getattr(ds, name)[start:stop] for name in COLUMNS}


def assert_same_dataset(a, b):
    for name in (*COLUMNS, "offsets"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def one_trajectory(spec, reference, obs, action, reward, next_obs, terminated):
    """A dataset holding the given rows as one trajectory."""
    n = len(reward)
    return OfflineDataset(
        obs=np.asarray(obs, dtype=float), action=np.asarray(action, dtype=float),
        reward=np.asarray(reward, dtype=float), next_obs=np.asarray(next_obs, dtype=float),
        terminated=np.asarray(terminated, dtype=bool), truncated=np.zeros(n, dtype=bool),
        offsets=np.array([0, n]), env=spec, behavior=BehaviorSpec("expert"),
        reference=reference,
    )


def stored_columns(buf):
    """A lone buffer's columns, in push order."""
    return {f: getattr(buf, f"_{f}")[: buf.size] for f in BUFFER_FIELDS}


def assert_same_columns(got, want):
    for f in BUFFER_FIELDS:
        assert np.array_equal(got[f], want[f]), f


def one_run(columns):
    """``columns`` with a leading run axis of one, as a lone buffer's
    ``push`` takes them."""
    return {f: np.asarray(column)[None] for f, column in columns.items()}


def rows(ks, obs_dim=2, action_dim=1):
    """Transition k of a buffer test, for each k in ``ks``, as push's columns:
    every field holds k, next_obs k + 0.5, never terminated."""
    k = np.asarray(ks, dtype=float)
    return {
        "obs": np.repeat(k[:, None], obs_dim, axis=1),
        "action": np.repeat(k[:, None], action_dim, axis=1),
        "reward": k,
        "next_obs": np.repeat(k[:, None] + 0.5, obs_dim, axis=1),
        "terminated": np.zeros(len(k), dtype=bool),
    }


@pytest.fixture(scope="module")
def sparse_reference():
    return compute_reference_scores(env_spec("point_goal_sparse"), seed=0, episodes=40)


# --- generation ---


def test_generate_deterministic(sparse_reference):
    spec = env_spec("point_goal_sparse")
    kwargs = dict(behavior=BehaviorSpec("expert"), n_traj=10, seed=5,
                  reference=sparse_reference)
    a = generate_dataset(spec, **kwargs)
    b = generate_dataset(spec, **kwargs)
    assert a.n_traj == b.n_traj == 10
    assert_same_dataset(a, b)


def test_generate_expert_sparse_all_terminate(sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_dataset(spec, BehaviorSpec("expert"), 10, seed=3,
                          reference=sparse_reference)
    for i in range(ds.n_traj):
        traj = trajectory(ds, i)
        assert traj["terminated"][-1]
        assert traj["reward"][-1] == 1.0
        assert np.all(traj["reward"][:-1] == 0.0)


def test_epsilon_mixture_between_extremes():
    # oracle comparison across three generated datasets; the dense variant
    # makes path efficiency visible in the returns
    spec = env_spec("point_goal_dense")
    reference = compute_reference_scores(spec, seed=0, episodes=40)
    means = {}
    for name, behavior in (
        ("random", BehaviorSpec("uniform_random")),
        ("half", BehaviorSpec("epsilon_mixture", epsilon=0.5)),
        ("expert", BehaviorSpec("expert")),
    ):
        ds = generate_dataset(spec, behavior, 40, seed=11, reference=reference)
        means[name] = dataset_return(ds)[1]
    assert means["random"] < means["half"] < means["expert"]


def test_trajectory_mixture_composition(sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_mixed_dataset(
        spec,
        [(BehaviorSpec("expert"), 5), (BehaviorSpec("uniform_random"), 5)],
        seed=2,
        reference=sparse_reference,
    )
    assert ds.n_traj == 10
    per_traj, mean = dataset_return(ds)
    assert per_traj[:5].mean() > per_traj[5:].mean()


# every behavior kind, epsilon_mixture at its ends and between them
EVERY_KIND = [
    (BehaviorSpec("uniform_random"), 3),
    (BehaviorSpec("expert"), 4),
    (BehaviorSpec("noisy_expert", sigma=0.4), 3),
    (BehaviorSpec("epsilon_mixture", epsilon=0.0), 2),
    (BehaviorSpec("epsilon_mixture", epsilon=0.3), 4),
    (BehaviorSpec("epsilon_mixture", epsilon=1.0), 2),
]


@pytest.mark.parametrize("kind", ["pendulum", "point_goal_dense"])
def test_a_dataset_of_every_kind_equals_its_trajectories_drawn_step_by_step(kind):
    # the row-wise behaviors against the per-step transcription, each
    # trajectory rolled alone and drawing from its generator at each step.
    # At horizon 40 some point-goal trajectories reach the goal, at
    # different steps, while others run out of time.
    spec, seed = env_spec(kind, horizon=40), 17
    reference = ReferenceScores(kind, -1000.0, -100.0, 1, 0)
    ds = generate_mixed_dataset(spec, EVERY_KIND, seed, reference=reference)
    columns = {name: getattr(ds, name) for name in (*COLUMNS, "offsets")}
    k, endings = 0, set()
    for j, (behavior, n_traj) in enumerate(EVERY_KIND):
        run_seed = stable_seed("segment", seed, j)
        for i in range(n_traj):
            policy = behavior_policy(behavior, spec, rng_for("traj-behavior", run_seed, i))
            want = reference_episode(spec, policy, stable_seed("traj-env", run_seed, i))
            assert_columns_equal_steps(columns, k, want)
            endings.add((len(want), want[-1][4]))
            k += 1
    assert k == ds.n_traj
    if kind == "pendulum":
        assert endings == {(spec.horizon, False)}
    else:
        assert len({length for length, terminated in endings if terminated}) > 1
        assert (spec.horizon, False) in endings


def test_a_trajectory_is_the_same_beside_other_segments_alone_or_reordered():
    spec = env_spec("point_goal_dense", horizon=40)
    reference = ReferenceScores(spec.kind, -1000.0, -100.0, 1, 0)
    runs = [(b, n, stable_seed("independent", j)) for j, (b, n) in enumerate(EVERY_KIND)]

    def rolled(some_runs):
        """Each trajectory's rows, by (run seed, index in its run)."""
        ds = data._generate(spec, some_runs, some_runs[0][0], 0, reference)
        keys = [(run_seed, i) for _, n, run_seed in some_runs for i in range(n)]
        return {key: trajectory(ds, k) for k, key in enumerate(keys)}

    together = rolled(runs)
    reordered = rolled(runs[::-1])
    alone = {key: rows for run in runs for key, rows in rolled([run]).items()}
    assert together.keys() == reordered.keys() == alone.keys()
    assert len({len(rows["reward"]) for rows in together.values()}) > 1
    for key, rows in together.items():
        for other in (reordered, alone):
            for name in COLUMNS:
                assert np.array_equal(rows[name], other[key][name]), (key, name)


# --- dataset_return ---


def test_dataset_return_formula():
    spec = env_spec("point_goal_dense")
    ref = ReferenceScores("point_goal_dense", 0.0, 10.0, 1, 0)
    ds = one_trajectory(spec, ref, np.zeros((3, 4)), np.zeros((3, 2)), [1.0, 2.0, 3.0],
                        np.zeros((3, 4)), [False] * 3)
    per_traj, mean = dataset_return(ds)
    assert per_traj.tolist() == [0.6]
    assert mean == 0.6


def test_dataset_return_mean_in_hull(sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_dataset(spec, BehaviorSpec("epsilon_mixture", epsilon=0.3), 20,
                          seed=1, reference=sparse_reference)
    per_traj, mean = dataset_return(ds)
    assert per_traj.min() <= mean <= per_traj.max()


def test_dataset_return_empty_rejected(sparse_reference):
    ds = one_trajectory(env_spec("point_goal_sparse"), sparse_reference, np.zeros((0, 4)),
                        np.zeros((0, 2)), [], np.zeros((0, 4)), [])
    ds.offsets = np.array([0])
    with pytest.raises(ValueError):
        dataset_return(ds)


def test_expert_dataset_mean_near_one(sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_dataset(spec, BehaviorSpec("expert"), 20, seed=9,
                          reference=sparse_reference)
    _, mean = dataset_return(ds)
    assert mean == pytest.approx(1.0, abs=0.1)


# --- replay buffer ---


def test_buffer_size_tracks_pushes():
    buf = ReplayBuffer(10, 2, 1)
    for k in range(1, 8):
        buf.push(**one_run(rows([k])))
        assert len(buf) == k


@pytest.mark.parametrize("runs", [1, 2])
def test_a_push_past_capacity_raises_and_changes_nothing(runs):
    buf = ReplayBuffer(5, 2, 1, runs)

    def push(ks):  # the same rows into every block
        buf.push(**{f: np.stack([column] * runs) for f, column in rows(ks).items()})

    push([1, 2, 3])
    stored = [column.copy() for column in buf._columns()]
    for n in (3, 7):
        with pytest.raises(ValueError, match="no room for"):
            push(range(n))
        assert len(buf) == 3
        for got, want in zip(buf._columns(), stored):
            assert np.array_equal(got, want)
    # what fits still goes in after the rows so far
    push([4, 5])
    for block in range(runs):
        got = {f: getattr(buf, f"_{f}")[block * 5 : block * 5 + 5] for f in BUFFER_FIELDS}
        assert_same_columns(got, rows([1, 2, 3, 4, 5]))


def one_row_at_a_time(buf, columns):
    for k in range(len(columns["reward"])):
        buf.push(**{f: columns[f][None, k : k + 1] for f in BUFFER_FIELDS})


def assert_same_buffer(got, want):
    assert len(got) == len(want)
    assert_same_columns(stored_columns(got), stored_columns(want))
    a = got.sample(50, [np.random.default_rng(1)])
    b = want.sample(50, [np.random.default_rng(1)])
    for field in BUFFER_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_from_dataset_matches_pushing_rows_in_order(sparse_reference):
    ds = generate_dataset(env_spec("point_goal_sparse"), BehaviorSpec("noisy_expert", sigma=0.3),
                          3, seed=4, reference=sparse_reference)
    pushed = ReplayBuffer(ds.n_transitions, 4, 2)
    one_row_at_a_time(pushed, {f: getattr(ds, f) for f in BUFFER_FIELDS})
    assert_same_buffer(ReplayBuffer.from_dataset(ds), pushed)


@pytest.mark.parametrize("mixing", [[False, True], [True, True]], ids=["one-mixes", "both-mix"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_a_group_buffer_draws_from_each_block_as_a_lone_buffer(alpha, mixing):
    # two blocks draw, block by block, what a lone buffer that pushed the
    # same rows one at a time draws, alone and mixed with an offline buffer,
    # as the blocks fill up; at alpha 0 a mixing run draws no offline rows
    # and still permutes its batch, and at alpha 1 it draws no online rows
    capacity = 100
    group = ReplayBuffer(capacity, 4, 2, runs=2)
    off = ReplayBuffer(40, 4, 2)
    draws = np.random.default_rng(5)
    off.push(draws.normal(size=(1, 40, 4)), draws.normal(size=(1, 40, 2)),
             draws.normal(size=(1, 40)), draws.normal(size=(1, 40, 4)), draws.random((1, 40)) < 0.5)
    alone = [ReplayBuffer(capacity, 4, 2) for _ in range(2)]
    rng = np.random.default_rng(0)
    for chunk in (20, 25, 55):
        online = [rng.normal(size=(2, chunk, 4)), rng.uniform(-1, 1, (2, chunk, 2)),
                  rng.normal(size=(2, chunk)), rng.normal(size=(2, chunk, 4)),
                  rng.random((2, chunk)) < 0.1]
        group.push(*online)
        for r, buf in enumerate(alone):
            one_row_at_a_time(buf, dict(zip(BUFFER_FIELDS, (column[r] for column in online))))
        got = group.sample(64, [np.random.default_rng(s) for s in (1, 2)])
        mixed = MixedSampler(off, group, alpha, mixing)
        got_mixed = mixed.sample(64, [np.random.default_rng(s) for s in (3, 4)])
        for r, buf in enumerate(alone):
            want = buf.sample(64, [np.random.default_rng(1 + r)])
            want_mixed = (MixedSampler(off, buf, alpha, [True]) if mixing[r] else buf).sample(
                64, [np.random.default_rng(3 + r)]
            )
            for f in BUFFER_FIELDS:
                assert np.array_equal(getattr(got, f)[r], getattr(want, f)[0]), (chunk, r, f)
                assert np.array_equal(getattr(got_mixed, f)[r], getattr(want_mixed, f)[0])
    assert len(group) == capacity


@pytest.mark.parametrize("chunks", [
    [12],  # one push that fills the buffer
    [3, 4],  # a push onto a non-empty buffer
    [3, 5, 4],  # pushes that fill the buffer in three parts
])
def test_bulk_push_matches_pushing_rows_in_order(chunks):
    bulk, pushed = ReplayBuffer(12, 2, 1), ReplayBuffer(12, 2, 1)
    start = 0
    for n in chunks:
        columns = rows(range(start, start + n))
        bulk.push(**one_run(columns))
        one_row_at_a_time(pushed, columns)
        start += n
        assert_same_buffer(bulk, pushed)


@pytest.mark.parametrize("field,width", [("obs", 3), ("action", 2), ("next_obs", 1)])
def test_push_rejects_mismatched_widths(field, width):
    buf = ReplayBuffer(5, 2, 1)
    buf.push(**one_run(rows([1])))
    columns = rows([2, 3])
    columns[field] = np.zeros((2, width))
    with pytest.raises(ShapeError, match="do not match buffer"):
        buf.push(**one_run(columns))
    assert len(buf) == 1
    assert_same_columns(stored_columns(buf), rows([1]))


def test_buffer_sample_single_item():
    buf = ReplayBuffer(4, 2, 1)
    buf.push(**one_run(rows([5])))
    batch = buf.sample(6, [np.random.default_rng(0)])
    assert batch.obs.shape == (1, 6, 2) and np.all(batch.obs == 5.0)


def test_buffer_sample_reproducible():
    buf = ReplayBuffer(16, 2, 1)
    buf.push(**one_run(rows(range(16))))
    b1 = buf.sample(8, [np.random.default_rng(3)])
    b2 = buf.sample(8, [np.random.default_rng(3)])
    assert np.array_equal(b1.obs, b2.obs)


def test_buffer_sample_uniform_chi_square():
    # frequencies of each slot over 100k draws against a chi-square oracle
    n_items, draws = 20, 100_000
    buf = ReplayBuffer(n_items, 2, 1)
    buf.push(**one_run(rows(range(n_items))))
    rng = np.random.default_rng(12345)
    counts = np.zeros(n_items)
    for _ in range(100):
        batch = buf.sample(draws // 100, [rng])
        idx = batch.reward[0].astype(int)
        counts += np.bincount(idx, minlength=n_items)
    expected = draws / n_items
    se = np.sqrt(draws * (1 / n_items) * (1 - 1 / n_items))
    assert np.all(np.abs(counts - expected) <= 3 * se)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 43.8  # 99.9% quantile of chi-square with 19 dof


def test_buffer_empty_sample_raises():
    buf = ReplayBuffer(4, 2, 1)
    with pytest.raises(EmptyBufferError):
        buf.sample(1, [np.random.default_rng(0)])


# --- mixed sampler ---


def _marked_buffers(n_off=50, n_on=50):
    off = ReplayBuffer(n_off, 2, 1)
    on = ReplayBuffer(n_on, 2, 1)
    off.push(**one_run({**rows(range(n_off)), "reward": np.ones(n_off)}))  # offline marker
    on.push(**one_run({**rows(range(n_on)), "reward": np.zeros(n_on)}))
    return off, on


def test_mixed_exact_split_every_batch():
    off, on = _marked_buffers()
    sampler = MixedSampler(off, on, 0.5, [True])
    rng = np.random.default_rng(0)
    for _ in range(200):
        batch = sampler.sample(256, [rng])
        assert int(batch.reward.sum()) == 128


@pytest.mark.parametrize("alpha,expect", [(0.0, 0), (1.0, 64), (0.25, 16)])
def test_mixed_alpha_boundaries(alpha, expect):
    off, on = _marked_buffers()
    sampler = MixedSampler(off, on, alpha, [True])
    batch = sampler.sample(64, [np.random.default_rng(1)])
    assert int(batch.reward.sum()) == expect


def test_mixed_requires_both_nonempty():
    off, _ = _marked_buffers()
    empty = ReplayBuffer(4, 2, 1)
    sampler = MixedSampler(off, empty, 0.5, [True])
    with pytest.raises(EmptyBufferError):
        sampler.sample(8, [np.random.default_rng(0)])


def test_mixed_order_shuffled():
    off, on = _marked_buffers()
    sampler = MixedSampler(off, on, 0.5, [True])
    batch = sampler.sample(64, [np.random.default_rng(2)])
    # offline markers must not sit in one contiguous block
    first_half = batch.reward[0, :32].sum()
    assert 0 < first_half < 32


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_mixed_sample_equals_concatenate_then_permute(alpha):
    # the parts' draws, then the permutation, as a concatenation of the
    # parts' own samples permuted; the offline buffer is full, the online
    # one part full. A lone run mixes, and in a group of three runs the
    # first and last mix and the middle one draws from its block alone:
    # each run's batch is checked against lone buffers of its block's rows
    rng = np.random.default_rng(3)

    def rows(runs, n):
        return (rng.normal(size=(runs, n, 2)), rng.normal(size=(runs, n, 1)),
                rng.normal(size=(runs, n)), rng.normal(size=(runs, n, 2)),
                rng.random((runs, n)) < 0.5)

    off = ReplayBuffer(70, 2, 1)
    off.push(*rows(1, 70))
    for mixing in ([True], [True, False, True]):
        on, online = ReplayBuffer(60, 2, 1, runs=len(mixing)), rows(len(mixing), 45)
        on.push(*online)
        blocks = [ReplayBuffer(60, 2, 1) for _ in mixing]
        for r, block in enumerate(blocks):
            block.push(*(column[r : r + 1] for column in online))
        sampler = MixedSampler(off, on, alpha, mixing)
        for seed in range(5):
            got = sampler.sample(64, [np.random.default_rng(seed + r) for r in range(len(mixing))])
            for r, (block, mixes) in enumerate(zip(blocks, mixing)):
                draws = np.random.default_rng(seed + r)
                if not mixes:
                    want = block.sample(64, [draws])
                    for name in BUFFER_FIELDS:
                        assert np.array_equal(getattr(got, name)[r], getattr(want, name)[0])
                    continue
                n_off = sampler.offline_count(64)
                parts = [buf.sample(n, [draws]) for buf, n in ((off, n_off), (block, 64 - n_off))
                         if n]
                perm = draws.permutation(64)
                for name in BUFFER_FIELDS:
                    expected = np.concatenate([getattr(p, name)[0] for p in parts])[perm]
                    assert np.array_equal(getattr(got, name)[r], expected), (mixing, r, name)
                    assert getattr(got, name).dtype == expected.dtype


def test_mixed_alpha_validated():
    off, on = _marked_buffers()
    with pytest.raises(ValueError):
        MixedSampler(off, on, 1.5, [True])


# --- file I/O ---


def test_save_load_round_trip(tmp_path, sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_dataset(spec, BehaviorSpec("noisy_expert", sigma=0.3), 6, seed=4,
                          reference=sparse_reference)
    path = tmp_path / "ds"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.env == ds.env
    assert back.behavior == ds.behavior
    assert back.reference == ds.reference
    assert back.n_traj == ds.n_traj
    assert_same_dataset(back, ds)


def test_save_load_mixture_round_trip(tmp_path, sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_mixed_dataset(
        spec, [(BehaviorSpec("expert"), 2), (BehaviorSpec("uniform_random"), 3)],
        seed=8, reference=sparse_reference,
    )
    path = tmp_path / "mix"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.behavior == ds.behavior
    assert_same_dataset(back, ds)


def test_save_is_byte_stable(tmp_path, sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_dataset(spec, BehaviorSpec("expert"), 3, seed=4,
                          reference=sparse_reference)
    p1, p2 = tmp_path / "a", tmp_path / "b"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    files = sorted(p.name for p in p1.iterdir())
    assert files == sorted(p.name for p in p2.iterdir())
    assert files == sorted([f"{name}.npy" for name in (
        "obs", "action", "reward", "next_obs", "terminated", "truncated", "offsets"
    )] + ["manifest.json"])
    for name in files:
        assert (p1 / name).read_bytes() == (p2 / name).read_bytes(), name


def test_manifest_holds_dataset_return_sample(tmp_path, sparse_reference):
    ds = generate_dataset(env_spec("point_goal_sparse"), BehaviorSpec("uniform_random"), 5,
                          seed=4, reference=sparse_reference)
    save_dataset(ds, tmp_path / "ds", extra={"key": "abc"})
    manifest = read_manifest(tmp_path / "ds")
    assert manifest["returns"] == dataset_return(ds)[0].tolist()  # bit for bit
    assert (manifest["key"], manifest["n_traj"], manifest["n_transitions"]) == (
        "abc", 5, ds.n_transitions
    )
    assert manifest["reference"] == ds.reference


def _edit_npy(path, edit):
    column = np.load(path)
    np.save(path, edit(column))


def _set_item(column, index, value):
    column = column.copy()
    column[index] = value
    return column


def _edit_offsets(directory, edit):
    _edit_npy(directory / "offsets.npy", edit)


def _edit_manifest(directory, **changes):
    path = directory / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}, sort_keys=True))


def _cut_tail(path):
    path.write_bytes(path.read_bytes()[:-40])


# ways to damage a saved dataset directory, each of which a load must refuse,
# with the words of its DatasetFormatError
DAMAGES = {
    "missing_column": (lambda d: (d / "reward.npy").unlink(), "reward.npy is missing"),
    "truncated_column": (lambda d: _cut_tail(d / "obs.npy"), "obs.npy is unreadable"),
    "misshaped_column": (
        lambda d: _edit_npy(d / "action.npy", lambda a: a[:, :1]), "action.npy holds float64 ("
    ),
    "mistyped_column": (
        lambda d: _edit_npy(d / "reward.npy", lambda a: a.astype(np.float32)),
        "reward.npy holds float32",
    ),
    "offsets_not_from_0": (
        lambda d: _edit_offsets(d, lambda o: _set_item(o, 0, 1)), "offsets run from 1 to"
    ),
    "offsets_decrease": (
        lambda d: _edit_offsets(d, lambda o: _set_item(o, [1, 2], o[[2, 1]])),
        "offsets decrease at trajectory 1",
    ),
    "offsets_past_end": (
        lambda d: _edit_offsets(d, lambda o: _set_item(o, -1, o[-1] - 1)), "expected 0 to"
    ),
    "empty_trajectory": (
        lambda d: _edit_offsets(d, lambda o: _set_item(o, 2, o[1])),
        "trajectory 1 has no transitions",
    ),
    "dims_disagree_with_env": (
        lambda d: _edit_manifest(d, obs_dim=7),
        "dims (7, 2) do not match environment point_goal_sparse (4, 2)",
    ),
}


@pytest.fixture()
def saved(tmp_path, sparse_reference):
    ds = generate_dataset(env_spec("point_goal_sparse"), BehaviorSpec("uniform_random"), 4,
                          seed=4, reference=sparse_reference)
    save_dataset(ds, tmp_path / "ds")
    return tmp_path / "ds"


@pytest.mark.parametrize("damage", sorted(DAMAGES))
def test_load_rejects_damage(saved, damage):
    damage_files, message = DAMAGES[damage]
    damage_files(saved)
    for read in (load_dataset, read_manifest):
        with pytest.raises(DatasetFormatError, match=re.escape(message)):
            read(saved)


def test_truncated_file_rejected(saved):
    reward = saved / "reward.npy"
    reward.write_bytes(reward.read_bytes()[: reward.stat().st_size // 2])
    with pytest.raises(DatasetFormatError):
        load_dataset(saved)


def test_mismatched_obs_dim_rejected(saved):
    _edit_manifest(saved, obs_dim=7)
    with pytest.raises(DatasetFormatError):
        load_dataset(saved)


def test_load_rejects_missing_manifest_key(saved):
    manifest = json.loads((saved / "manifest.json").read_text())
    del manifest["returns"]
    (saved / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetFormatError, match="'returns'"):
        read_manifest(saved)


@pytest.mark.parametrize("key", ["n_traj", "n_transitions", "obs_dim", "action_dim"])
@pytest.mark.parametrize("value", [3.7, "4", True])
def test_load_rejects_a_mistyped_manifest_count(saved, key, value):
    # a fractional count used to be truncated by int()
    _edit_manifest(saved, **{key: value})
    for read in (load_dataset, read_manifest):
        with pytest.raises(DatasetFormatError, match=f"manifest.{key} must be an integer"):
            read(saved)


@pytest.mark.parametrize("returns", ["abcd", [0.1, 0.2, "x", 0.4], [0.1, 0.2, None, 0.4]])
def test_load_rejects_returns_that_are_not_numbers(saved, returns):
    # four of them, one per trajectory, used to pass until classify's float()
    _edit_manifest(saved, returns=returns)
    with pytest.raises(DatasetFormatError, match="manifest.returns must be"):
        read_manifest(saved)


def test_manifest_counts_are_ints(saved):
    _edit_manifest(saved, n_traj=4.0)
    manifest = read_manifest(saved)
    assert manifest["n_traj"] == 4 and type(manifest["n_traj"]) is int


@pytest.fixture(params=["one_chunk", "small_chunks"])
def chunked(request, tmp_path, sparse_reference):
    """A saved dataset whose rows form one trajectory, or many short ones,
    so the offsets hold two entries or many."""
    spec = env_spec("point_goal_sparse")
    if request.param == "one_chunk":
        ds = generate_dataset(spec, BehaviorSpec("uniform_random"), 1, seed=4,
                              reference=sparse_reference)
    else:
        ds = generate_dataset(spec, BehaviorSpec("expert"), 8, seed=4,
                              reference=sparse_reference)
        assert ds.n_traj == 8
    save_dataset(ds, tmp_path / "ds")
    return ds, tmp_path / "ds"


def _load_error(directory) -> DatasetFormatError:
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(directory)
    return err.value


def test_load_rejects_missing_header_key(chunked):
    _, directory = chunked
    manifest = json.loads((directory / "manifest.json").read_text())
    del manifest["reference"]
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
    assert ("manifest.json is unreadable: ConfigError(\"missing config key 'reference' in "
            "manifest\")") in str(_load_error(directory))


def test_load_rejects_missing_transition_field(chunked):
    _, directory = chunked
    (directory / "terminated.npy").unlink()
    assert "terminated.npy is missing" in str(_load_error(directory))


def test_load_rejects_action_width_mismatch(chunked):
    ds, directory = chunked
    n = ds.n_transitions
    np.save(directory / "action.npy", np.zeros((n, 3)))
    assert (f"action.npy holds float64 ({n}, 3), expected float64 ({n}, 2)"
            in str(_load_error(directory)))


def test_load_rejects_trajectory_index_out_of_range(chunked):
    ds, directory = chunked
    n = ds.n_transitions
    _edit_offsets(directory, lambda o: _set_item(o, -1, n + 1))
    assert (f"offsets run from 0 to {n + 1}, expected 0 to {n} transitions"
            in str(_load_error(directory)))


def test_load_groups_rows_by_trajectory(chunked):
    ds, directory = chunked
    back = load_dataset(directory)
    assert back.n_traj == ds.n_traj
    lengths = [len(trajectory(ds, i)["reward"]) for i in range(ds.n_traj)]
    assert back.offsets.tolist() == np.cumsum([0, *lengths]).tolist()
    for i in range(ds.n_traj):
        got, want = trajectory(back, i), trajectory(ds, i)
        for name in COLUMNS:
            assert np.array_equal(got[name], want[name]), name


def test_interrupted_save_leaves_no_manifest(saved, monkeypatch):
    # a second save that dies after its first column leaves no manifest
    # behind, so the directory reads as damaged, not as the old dataset
    ds = load_dataset(saved)
    real_write, written = data.write_npy_atomic, []

    def dying_write(path, array):
        if written:
            raise KeyboardInterrupt
        written.append(path)
        real_write(path, array)

    monkeypatch.setattr(data, "write_npy_atomic", dying_write)
    with pytest.raises(KeyboardInterrupt):
        save_dataset(ds, saved)
    assert not (saved / "manifest.json").exists()
    with pytest.raises(DatasetFormatError, match="manifest.json is missing"):
        load_dataset(saved)
