import json

import numpy as np
import pytest

from o2olab import data
from o2olab.data import (
    MixedSampler,
    OfflineDataset,
    ReplayBuffer,
    Transition,
    dataset_return,
    generate_dataset,
    generate_mixed_dataset,
    load_dataset,
    save_dataset,
)
from o2olab.envs import BehaviorSpec, ReferenceScores, compute_reference_scores, env_spec
from o2olab.errors import DatasetFormatError, EmptyBufferError


def trajectories(ds):
    """The dataset's rows as one list of ``Transition`` per trajectory."""
    rows = [
        Transition(*fields)
        for fields in zip(ds.obs, ds.action, ds.reward.tolist(), ds.next_obs,
                          ds.terminated.tolist(), ds.truncated.tolist())
    ]
    bounds = ds.offsets.tolist()
    return [rows[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]


BUFFER_FIELDS = ("obs", "action", "reward", "next_obs", "terminated")


def fifo_columns(buf):
    """The buffer's columns, oldest row first."""
    order = (buf._next - buf.size + np.arange(buf.size)) % buf.capacity
    return {f: getattr(buf, f"_{f}")[order] for f in BUFFER_FIELDS}


def row_columns(transitions):
    return {f: np.array([getattr(tr, f) for tr in transitions], dtype=float)
            for f in BUFFER_FIELDS}


def assert_same_columns(got, want):
    for f in BUFFER_FIELDS:
        assert np.array_equal(got[f], want[f]), f


def _tr(i, obs_dim=2, action_dim=1):
    return Transition(
        obs=np.full(obs_dim, float(i)),
        action=np.full(action_dim, float(i)),
        reward=float(i),
        next_obs=np.full(obs_dim, float(i) + 0.5),
        terminated=False,
        truncated=False,
    )


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
    for ta, tb in zip(trajectories(a), trajectories(b)):
        assert ta == tb


def test_generate_expert_sparse_all_terminate(sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_dataset(spec, BehaviorSpec("expert"), 10, seed=3,
                          reference=sparse_reference)
    for traj in trajectories(ds):
        assert traj[-1].terminated
        assert traj[-1].reward == 1.0
        assert all(t.reward == 0.0 for t in traj[:-1])


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


# --- dataset_return ---


def test_dataset_return_formula():
    spec = env_spec("point_goal_dense")
    ref = ReferenceScores("point_goal_dense", 0.0, 10.0, 1, 0)
    traj = [
        Transition(np.zeros(4), np.zeros(2), r, np.zeros(4), False, False)
        for r in (1.0, 2.0, 3.0)
    ]
    ds = OfflineDataset.from_trajectories([traj], spec, BehaviorSpec("expert"), ref)
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
    ds = OfflineDataset.from_trajectories([], env_spec("point_goal_sparse"),
                                          BehaviorSpec("expert"), sparse_reference)
    with pytest.raises(ValueError):
        dataset_return(ds)


def test_expert_dataset_mean_near_one(sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_dataset(spec, BehaviorSpec("expert"), 20, seed=9,
                          reference=sparse_reference)
    _, mean = dataset_return(ds)
    assert mean == pytest.approx(1.0, abs=0.1)


# --- replay buffer ---


def test_buffer_ring_semantics():
    buf = ReplayBuffer(2, 2, 1)
    a, b, c = _tr(1), _tr(2), _tr(3)
    buf.push(a)
    assert len(buf) == 1
    buf.push(b)
    buf.push(c)
    assert len(buf) == 2
    assert_same_columns(fifo_columns(buf), row_columns([b, c]))


def test_buffer_size_tracks_pushes():
    buf = ReplayBuffer(10, 2, 1)
    for k in range(1, 8):
        buf.push(_tr(k))
        assert len(buf) == k


def test_buffer_fifo_under_repeated_overflow():
    buf = ReplayBuffer(3, 2, 1)
    for k in range(10):
        buf.push(_tr(k))
    assert_same_columns(fifo_columns(buf), row_columns([_tr(7), _tr(8), _tr(9)]))


@pytest.mark.parametrize("capacity", [None, 7, 40])
def test_from_dataset_matches_pushing_rows_in_order(sparse_reference, capacity):
    ds = generate_dataset(env_spec("point_goal_sparse"), BehaviorSpec("noisy_expert", sigma=0.3),
                          3, seed=4, reference=sparse_reference)
    pushed = ReplayBuffer(capacity or ds.n_transitions, 4, 2)
    for traj in trajectories(ds):
        for tr in traj:
            pushed.push(tr)
    copied = ReplayBuffer.from_dataset(ds, capacity)
    assert (len(copied), copied._next) == (len(pushed), pushed._next)
    assert_same_columns(fifo_columns(copied), fifo_columns(pushed))
    a = copied.sample(50, np.random.default_rng(1))
    b = pushed.sample(50, np.random.default_rng(1))
    for field in BUFFER_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_buffer_sample_single_item():
    buf = ReplayBuffer(4, 2, 1)
    buf.push(_tr(5))
    batch = buf.sample(6, np.random.default_rng(0))
    assert len(batch) == 6
    assert np.all(batch.obs == 5.0)


def test_buffer_sample_reproducible():
    buf = ReplayBuffer(16, 2, 1)
    for k in range(16):
        buf.push(_tr(k))
    b1 = buf.sample(8, np.random.default_rng(3))
    b2 = buf.sample(8, np.random.default_rng(3))
    assert np.array_equal(b1.obs, b2.obs)


def test_buffer_sample_uniform_chi_square():
    # frequencies of each slot over 100k draws against a chi-square oracle
    n_items, draws = 20, 100_000
    buf = ReplayBuffer(n_items, 2, 1)
    for k in range(n_items):
        buf.push(_tr(k))
    rng = np.random.default_rng(12345)
    counts = np.zeros(n_items)
    for _ in range(100):
        batch = buf.sample(draws // 100, rng)
        idx = batch.reward.astype(int)
        counts += np.bincount(idx, minlength=n_items)
    expected = draws / n_items
    se = np.sqrt(draws * (1 / n_items) * (1 - 1 / n_items))
    assert np.all(np.abs(counts - expected) <= 3 * se)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 43.8  # 99.9% quantile of chi-square with 19 dof


def test_buffer_empty_sample_raises():
    buf = ReplayBuffer(4, 2, 1)
    with pytest.raises(EmptyBufferError):
        buf.sample(1, np.random.default_rng(0))


# --- mixed sampler ---


def _marked_buffers(n_off=50, n_on=50):
    off = ReplayBuffer(n_off, 2, 1)
    on = ReplayBuffer(n_on, 2, 1)
    for k in range(n_off):
        tr = _tr(k)
        tr.reward = 1.0  # offline marker
        off.push(tr)
    for k in range(n_on):
        tr = _tr(k)
        tr.reward = 0.0
        on.push(tr)
    return off, on


def test_mixed_exact_split_every_batch():
    off, on = _marked_buffers()
    sampler = MixedSampler(off, on, alpha=0.5)
    rng = np.random.default_rng(0)
    for _ in range(200):
        batch = sampler.sample(256, rng)
        assert int(batch.reward.sum()) == 128


@pytest.mark.parametrize("alpha,expect", [(0.0, 0), (1.0, 64), (0.25, 16)])
def test_mixed_alpha_boundaries(alpha, expect):
    off, on = _marked_buffers()
    sampler = MixedSampler(off, on, alpha=alpha)
    batch = sampler.sample(64, np.random.default_rng(1))
    assert int(batch.reward.sum()) == expect


def test_mixed_requires_both_nonempty():
    off, _ = _marked_buffers()
    empty = ReplayBuffer(4, 2, 1)
    sampler = MixedSampler(off, empty, alpha=0.5)
    with pytest.raises(EmptyBufferError):
        sampler.sample(8, np.random.default_rng(0))


def test_mixed_order_shuffled():
    off, on = _marked_buffers()
    sampler = MixedSampler(off, on, alpha=0.5)
    batch = sampler.sample(64, np.random.default_rng(2))
    # offline markers must not sit in one contiguous block
    first_half = batch.reward[:32].sum()
    assert 0 < first_half < 32


def test_mixed_alpha_validated():
    off, on = _marked_buffers()
    with pytest.raises(ValueError):
        MixedSampler(off, on, alpha=1.5)


# --- file I/O ---


def test_save_load_round_trip(tmp_path, sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_dataset(spec, BehaviorSpec("noisy_expert", sigma=0.3), 6, seed=4,
                          reference=sparse_reference)
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.env == ds.env
    assert back.behavior == ds.behavior
    assert back.reference == ds.reference
    assert back.n_traj == ds.n_traj
    for ta, tb in zip(trajectories(ds), trajectories(back)):
        assert ta == tb


def test_save_load_mixture_round_trip(tmp_path, sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_mixed_dataset(
        spec, [(BehaviorSpec("expert"), 2), (BehaviorSpec("uniform_random"), 3)],
        seed=8, reference=sparse_reference,
    )
    path = tmp_path / "mix.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.behavior == ds.behavior
    for ta, tb in zip(trajectories(ds), trajectories(back)):
        assert ta == tb


def test_truncated_file_rejected(tmp_path, sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_dataset(spec, BehaviorSpec("expert"), 4, seed=4,
                          reference=sparse_reference)
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    (tmp_path / "cut.jsonl").write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path / "cut.jsonl")


def test_malformed_line_reports_number(tmp_path, sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_dataset(spec, BehaviorSpec("expert"), 2, seed=4,
                          reference=sparse_reference)
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:-5]  # chop mid-object
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert err.value.line == 4


def test_mismatched_obs_dim_rejected(tmp_path, sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_dataset(spec, BehaviorSpec("expert"), 2, seed=4,
                          reference=sparse_reference)
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["obs_dim"] = 7
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


@pytest.fixture(params=["one_chunk", "small_chunks"])
def chunking(request, monkeypatch):
    """Load whole files at once, or in chunks of a few lines."""
    if request.param == "small_chunks":
        monkeypatch.setattr(data, "_CHUNK_CHARS", 600, raising=False)


def _saved_lines(tmp_path, reference, n_traj=3):
    ds = generate_dataset(env_spec("point_goal_sparse"), BehaviorSpec("uniform_random"),
                          n_traj, seed=4, reference=reference)
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    return ds, path, path.read_text().splitlines()


def _load_error(path, lines) -> DatasetFormatError:
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    return err.value


def _edit_row(lines, index, **changes):
    row = json.loads(lines[index])
    for key, value in changes.items():
        if value is None:
            del row[key]
        else:
            row[key] = value
    lines[index] = json.dumps(row, sort_keys=True)


def test_load_rejects_blank_line(tmp_path, sparse_reference, chunking):
    _, path, lines = _saved_lines(tmp_path, sparse_reference)
    lines[-3] = "   "
    err = _load_error(path, lines)
    assert err.line == len(lines) - 2
    assert "blank line" in str(err)


def test_load_rejects_non_object_line(tmp_path, sparse_reference, chunking):
    _, path, lines = _saved_lines(tmp_path, sparse_reference)
    lines[-2] = "[1.0, 2.0]"
    err = _load_error(path, lines)
    assert err.line == len(lines) - 1
    assert "expected a JSON object" in str(err)


def test_load_rejects_missing_header_key(tmp_path, sparse_reference, chunking):
    _, path, lines = _saved_lines(tmp_path, sparse_reference)
    header = json.loads(lines[0])
    del header["reference"]
    lines[0] = json.dumps(header, sort_keys=True)
    err = _load_error(path, lines)
    assert err.line == 1
    assert "header missing 'reference'" in str(err)


def test_load_rejects_missing_transition_field(tmp_path, sparse_reference, chunking):
    _, path, lines = _saved_lines(tmp_path, sparse_reference)
    _edit_row(lines, len(lines) - 4, reward=None)
    err = _load_error(path, lines)
    assert err.line == len(lines) - 3
    assert "bad transition: 'reward'" in str(err)


def test_load_rejects_action_width_mismatch(tmp_path, sparse_reference, chunking):
    _, path, lines = _saved_lines(tmp_path, sparse_reference)
    _edit_row(lines, len(lines) - 5, action=[0.1, 0.2, 0.3])
    err = _load_error(path, lines)
    assert err.line == len(lines) - 4
    assert "action width does not match header action_dim=2" in str(err)


def test_load_rejects_trajectory_index_out_of_range(tmp_path, sparse_reference, chunking):
    _, path, lines = _saved_lines(tmp_path, sparse_reference)
    _edit_row(lines, len(lines) - 1, traj=3)
    err = _load_error(path, lines)
    assert err.line == len(lines)
    assert "trajectory index 3 outside [0, 3)" in str(err)


def test_load_reports_first_bad_line(tmp_path, sparse_reference, chunking):
    _, path, lines = _saved_lines(tmp_path, sparse_reference)
    _edit_row(lines, 5, obs=[1.0])
    lines[-1] = "{"
    err = _load_error(path, lines)
    assert err.line == 6
    assert "observation width" in str(err)


def test_load_groups_rows_by_trajectory(tmp_path, sparse_reference, chunking):
    ds, path, lines = _saved_lines(tmp_path, sparse_reference)
    rows = lines[1:]
    by_traj = sorted(rows, key=lambda text: -json.loads(text)["traj"])  # stable
    path.write_text("\n".join([lines[0], *by_traj]) + "\n")
    back = load_dataset(path)
    assert back.n_traj == ds.n_traj
    for ta, tb in zip(trajectories(ds), trajectories(back)):
        assert ta == tb


def test_load_converts_values_like_python(tmp_path, sparse_reference, chunking):
    # values save_dataset never writes still load as int(), float() and
    # bool() read them
    _, path, lines = _saved_lines(tmp_path, sparse_reference)
    _edit_row(lines, 2, reward=2, terminated=1, truncated=[])
    lines[3] = "  " + lines[3] + " "
    path.write_text("\n".join(lines) + "\n")
    back = load_dataset(path)
    assert back.reward[1] == 2.0 and back.reward.dtype == np.float64
    assert back.terminated[1] and not back.truncated[1]
    assert np.array_equal(back.obs[2], json.loads(lines[3])["obs"])


def test_save_is_byte_stable(tmp_path, sparse_reference):
    spec = env_spec("point_goal_sparse")
    ds = generate_dataset(spec, BehaviorSpec("expert"), 3, seed=4,
                          reference=sparse_reference)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()
