"""Offline datasets, replay buffers, and the dual-buffer mixed sampler.

In memory a dataset is columns: one array per transition field (obs,
action, reward, next_obs, terminated, truncated), one row per transition,
with trajectory offsets into the rows. Replay buffers are filled from the
columns by array copies.

On disk a dataset is JSON lines: a header object followed by one object
per transition. Floats go through ``repr`` so a save/load round trip is
bit-exact. Loading parses the file in chunks of lines straight into the
columns.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .envs import (
    BehaviorSpec,
    EnvSpec,
    ReferenceScores,
    behavior_policy,
    compute_reference_scores,
    env_spec,
    make_env,
    run_episode,
)
from .errors import DatasetFormatError, EmptyBufferError, ShapeError
from .seeding import rng_for, stable_seed


@dataclass
class Transition:
    obs: np.ndarray
    action: np.ndarray
    reward: float
    next_obs: np.ndarray
    terminated: bool
    truncated: bool

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transition):
            return NotImplemented
        return (
            np.array_equal(self.obs, other.obs)
            and np.array_equal(self.action, other.action)
            and self.reward == other.reward
            and np.array_equal(self.next_obs, other.next_obs)
            and self.terminated == other.terminated
            and self.truncated == other.truncated
        )


@dataclass(eq=False)
class OfflineDataset:
    """Transitions held as columns, one row per transition, with the rows of
    trajectory ``i`` at ``offsets[i]:offsets[i + 1]``."""

    obs: np.ndarray  # (N, obs_dim)
    action: np.ndarray  # (N, action_dim)
    reward: np.ndarray  # (N,)
    next_obs: np.ndarray  # (N, obs_dim)
    terminated: np.ndarray  # (N,) bool
    truncated: np.ndarray  # (N,) bool
    offsets: np.ndarray  # (n_traj + 1,) int64, offsets[0] == 0
    env: EnvSpec
    # either one behavior, or (behavior, n_traj) segments for trajectory-level
    # mixtures of policies
    behavior: BehaviorSpec | list[tuple[BehaviorSpec, int]]
    reference: ReferenceScores

    @property
    def n_transitions(self) -> int:
        return len(self.reward)

    @property
    def n_traj(self) -> int:
        return len(self.offsets) - 1

    @classmethod
    def from_trajectories(
        cls,
        trajectories: list[list[Transition]],
        env: EnvSpec,
        behavior: BehaviorSpec | list[tuple[BehaviorSpec, int]],
        reference: ReferenceScores,
    ) -> "OfflineDataset":
        """The columns of ``trajectories``, in order."""
        rows = [tr for traj in trajectories for tr in traj]
        return cls(
            obs=np.array([tr.obs for tr in rows], dtype=np.float64).reshape(-1, env.obs_dim),
            action=np.array([tr.action for tr in rows], dtype=np.float64).reshape(
                -1, env.action_dim
            ),
            reward=np.array([tr.reward for tr in rows], dtype=np.float64),
            next_obs=np.array([tr.next_obs for tr in rows], dtype=np.float64).reshape(
                -1, env.obs_dim
            ),
            terminated=np.array([tr.terminated for tr in rows], dtype=bool),
            truncated=np.array([tr.truncated for tr in rows], dtype=bool),
            offsets=np.cumsum([0, *map(len, trajectories)], dtype=np.int64),
            env=env,
            behavior=behavior,
            reference=reference,
        )


def _rollouts(
    spec: EnvSpec, behavior: BehaviorSpec, n_traj: int, seed: int
) -> list[list[Transition]]:
    """n_traj seeded episodes under the behavior policy."""
    env = make_env(spec)
    trajectories = []
    for i in range(n_traj):
        policy = behavior_policy(behavior, spec, rng_for("traj-behavior", seed, i))
        steps, _ = run_episode(env, policy, seed=stable_seed("traj-env", seed, i))
        trajectories.append([Transition(*s) for s in steps])
    return trajectories


def generate_dataset(
    spec: EnvSpec,
    behavior: BehaviorSpec,
    n_traj: int,
    seed: int,
    reference: ReferenceScores | None = None,
) -> OfflineDataset:
    """Roll n_traj seeded episodes under the behavior policy."""
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if reference is None:
        reference = compute_reference_scores(spec, seed=stable_seed("reference", seed))
    return OfflineDataset.from_trajectories(
        _rollouts(spec, behavior, n_traj, seed), spec, behavior, reference
    )


def generate_mixed_dataset(
    spec: EnvSpec,
    segments: list[tuple[BehaviorSpec, int]],
    seed: int,
    reference: ReferenceScores | None = None,
) -> OfflineDataset:
    """Concatenate seeded rollouts from several behaviors into one dataset
    (e.g. expert plus random trajectories)."""
    if not segments:
        raise ValueError("need at least one (behavior, n_traj) segment")
    if any(n_traj < 1 for _, n_traj in segments):
        raise ValueError("n_traj must be >= 1")
    if reference is None:
        reference = compute_reference_scores(spec, seed=stable_seed("reference", seed))
    trajectories = []
    for i, (behavior, n_traj) in enumerate(segments):
        trajectories.extend(_rollouts(spec, behavior, n_traj, stable_seed("segment", seed, i)))
    return OfflineDataset.from_trajectories(
        trajectories, spec, [tuple(s) for s in segments], reference
    )


def dataset_return(dataset: OfflineDataset):
    """Per-trajectory normalized returns and their mean (the dataset's score).

    The per-trajectory list is the statistical sample used for regime
    classification. Each trajectory's rewards are summed left to right by
    Python's ``sum``; ``np.add.reduceat`` rounds differently and would move
    recorded scores in their last bits.
    """
    if dataset.n_traj == 0:
        raise ValueError("dataset has no trajectories")
    rewards = dataset.reward.tolist()
    bounds = dataset.offsets.tolist()
    per_traj = np.array(
        [
            dataset.reference.normalize(sum(rewards[start:stop]))
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]
    )
    return per_traj, float(per_traj.mean())


@dataclass
class TransitionBatch:
    obs: np.ndarray  # (B, obs_dim)
    action: np.ndarray  # (B, action_dim)
    reward: np.ndarray  # (B,)
    next_obs: np.ndarray  # (B, obs_dim)
    terminated: np.ndarray  # (B,) float 0/1

    def __len__(self) -> int:
        return self.obs.shape[0]


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions with uniform sampling."""

    def __init__(self, capacity: int, obs_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.size = 0
        self.sample_reads = 0  # batches drawn; lets tests audit dataset use
        self._next = 0
        self._obs = np.zeros((capacity, obs_dim))
        self._action = np.zeros((capacity, action_dim))
        self._reward = np.zeros(capacity)
        self._next_obs = np.zeros((capacity, obs_dim))
        self._terminated = np.zeros(capacity)

    def __len__(self) -> int:
        return self.size

    def push(self, tr: Transition) -> None:
        if tr.obs.shape != (self.obs_dim,) or tr.action.shape != (self.action_dim,):
            raise ShapeError(
                f"transition widths {tr.obs.shape}/{tr.action.shape} do not match "
                f"buffer ({self.obs_dim},)/({self.action_dim},)"
            )
        i = self._next
        self._obs[i] = tr.obs
        self._action[i] = tr.action
        self._reward[i] = tr.reward
        self._next_obs[i] = tr.next_obs
        self._terminated[i] = float(tr.terminated)
        self._next = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def _gather(self, idx: np.ndarray) -> TransitionBatch:
        return TransitionBatch(
            obs=self._obs[idx],
            action=self._action[idx],
            reward=self._reward[idx],
            next_obs=self._next_obs[idx],
            terminated=self._terminated[idx],
        )

    def sample(self, batch: int, rng: np.random.Generator) -> TransitionBatch:
        """Uniform sampling with replacement."""
        if self.size == 0:
            raise EmptyBufferError("cannot sample from an empty buffer")
        self.sample_reads += 1
        idx = rng.integers(0, self.size, size=batch)
        # map logical FIFO positions to ring slots
        if self.size == self.capacity:
            idx = (self._next + idx) % self.capacity
        return self._gather(idx)

    @classmethod
    def from_dataset(cls, dataset: OfflineDataset, capacity: int | None = None):
        """A buffer (of ``capacity``, default the dataset's size) holding the
        dataset's transitions as if pushed one by one in order: when the
        dataset is larger than the buffer, its newest rows."""
        n = dataset.n_transitions
        buf = cls(capacity or n, dataset.env.obs_dim, dataset.env.action_dim)
        keep = min(n, buf.capacity)
        slots = np.arange(n - keep, n) % buf.capacity
        buf._obs[slots] = dataset.obs[n - keep :]
        buf._action[slots] = dataset.action[n - keep :]
        buf._reward[slots] = dataset.reward[n - keep :]
        buf._next_obs[slots] = dataset.next_obs[n - keep :]
        buf._terminated[slots] = dataset.terminated[n - keep :]
        buf._next = n % buf.capacity
        buf.size = keep
        return buf


@dataclass
class MixedSampler:
    """Draws each batch with an exact offline/online split.

    A batch of size B contains exactly round(alpha * B) offline
    transitions; the split is deterministic per batch, not Bernoulli.
    """

    offline_buffer: ReplayBuffer
    online_buffer: ReplayBuffer
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")

    def offline_count(self, batch: int) -> int:
        return int(round(self.alpha * batch))

    def sample(self, batch: int, rng: np.random.Generator) -> TransitionBatch:
        if len(self.offline_buffer) == 0 or len(self.online_buffer) == 0:
            raise EmptyBufferError("mixed sampling needs both buffers non-empty")
        n_off = self.offline_count(batch)
        parts = []
        if n_off:
            parts.append(self.offline_buffer.sample(n_off, rng))
        if batch - n_off:
            parts.append(self.online_buffer.sample(batch - n_off, rng))
        if len(parts) == 1:
            merged = parts[0]
        else:
            merged = TransitionBatch(
                obs=np.concatenate([p.obs for p in parts]),
                action=np.concatenate([p.action for p in parts]),
                reward=np.concatenate([p.reward for p in parts]),
                next_obs=np.concatenate([p.next_obs for p in parts]),
                terminated=np.concatenate([p.terminated for p in parts]),
            )
        perm = rng.permutation(batch)
        return TransitionBatch(
            obs=merged.obs[perm],
            action=merged.action[perm],
            reward=merged.reward[perm],
            next_obs=merged.next_obs[perm],
            terminated=merged.terminated[perm],
        )


# --- file I/O ---


def _behavior_to_json(behavior):
    if isinstance(behavior, BehaviorSpec):
        return behavior.to_dict()
    return [{**spec.to_dict(), "n_traj": n} for spec, n in behavior]


def _behavior_from_json(data):
    if isinstance(data, dict):
        return BehaviorSpec.from_dict(data)
    return [(BehaviorSpec.from_dict(d), int(d["n_traj"])) for d in data]


def _header_dict(dataset: OfflineDataset, extra: dict | None) -> dict:
    header = {
        "env": dataset.env.to_dict(),
        "obs_dim": dataset.env.obs_dim,
        "action_dim": dataset.env.action_dim,
        "n_traj": dataset.n_traj,
        "behavior": _behavior_to_json(dataset.behavior),
        "reference": dataset.reference.to_dict(),
    }
    if extra:
        header.update(extra)
    return header


def save_dataset(dataset: OfflineDataset, path, extra_header: dict | None = None) -> None:
    """Write header + one JSON object per transition; atomic via rename."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    encode = json.JSONEncoder(sort_keys=True).encode
    traj = np.repeat(np.arange(dataset.n_traj), np.diff(dataset.offsets))
    rows = zip(
        traj.tolist(),
        dataset.obs.tolist(),
        dataset.action.tolist(),
        dataset.reward.tolist(),
        dataset.next_obs.tolist(),
        dataset.terminated.tolist(),
        dataset.truncated.tolist(),
    )
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(encode(_header_dict(dataset, extra_header)))
        fh.write("\n")
        for t_idx, obs, action, reward, next_obs, terminated, truncated in rows:
            row = {
                "traj": t_idx,
                "obs": obs,
                "action": action,
                "reward": reward,
                "next_obs": next_obs,
                "terminated": terminated,
                "truncated": truncated,
            }
            fh.write(encode(row))
            fh.write("\n")
    os.replace(tmp, path)


# Characters of file text parsed at a time: a load holds one chunk's lines
# and parsed rows on top of the columns, never the whole file.
_CHUNK_CHARS = 1 << 20

_DECODER = json.JSONDecoder()


def _line_chunks(fh):
    """The lines of ``fh`` as ``str.splitlines`` splits the whole text, in
    lists of about ``_CHUNK_CHARS`` characters."""
    while True:
        block = fh.readlines(_CHUNK_CHARS)
        if not block:
            return
        # a block ends at a line break, so splitting it splits the file there
        yield "".join(block).splitlines()


def _parse_object(line_no: int, text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON: {exc.msg}", line=line_no) from exc
    if not isinstance(value, dict):
        raise DatasetFormatError("expected a JSON object", line=line_no)
    return value


def _rows_fast(lines: list[str], obs_dim: int, action_dim: int, n_traj: int):
    """Columns (traj, obs, action, reward, next_obs, terminated, truncated)
    of ``lines`` when every line is one JSON object holding a transition in
    the form ``save_dataset`` writes; None when any line is not, and the
    caller must check the lines one by one."""
    decode = _DECODER.raw_decode
    try:
        rows = []
        for text in lines:
            row, end = decode(text)
            if end != len(text):
                return None
            rows.append(row)
        traj = np.array([row["traj"] for row in rows])
        obs = np.array([row["obs"] for row in rows], dtype=np.float64)
        action = np.array([row["action"] for row in rows], dtype=np.float64)
        reward = np.array([row["reward"] for row in rows])
        next_obs = np.array([row["next_obs"] for row in rows], dtype=np.float64)
        terminated = np.array([row["terminated"] for row in rows])
        truncated = np.array([row["truncated"] for row in rows])
    except (KeyError, TypeError, ValueError):  # JSONDecodeError is a ValueError
        return None
    n = len(rows)
    if (
        traj.dtype.kind != "i"
        or reward.dtype.kind not in "fi"
        or terminated.dtype != bool
        or truncated.dtype != bool
        or obs.shape != (n, obs_dim)
        or next_obs.shape != (n, obs_dim)
        or action.shape != (n, action_dim)
        or traj.min() < 0
        or traj.max() >= n_traj
    ):
        return None
    return traj, obs, action, reward.astype(np.float64), next_obs, terminated, truncated


def _rows_by_line(
    lines: list[str], first_line: int, obs_dim: int, action_dim: int, n_traj: int
):
    """The columns of ``lines`` as ``_rows_fast`` gives them, checking one
    line at a time; raises DatasetFormatError at the first bad line."""
    columns = [[] for _ in range(7)]
    for line_no, text in enumerate(lines, start=first_line):
        if not text.strip():
            raise DatasetFormatError("blank line inside dataset", line=line_no)
        row = _parse_object(line_no, text)
        try:
            values = (
                int(row["traj"]),
                np.asarray(row["obs"], dtype=np.float64),
                np.asarray(row["action"], dtype=np.float64),
                float(row["reward"]),
                np.asarray(row["next_obs"], dtype=np.float64),
                bool(row["terminated"]),
                bool(row["truncated"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"bad transition: {exc}", line=line_no) from exc
        t_idx, obs, action, _, next_obs, _, _ = values
        if obs.shape != (obs_dim,) or next_obs.shape != (obs_dim,):
            raise DatasetFormatError(
                f"observation width does not match header obs_dim={obs_dim}",
                line=line_no,
            )
        if action.shape != (action_dim,):
            raise DatasetFormatError(
                f"action width does not match header action_dim={action_dim}",
                line=line_no,
            )
        if not 0 <= t_idx < n_traj:
            raise DatasetFormatError(
                f"trajectory index {t_idx} outside [0, {n_traj})", line=line_no
            )
        for column, value in zip(columns, values):
            column.append(value)
    traj, obs, action, reward, next_obs, terminated, truncated = columns
    return (
        np.array(traj, dtype=np.int64),
        np.array(obs, dtype=np.float64).reshape(-1, obs_dim),
        np.array(action, dtype=np.float64).reshape(-1, action_dim),
        np.array(reward, dtype=np.float64),
        np.array(next_obs, dtype=np.float64).reshape(-1, obs_dim),
        np.array(terminated, dtype=bool),
        np.array(truncated, dtype=bool),
    )


def load_dataset(path) -> OfflineDataset:
    """Parse a dataset file into columns; raises DatasetFormatError before
    returning anything partial.

    The file is parsed in chunks of lines straight into the columns. Rows
    are grouped by their ``traj`` index, in file order within a trajectory.
    """
    with open(path, encoding="utf-8") as fh:
        chunks = _line_chunks(fh)
        first = next(chunks, [])
        if not first:
            raise DatasetFormatError("empty dataset file", line=1)

        header = _parse_object(1, first[0])
        for key in ("env", "obs_dim", "action_dim", "n_traj", "behavior", "reference"):
            if key not in header:
                raise DatasetFormatError(f"header missing {key!r}", line=1)
        spec = env_spec(header["env"]["kind"], header["env"].get("horizon"))
        obs_dim = int(header["obs_dim"])
        action_dim = int(header["action_dim"])
        if (obs_dim, action_dim) != (spec.obs_dim, spec.action_dim):
            raise DatasetFormatError(
                f"header dims ({obs_dim}, {action_dim}) do not match environment "
                f"{spec.kind} ({spec.obs_dim}, {spec.action_dim})",
                line=1,
            )
        n_traj = int(header["n_traj"])
        behavior = _behavior_from_json(header["behavior"])
        reference = ReferenceScores.from_dict(header["reference"])

        parts = [_rows_by_line([], 2, obs_dim, action_dim, n_traj)]  # empty, shaped
        line_no = 2  # of the chunk's first line
        for lines in itertools.chain([first[1:]], chunks):
            if lines:
                part = _rows_fast(lines, obs_dim, action_dim, n_traj)
                if part is None:
                    part = _rows_by_line(lines, line_no, obs_dim, action_dim, n_traj)
                parts.append(part)
            line_no += len(lines)

    traj, obs, action, reward, next_obs, terminated, truncated = (
        np.concatenate(column) for column in zip(*parts)
    )
    counts = np.bincount(traj, minlength=max(n_traj, 0))
    if not counts.all():
        raise DatasetFormatError(
            f"trajectory {int(np.argmin(counts))} has no transitions (truncated file?)",
            line=line_no - 1,
        )
    if np.any(traj[1:] < traj[:-1]):
        order = np.argsort(traj, kind="stable")
        obs, action, reward, next_obs, terminated, truncated = (
            column[order] for column in (obs, action, reward, next_obs, terminated, truncated)
        )
    return OfflineDataset(
        obs=obs,
        action=action,
        reward=reward,
        next_obs=next_obs,
        terminated=terminated,
        truncated=truncated,
        offsets=np.cumsum([0, *counts.tolist()], dtype=np.int64),
        env=spec,
        behavior=behavior,
        reference=reference,
    )
