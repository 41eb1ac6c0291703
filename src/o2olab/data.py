"""Offline datasets, replay buffers, and the dual-buffer mixed sampler.

Datasets are stored as JSON lines: a header object followed by one object
per transition. Floats go through ``repr`` so a save/load round trip is
bit-exact.
"""

from __future__ import annotations

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


@dataclass
class OfflineDataset:
    trajectories: list[list[Transition]]
    env: EnvSpec
    # either one behavior, or (behavior, n_traj) segments for trajectory-level
    # mixtures of policies
    behavior: BehaviorSpec | list[tuple[BehaviorSpec, int]]
    reference: ReferenceScores

    @property
    def n_transitions(self) -> int:
        return sum(len(t) for t in self.trajectories)

    def iter_transitions(self):
        for traj in self.trajectories:
            yield from traj


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
    env = make_env(spec)
    trajectories = []
    for i in range(n_traj):
        policy = behavior_policy(behavior, spec, rng_for("traj-behavior", seed, i))
        steps, _ = run_episode(env, policy, seed=stable_seed("traj-env", seed, i))
        trajectories.append([Transition(*s) for s in steps])
    return OfflineDataset(trajectories, spec, behavior, reference)


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
    if reference is None:
        reference = compute_reference_scores(spec, seed=stable_seed("reference", seed))
    trajectories = []
    for i, (behavior, n_traj) in enumerate(segments):
        part = generate_dataset(
            spec, behavior, n_traj, seed=stable_seed("segment", seed, i), reference=reference
        )
        trajectories.extend(part.trajectories)
    return OfflineDataset(trajectories, spec, [tuple(s) for s in segments], reference)


def dataset_return(dataset: OfflineDataset):
    """Per-trajectory normalized returns and their mean (the dataset's score).

    The per-trajectory list is the statistical sample used for regime
    classification.
    """
    if not dataset.trajectories:
        raise ValueError("dataset has no trajectories")
    per_traj = np.array(
        [
            dataset.reference.normalize(sum(t.reward for t in traj))
            for traj in dataset.trajectories
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
        self._truncated = np.zeros(capacity)

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
        self._truncated[i] = float(tr.truncated)
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

    def as_transitions(self) -> list[Transition]:
        """Buffer contents in FIFO order (oldest first)."""
        if self.size == self.capacity:
            order = (self._next + np.arange(self.size)) % self.capacity
        else:
            order = np.arange(self.size)
        return [
            Transition(
                obs=self._obs[i].copy(),
                action=self._action[i].copy(),
                reward=float(self._reward[i]),
                next_obs=self._next_obs[i].copy(),
                terminated=bool(self._terminated[i]),
                truncated=bool(self._truncated[i]),
            )
            for i in order
        ]

    @classmethod
    def from_dataset(cls, dataset: OfflineDataset, capacity: int | None = None):
        n = dataset.n_transitions
        buf = cls(capacity or n, dataset.env.obs_dim, dataset.env.action_dim)
        for tr in dataset.iter_transitions():
            buf.push(tr)
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
        "n_traj": len(dataset.trajectories),
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
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header_dict(dataset, extra_header), sort_keys=True))
        fh.write("\n")
        for t_idx, traj in enumerate(dataset.trajectories):
            for tr in traj:
                row = {
                    "traj": t_idx,
                    "obs": tr.obs.tolist(),
                    "action": tr.action.tolist(),
                    "reward": tr.reward,
                    "next_obs": tr.next_obs.tolist(),
                    "terminated": tr.terminated,
                    "truncated": tr.truncated,
                }
                fh.write(json.dumps(row, sort_keys=True))
                fh.write("\n")
    os.replace(tmp, path)


def load_dataset(path) -> OfflineDataset:
    """Parse a dataset file; raises DatasetFormatError before returning
    anything partial."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError("empty dataset file", line=1)

    def parse(line_no: int, text: str) -> dict:
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"invalid JSON: {exc.msg}", line=line_no) from exc
        if not isinstance(value, dict):
            raise DatasetFormatError("expected a JSON object", line=line_no)
        return value

    header = parse(1, lines[0])
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

    trajectories: list[list[Transition]] = [[] for _ in range(n_traj)]
    for line_no, text in enumerate(lines[1:], start=2):
        if not text.strip():
            raise DatasetFormatError("blank line inside dataset", line=line_no)
        row = parse(line_no, text)
        try:
            t_idx = int(row["traj"])
            tr = Transition(
                obs=np.asarray(row["obs"], dtype=np.float64),
                action=np.asarray(row["action"], dtype=np.float64),
                reward=float(row["reward"]),
                next_obs=np.asarray(row["next_obs"], dtype=np.float64),
                terminated=bool(row["terminated"]),
                truncated=bool(row["truncated"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"bad transition: {exc}", line=line_no) from exc
        if tr.obs.shape != (obs_dim,) or tr.next_obs.shape != (obs_dim,):
            raise DatasetFormatError(
                f"observation width does not match header obs_dim={obs_dim}",
                line=line_no,
            )
        if tr.action.shape != (action_dim,):
            raise DatasetFormatError(
                f"action width does not match header action_dim={action_dim}",
                line=line_no,
            )
        if not 0 <= t_idx < n_traj:
            raise DatasetFormatError(
                f"trajectory index {t_idx} outside [0, {n_traj})", line=line_no
            )
        trajectories[t_idx].append(tr)

    if any(not traj for traj in trajectories):
        missing = next(i for i, t in enumerate(trajectories) if not t)
        raise DatasetFormatError(
            f"trajectory {missing} has no transitions (truncated file?)",
            line=len(lines),
        )
    return OfflineDataset(trajectories, spec, behavior, reference)
