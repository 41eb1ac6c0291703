"""Offline datasets, replay buffers, and the dual-buffer mixed sampler.

In memory a dataset is columns: one array per transition field (obs,
action, reward, next_obs, terminated, truncated), one row per transition,
with trajectory offsets into the rows. Replay buffers are filled from the
columns by array copies.

On disk a dataset is a directory: one ``.npy`` file per column (the
offsets too) and a ``manifest.json`` holding the env, behavior, reference
scores, sizes and the per-trajectory normalized returns. ``np.save`` is
exact and byte-deterministic, so a save/load round trip is bit-exact and
two saves of one dataset are byte-identical. The manifest is written last,
so a directory without one is an interrupted save.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .envs import (
    BehaviorSpec,
    EnvSpec,
    ReferenceScores,
    behavior_policy,
    compute_reference_scores,
    env_spec,
    make_env,
    run_episodes,
)
from .errors import DatasetFormatError, EmptyBufferError, ShapeError
from .fsio import MANIFEST_FILE, read_json, write_json_atomic, write_npy_atomic
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
    """n_traj seeded episodes under the behavior policy, stepped side by side,
    each acting with its own generator."""
    episodes = run_episodes(
        make_env(spec),
        [behavior_policy(behavior, spec, rng_for("traj-behavior", seed, i)) for i in range(n_traj)],
        [stable_seed("traj-env", seed, i) for i in range(n_traj)],
    )
    return [[Transition(*s) for s in steps] for steps, _ in episodes]


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


def _column_layout(n_transitions: int, n_traj: int, env: EnvSpec) -> dict:
    """Shape and dtype of each column file, by column name."""
    n = n_transitions
    return {
        "obs": ((n, env.obs_dim), np.dtype(np.float64)),
        "action": ((n, env.action_dim), np.dtype(np.float64)),
        "reward": ((n,), np.dtype(np.float64)),
        "next_obs": ((n, env.obs_dim), np.dtype(np.float64)),
        "terminated": ((n,), np.dtype(bool)),
        "truncated": ((n,), np.dtype(bool)),
        "offsets": ((n_traj + 1,), np.dtype(np.int64)),
    }


def save_dataset(dataset: OfflineDataset, directory, extra: dict | None = None) -> None:
    """Write each column to ``directory/<name>.npy``, then ``manifest.json``
    (plus ``extra``). The old manifest is removed first, so an interrupted
    save leaves a directory that no load accepts."""
    directory = Path(directory)
    per_traj, _ = dataset_return(dataset)
    layout = _column_layout(dataset.n_transitions, dataset.n_traj, dataset.env)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / MANIFEST_FILE).unlink(missing_ok=True)
    for name, (_, dtype) in layout.items():
        column = np.ascontiguousarray(getattr(dataset, name), dtype)
        write_npy_atomic(directory / f"{name}.npy", column)
    manifest = {
        "env": dataset.env.to_dict(),
        "obs_dim": dataset.env.obs_dim,
        "action_dim": dataset.env.action_dim,
        "n_traj": dataset.n_traj,
        "n_transitions": dataset.n_transitions,
        "behavior": _behavior_to_json(dataset.behavior),
        "reference": dataset.reference.to_dict(),
        "returns": per_traj.tolist(),  # dataset_return's sample, for classify
        **(extra or {}),
    }
    write_json_atomic(directory / MANIFEST_FILE, manifest)


def _read_manifest(directory: Path) -> dict:
    """The manifest, with ``env``, ``behavior`` and ``reference`` parsed,
    once its dims match its env and it holds one return per trajectory."""
    path = directory / MANIFEST_FILE
    try:
        manifest = read_json(path)
        env = env_spec(manifest["env"]["kind"], manifest["env"].get("horizon"))
        parsed = {
            **manifest,
            "env": env,
            "behavior": _behavior_from_json(manifest["behavior"]),
            "reference": ReferenceScores.from_dict(manifest["reference"]),
            "n_traj": int(manifest["n_traj"]),
            "n_transitions": int(manifest["n_transitions"]),
        }
        dims = (int(manifest["obs_dim"]), int(manifest["action_dim"]))
        n_returns = len(manifest["returns"])
    except FileNotFoundError:
        raise DatasetFormatError(f"{path} is missing (an interrupted save?)") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path} is unreadable: {exc!r}") from None
    if dims != (env.obs_dim, env.action_dim):
        raise DatasetFormatError(
            f"{path}: dims {dims} do not match environment {env.kind} "
            f"({env.obs_dim}, {env.action_dim})"
        )
    if parsed["n_traj"] < 1 or n_returns != parsed["n_traj"]:
        raise DatasetFormatError(
            f"{path}: {n_returns} returns for {parsed['n_traj']} trajectories"
        )
    return parsed


def _read_columns(directory: Path, manifest: dict, mmap_mode: str | None) -> dict:
    """Every column, once its shape and dtype match the manifest and the
    offsets split the rows into non-empty trajectories. With ``mmap_mode``
    "r" the files are mapped, not read."""
    n = manifest["n_transitions"]
    layout = _column_layout(n, manifest["n_traj"], manifest["env"])
    columns = {}
    for name, (shape, dtype) in layout.items():
        path = directory / f"{name}.npy"
        try:
            column = np.load(path, mmap_mode=mmap_mode, allow_pickle=False)
        except FileNotFoundError:
            raise DatasetFormatError(f"{path} is missing") from None
        except (OSError, ValueError, EOFError) as exc:
            raise DatasetFormatError(f"{path} is unreadable: {exc}") from None
        if column.shape != shape or column.dtype != dtype:
            raise DatasetFormatError(
                f"{path} holds {column.dtype} {column.shape}, expected {dtype} {shape}"
            )
        columns[name] = column
    offsets = columns["offsets"]
    if offsets[0] != 0 or offsets[-1] != n:
        raise DatasetFormatError(
            f"offsets run from {offsets[0]} to {offsets[-1]}, expected 0 to {n} transitions"
        )
    lengths = np.diff(offsets)
    if lengths.min() < 0:
        raise DatasetFormatError(f"offsets decrease at trajectory {int(np.argmin(lengths))}")
    if lengths.min() == 0:
        raise DatasetFormatError(f"trajectory {int(np.argmin(lengths))} has no transitions")
    return columns


def read_manifest(directory) -> dict:
    """The manifest of the dataset in ``directory`` once the columns agree
    with it, without reading any row; raises DatasetFormatError."""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    _read_columns(directory, manifest, mmap_mode="r")
    return manifest


def load_dataset(directory) -> OfflineDataset:
    """The dataset in ``directory``; raises DatasetFormatError when a file
    is missing or disagrees with the manifest."""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    return OfflineDataset(
        **_read_columns(directory, manifest, mmap_mode=None),
        env=manifest["env"],
        behavior=manifest["behavior"],
        reference=manifest["reference"],
    )
