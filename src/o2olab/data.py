"""Offline datasets, replay buffers, and the dual-buffer mixed sampler.

A transition is a row of columns from the env step to the replay buffer.
In memory a dataset is one array per transition field (obs, action,
reward, next_obs, terminated, truncated), one row per transition, with
trajectory offsets into the rows, as ``envs.run_episodes`` returns them.
``ReplayBuffer.push`` appends n rows by array copies; a buffer is filled
from a dataset by one push of its columns.

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


def _generate(
    spec: EnvSpec,
    runs: list[tuple[BehaviorSpec, int, int]],
    behavior: BehaviorSpec | list[tuple[BehaviorSpec, int]],
    seed: int,
    reference: ReferenceScores | None,
) -> OfflineDataset:
    """One dataset of every (behavior, n_traj, run_seed) run's trajectories,
    in order, all rolled side by side in one env. Each trajectory acts with
    its own behavior generator and resets with its own env seed, so no
    trajectory depends on what runs beside it."""
    if reference is None:
        reference = compute_reference_scores(spec, seed=stable_seed("reference", seed))
    policies, seeds = [], []
    for kind, n_traj, run_seed in runs:
        for i in range(n_traj):
            policies.append(behavior_policy(kind, spec, rng_for("traj-behavior", run_seed, i)))
            seeds.append(stable_seed("traj-env", run_seed, i))
    columns = run_episodes(make_env(spec), policies, seeds)
    return OfflineDataset(**columns, env=spec, behavior=behavior, reference=reference)


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
    return _generate(spec, [(behavior, n_traj, seed)], behavior, seed, reference)


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
    runs = [(b, n, stable_seed("segment", seed, i)) for i, (b, n) in enumerate(segments)]
    return _generate(spec, runs, [tuple(s) for s in segments], seed, reference)


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
        self.sample_reads = 0  # batches drawn; a run's dataset_samples counter
        self._next = 0
        self._obs = np.zeros((capacity, obs_dim))
        self._action = np.zeros((capacity, action_dim))
        self._reward = np.zeros(capacity)
        self._next_obs = np.zeros((capacity, obs_dim))
        self._terminated = np.zeros(capacity)

    def __len__(self) -> int:
        return self.size

    def push(self, obs, action, reward, next_obs, terminated) -> None:
        """Append n transitions, given as arrays of n rows each, oldest
        first. Once full, each row overwrites the oldest; of more rows than
        the capacity only the newest are kept."""
        widths = (obs.shape[1:], action.shape[1:], next_obs.shape[1:])
        if widths != ((self.obs_dim,), (self.action_dim,), (self.obs_dim,)):
            raise ShapeError(
                f"obs/action/next_obs widths {widths} do not match buffer "
                f"({self.obs_dim},)/({self.action_dim},)/({self.obs_dim},)"
            )
        n = len(obs)
        keep = min(n, self.capacity)
        slots = np.arange(self._next + n - keep, self._next + n) % self.capacity
        self._obs[slots] = obs[n - keep :]
        self._action[slots] = action[n - keep :]
        self._reward[slots] = reward[n - keep :]
        self._next_obs[slots] = next_obs[n - keep :]
        self._terminated[slots] = terminated[n - keep :]
        self._next = (self._next + n) % self.capacity
        self.size = min(self.size + n, self.capacity)

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
        """A buffer (of ``capacity``, default the dataset's size) holding one
        push of the dataset's columns: when the dataset is larger than the
        buffer, its newest rows."""
        buf = cls(capacity or dataset.n_transitions, dataset.env.obs_dim, dataset.env.action_dim)
        buf.push(dataset.obs, dataset.action, dataset.reward, dataset.next_obs, dataset.terminated)
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
