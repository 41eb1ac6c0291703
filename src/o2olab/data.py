"""Offline datasets, replay buffers, and the dual-buffer mixed sampler.

A transition is a row of columns from the env step to the replay buffer.
In memory a dataset is one array per transition field (obs, action,
reward, next_obs, terminated, truncated), one row per transition, with
trajectory offsets into the rows, as ``envs.run_episodes`` returns them.
A dataset's trajectories are rolled side by side in one env, every
behavior segment's at once, each in a row that it keeps to the end of the
rollout, and one ``envs.behavior_act`` acts on every row at each step.
``ReplayBuffer`` holds one block of rows per run of a lockstep group, each
block at its run's place for the buffer's life, and its ``sample``, and
``MixedSampler.sample`` through the same gather, draw every run's batch at
once: the one gather path of pretraining and fine-tuning. ``push`` appends
n rows to every block by array copies, and a buffer is filled once: rows
that would not fit raise. The dataset's own buffer holds the dataset's
columns themselves, read-only.

On disk a dataset is a directory: one ``.npy`` file per column (the
offsets too) and a ``manifest.json`` holding the env, behavior, reference
scores, sizes and the per-trajectory normalized returns. ``np.save`` is
exact and byte-deterministic, so a save/load round trip is bit-exact and
two saves of one dataset are byte-identical. The manifest is written last,
so a directory without one is an interrupted save.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .envs import (
    BehaviorSpec,
    EnvSpec,
    ReferenceScores,
    behavior_act,
    compute_reference_scores,
    env_spec,
    run_episodes,
)
from .errors import ConfigError, DatasetFormatError, EmptyBufferError, ShapeError, parse
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


def reference_seed_for(dataset_seed: int) -> int:
    """Seed of the reference scores of the dataset of ``dataset_seed``."""
    return stable_seed("reference", dataset_seed)


def _generate(
    spec: EnvSpec,
    runs: list[tuple[BehaviorSpec, int, int]],
    behavior: BehaviorSpec | list[tuple[BehaviorSpec, int]],
    seed: int,
    reference: ReferenceScores | None,
) -> OfflineDataset:
    """One dataset of every (behavior, n_traj, run_seed) run's trajectories,
    in order, all rolled side by side in one env and acted on row-wise by
    one ``behavior_act``. Each trajectory acts with its own behavior
    generator and resets with its own env seed, so no trajectory depends on
    what runs beside it."""
    if reference is None:
        reference = compute_reference_scores(spec, seed=reference_seed_for(seed))
    behaviors, rngs, seeds = [], [], []
    for kind, n_traj, run_seed in runs:
        for i in range(n_traj):
            behaviors.append(kind)
            rngs.append(rng_for("traj-behavior", run_seed, i))
            seeds.append(stable_seed("traj-env", run_seed, i))
    columns = run_episodes(spec, seeds, behavior_act(spec, behaviors, rngs))
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
    """One batch per run of a lockstep group, every field with a leading
    run axis."""

    obs: np.ndarray  # (runs, B, obs_dim)
    action: np.ndarray  # (runs, B, action_dim)
    reward: np.ndarray  # (runs, B)
    next_obs: np.ndarray  # (runs, B, obs_dim)
    terminated: np.ndarray  # (runs, B) float 0/1


class ReplayBuffer:
    """Fixed-capacity stores of transitions, filled once, with uniform
    sampling: one block of rows per run of a lockstep group; a lone buffer
    is a group of one.

    The runs push together, one row each per transition, so every block
    holds as many rows as the others, in push order. Each field is stored
    as one array, block after block: row s of run r's block is row
    ``r * capacity + s``.
    """

    def __init__(self, capacity: int, obs_dim: int, action_dim: int, runs: int = 1):
        if capacity < 1 or runs < 1:
            raise ValueError("capacity and runs must be >= 1")
        self.capacity = capacity
        self.runs = runs
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.size = 0
        rows = runs * capacity
        self._obs = np.zeros((rows, obs_dim))
        self._action = np.zeros((rows, action_dim))
        self._reward = np.zeros(rows)
        self._next_obs = np.zeros((rows, obs_dim))
        self._terminated = np.zeros(rows)

    def __len__(self) -> int:
        return self.size

    def push(self, obs, action, reward, next_obs, terminated) -> None:
        """Append n transitions to every block, after its rows so far:
        arrays of n rows each with a leading run axis, (runs, n, ...). Rows
        that would not fit raise, and the buffer stays as it was."""
        columns = (obs, action, reward, next_obs, terminated)
        widths = (obs.shape[2:], action.shape[2:], next_obs.shape[2:])
        if widths != ((self.obs_dim,), (self.action_dim,), (self.obs_dim,)):
            raise ShapeError(
                f"obs/action/next_obs widths {widths} do not match buffer "
                f"({self.obs_dim},)/({self.action_dim},)/({self.obs_dim},)"
            )
        if len(obs) != self.runs:
            raise ShapeError(f"rows of {len(obs)} runs for a buffer of {self.runs}")
        start, stop = self.size, self.size + obs.shape[1]
        if stop > self.capacity:
            raise ValueError(
                f"no room for {stop - start} more transition(s): the buffer holds "
                f"{start} of {self.capacity}"
            )
        for store, rows in zip(self._columns(), columns):
            store.reshape(self.runs, self.capacity, *store.shape[1:])[:, start:stop] = rows
        self.size = stop

    def _columns(self) -> tuple[np.ndarray, ...]:
        """The storage of each TransitionBatch field, in field order."""
        return self._obs, self._action, self._reward, self._next_obs, self._terminated

    def _draw(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        """``batch`` uniform draws with replacement, as rows of a block (0
        its first)."""
        if self.size == 0:
            raise EmptyBufferError("cannot sample from an empty buffer")
        # int64 is the default; naming it skips a slow conversion, same draws
        return rng.integers(0, self.size, size=batch, dtype=np.int64)

    def sample(self, batch: int, rngs: list[np.random.Generator]) -> TransitionBatch:
        """One batch per generator in ``rngs``, on a leading run axis: run r
        draws ``batch`` rows of block r uniformly with replacement from
        ``rngs[r]``. A lone buffer serves every generator. Every run's rows
        are gathered at once (see ``_gather``)."""
        return self._gather(batch, rngs, None, [None] * len(rngs))

    def _gather(
        self,
        batch: int,
        rngs: list[np.random.Generator],
        offline: ReplayBuffer | None,
        offline_draws: list[int | None],
    ) -> TransitionBatch:
        """The one gather of ``sample`` and ``MixedSampler.sample``.
        ``offline``, a lone buffer, goes into the batch of each run r whose
        ``offline_draws[r]`` is not None: that many offline draws, then the
        rest from block r, then a permutation of the batch's rows, all from
        ``rngs[r]``. Rows are gathered by one ``take`` per field and source;
        where no run mixes, the blocks' takes are the batch."""
        runs = len(rngs)
        if self.runs not in (1, runs):
            raise ValueError(f"{runs} generators for a buffer of {self.runs} runs")
        mixes = any(n_off is not None for n_off in offline_draws)
        if mixes and (offline is None or offline.runs != 1):
            raise ValueError("mixed draws need a lone offline buffer")
        # per source: the rows it gives, and the rows of the stacked batch they go to
        block_rows, block_at, offline_rows, offline_at = [], [], [], []
        for r, (rng, n_off) in enumerate(zip(rngs, offline_draws)):
            first = (r if self.runs > 1 else 0) * self.capacity  # the block's first row
            at = np.arange(r * batch, (r + 1) * batch)
            if n_off is None:
                block_rows.append(self._draw(batch, rng) + first)
                block_at.append(at)
                continue
            if len(offline) == 0 or len(self) == 0:
                raise EmptyBufferError("mixed sampling needs both buffers non-empty")
            if n_off:
                offline_rows.append(offline._draw(n_off, rng))
            if batch - n_off:
                block_rows.append(self._draw(batch - n_off, rng) + first)
            # the batch's row i is row perm[i] of the offline rows, then the block's
            places = np.empty(batch, dtype=np.int64)
            places[rng.permutation(batch)] = at
            offline_at.append(places[:n_off])
            block_at.append(places[n_off:])
        if not mixes:  # the rows are in batch order; take gathers them as indexing does, faster
            rows = np.concatenate(block_rows)
            columns = [column.take(rows, axis=0) for column in self._columns()]
        else:  # one take per source, then the rows put in batch order
            no_rows = np.empty(0, dtype=np.int64)
            block = np.concatenate([no_rows, *block_rows])
            from_offline = np.concatenate([no_rows, *offline_rows])
            at = np.concatenate(block_at + offline_at)
            back = np.empty_like(at)
            back[at] = np.arange(len(at))
            columns = [
                np.concatenate([own.take(block, axis=0), shared.take(from_offline, axis=0)])
                .take(back, axis=0)
                for own, shared in zip(self._columns(), offline._columns())
            ]
        return TransitionBatch(*(c.reshape(runs, batch, *c.shape[1:]) for c in columns))

    @classmethod
    def from_dataset(cls, dataset: OfflineDataset) -> "ReplayBuffer":
        """The dataset's own buffer: a lone one, full from the start, that
        holds the dataset's float columns themselves, read-only, with
        ``terminated`` as floats; a push into it raises."""
        spec = dataset.env
        buf = cls(1, spec.obs_dim, spec.action_dim)
        buf.capacity = buf.size = dataset.n_transitions
        rows = (dataset.obs, dataset.action, dataset.reward, dataset.next_obs, dataset.terminated)
        columns = [np.asarray(column, dtype=np.float64).view() for column in rows]
        for column in columns:
            column.flags.writeable = False
        buf._obs, buf._action, buf._reward, buf._next_obs, buf._terminated = columns
        return buf


@dataclass
class MixedSampler:
    """Draws each run's batch with an exact offline/online split.

    A batch of size B contains exactly round(alpha * B) offline
    transitions; the split is deterministic per batch, not Bernoulli. The
    offline buffer is a lone one, which every block of the online buffer
    shares. ``mixing`` holds, per block, whether its run mixes; the others
    draw from their blocks alone.
    """

    offline_buffer: ReplayBuffer
    online_buffer: ReplayBuffer
    alpha: float
    mixing: list[bool]

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")

    def offline_count(self, batch: int) -> int:
        return int(round(self.alpha * batch))

    def sample(self, batch: int, rngs: list[np.random.Generator]) -> TransitionBatch:
        """One batch per generator in ``rngs``, on a leading run axis, as
        ``ReplayBuffer.sample`` gathers it; each mixing run draws
        round(alpha * batch) offline rows, then its online rows, then a
        permutation of its batch's rows."""
        n_off = self.offline_count(batch)
        draws = [n_off if mixes else None for mixes in self.mixing]
        return self.online_buffer._gather(batch, rngs, self.offline_buffer, draws)


# --- file I/O ---


def behavior_to_json(behavior):
    """A behavior as JSON data: its fields, or per segment its fields and ``n_traj``."""
    if isinstance(behavior, BehaviorSpec):
        return asdict(behavior)
    return [{**asdict(spec), "n_traj": n} for spec, n in behavior]


def behavior_segment(n_traj: int = 1, **behavior) -> tuple[BehaviorSpec, int]:
    """A mixture's segment from a ``behavior`` entry (through ``parse``): a
    behavior's fields plus ``n_traj``, its trajectories, 1 when absent."""
    if n_traj < 1:
        raise ConfigError(f"behavior.n_traj must be >= 1, got {n_traj}")
    return parse(BehaviorSpec, behavior, "behavior"), n_traj


def behavior_from_json(data):
    """The behavior of ``behavior_to_json``'s data; a list holds segments."""
    if isinstance(data, dict):
        return parse(BehaviorSpec, data, "behavior")
    return [parse(behavior_segment, d, "behavior") for d in data]


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
        "behavior": behavior_to_json(dataset.behavior),
        "reference": asdict(dataset.reference),
        "returns": per_traj.tolist(),  # dataset_return's sample, for classify
        **(extra or {}),
    }
    write_json_atomic(directory / MANIFEST_FILE, manifest)


def _typed_manifest(
    env: EnvSpec,
    behavior: BehaviorSpec | list,
    reference: ReferenceScores,
    obs_dim: int,
    action_dim: int,
    n_traj: int,
    n_transitions: int,
    returns: tuple[float, ...],
    **extra,
) -> dict:
    """A dataset manifest whose fields ``parse`` has typed; ``extra`` holds
    what the saver's caller added."""
    return {
        **extra,
        "env": env,
        "behavior": behavior,
        "reference": reference,
        "obs_dim": obs_dim,
        "action_dim": action_dim,
        "n_traj": n_traj,
        "n_transitions": n_transitions,
        "returns": list(returns),
    }


def _read_manifest(directory: Path) -> dict:
    """The manifest, each field typed, once its dims match its env and it
    holds one return per trajectory."""
    path = directory / MANIFEST_FILE
    try:
        manifest = parse(
            _typed_manifest,
            read_json(path),
            "manifest",
            {"env": lambda data: parse(env_spec, data, "env"), "behavior": behavior_from_json},
        )
    except FileNotFoundError:
        raise DatasetFormatError(f"{path} is missing (an interrupted save?)") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path} is unreadable: {exc!r}") from None
    env, dims = manifest["env"], (manifest["obs_dim"], manifest["action_dim"])
    n_returns = len(manifest["returns"])
    if dims != (env.obs_dim, env.action_dim):
        raise DatasetFormatError(
            f"{path}: dims {dims} do not match environment {env.kind} "
            f"({env.obs_dim}, {env.action_dim})"
        )
    if manifest["n_traj"] < 1 or n_returns != manifest["n_traj"]:
        raise DatasetFormatError(
            f"{path}: {n_returns} returns for {manifest['n_traj']} trajectories"
        )
    return manifest


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
