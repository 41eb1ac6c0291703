"""Experiment orchestration: generate -> pretrain -> classify -> fine-tune
-> report, with per-artifact input keys and resumable runs.

Directory layout under the setting's output directory:

    dataset/<column>.npy    dataset/manifest.json
    pretrain/seed_<s>/...   pretrain/eval.json
    classify.json
    finetune/<method>/seed_<s>.json (+ .csv eval curve)
    report/analysis.json    report/summary.csv    report/curve_<method>.csv

Every artifact records ``key``, a short sha256 of its own inputs, and the
key of each artifact it is made from is chained into its own:

    dataset          <- env, behavior, dataset_seed, reference seed/episodes
    checkpoint(seed) <- dataset key, pretrain settings, agent hyper, seed
    pretrain eval    <- the checkpoint keys of ``seeds`` in order, episodes
    classify         <- pretrain eval key, tost
    run(method,seed) <- checkpoint key, the method and FinetuneConfig, run seed

A stage skips work whose artifact already has the expected key. An input
that does not exist is a MissingInputError (exit 2); one with another key is
a ConfigError (exit 1) that names the command remaking it. Every stage
checks the dataset's columns against its manifest without reading rows (a
DatasetFormatError, exit 2); only training loads the rows, and classify
takes the dataset's per-trajectory returns from the manifest. ``setting``,
``out_dir``, the selection of methods, and the report knobs (``last_k``,
``map_inconclusive``) feed no key, so changing them invalidates nothing.
A run seed hashes the seed's value and the method, not the seed's position
in ``seeds`` (``run_seed_for``): appending, dropping, inserting or
reordering seeds leaves every run of a kept seed current. (Run seeds once
hashed the position too; a tree made then from a list other than 0..n-1 in
order re-runs its runs once.)

Pretrain and finetune split their work into one unit per lockstep group.
Pretrain's one class is the seeds to train; finetune sorts the runs to do,
in config order, into classes that update alike whatever their methods
(``finetune.update_class``, from each checkpoint manifest's counters). Each
class is cut into groups (``finetune.lockstep_runs``). A serial stage
(``jobs`` 1, or a lone unit) is the one-worker case of the same units:
``jobs`` N runs the same unit function in a pool of one worker process per
unit, at most N, each unit takes the dataset's rows from a per-process
cache, and each writes its own files, so both write the same bytes.
Pretrain then scores every seed's checkpoint, whether it trained now or
earlier, in one evaluation in this process.

Regime labels are persisted by the classify stage before any fine-tuning
output exists, so the prediction is made ahead of the outcome. Report reads
the classify record and each run file found, checking its key, then calls
``analyse``, which computes the whole analysis and touches no file, and
writes what it returns; the same logs can be re-scored under other report
knobs with ``analyse`` alone.
"""

from __future__ import annotations

import concurrent.futures as cf
import ctypes
import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .agents import (
    Td3Hyper,
    agent_from_bc_fqe,
    bc_pretrain,
    checkpoint_counters,
    fqe,
    load_agent,
    make_td3_agent,
    offline_rl_pretrain,
    policy_fn,
    save_agent,
    select_runs,
    stack_agents,
)
from .data import (
    OfflineDataset,
    behavior_from_json,
    behavior_to_json,
    generate_dataset,
    generate_mixed_dataset,
    load_dataset,
    read_manifest,
    reference_seed_for,
    save_dataset,
)
from .envs import (
    BehaviorSpec,
    EnvSpec,
    compute_reference_scores,
    env_spec,
    evaluate_policy,
)
from .errors import ConfigError, MissingInputError, parse
from .finetune import (
    ALL_METHODS,
    DATA_CENTRIC,
    POLICY_CENTRIC,
    FinetuneConfig,
    RunLog,
    last_k_eval_stat,
    lockstep_runs,
    run_finetune,
    run_settings,
    update_class,
)
from .fsio import MANIFEST_FILE, read_json, write_json_atomic, write_text_atomic
from .metrics import (
    COMPARABLE,
    INCONCLUSIVE,
    IQM_MIN_VALUES,
    REGIMES,
    WINNERS,
    ClassComparison,
    ConfusionMatrix,
    EvalPoint,
    KnowledgeDecomposition,
    SampleStats,
    compare_classes,
    decompose,
    student_t_ppf,
    tost_classify,
)
from .nn import stack_nets
from .seeding import stable_seed

MAP_COMPARABLE = "comparable"
MAP_DROP = "drop"

PRETRAIN_OFFLINE_RL = "offline_rl"
PRETRAIN_BC_FQE = "bc_fqe"


@dataclass
class PretrainConfig:
    kind: str = PRETRAIN_OFFLINE_RL
    steps: int = 30_000
    beta: float = 0.4
    fqe_steps: int | None = None  # bc_fqe only; defaults to steps // 5

    def __post_init__(self):
        if self.kind not in (PRETRAIN_OFFLINE_RL, PRETRAIN_BC_FQE):
            raise ConfigError(f"unknown pretrainer {self.kind!r}")
        if self.kind == PRETRAIN_OFFLINE_RL and self.beta <= 0:
            raise ConfigError(f"pretrain.beta must be > 0 for offline_rl, got {self.beta}")
        if self.steps < 1:
            raise ConfigError(f"pretrain.steps must be >= 1, got {self.steps}")
        if self.fqe_steps is not None and self.fqe_steps < 1:
            raise ConfigError(f"pretrain.fqe_steps must be >= 1, got {self.fqe_steps}")

    @property
    def resolved_fqe_steps(self) -> int:
        return self.fqe_steps if self.fqe_steps is not None else max(1, self.steps // 5)


@dataclass
class TostConfig:
    delta: float = 0.05
    alpha: float = 0.05

    def __post_init__(self):
        if self.delta < 0:
            raise ConfigError(f"tost.delta must be >= 0, got {self.delta}")
        if not 0 < self.alpha < 1:
            raise ConfigError(f"tost.alpha must be in (0, 1), got {self.alpha}")


def _plain(value):
    """A config field as JSON data."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


# The sections of the JSON config that are not built from their annotation:
# ``env`` derives its dims from its kind, and ``behavior`` is one segment or
# a list of them.
_SECTIONS = {
    "env": lambda env: parse(env_spec, env, "env"),
    "behavior": lambda b: behavior_from_json(b if isinstance(b, list) else [b]),
}


@dataclass
class ExperimentConfig:
    """One setting. Fields carry the names and nesting of the JSON config's
    keys, so ``to_dict`` is read off the fields, and ``from_dict`` builds
    every section by its annotations (see ``errors.parse``): an unknown key
    or a value of another type at any level is a ConfigError."""

    setting: str
    env: EnvSpec
    behavior: list[tuple[BehaviorSpec, int]]  # (behavior, n_traj) segments
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    methods: tuple[str, ...] = ALL_METHODS
    seeds: tuple[int, ...] = tuple(range(10))
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    agent: Td3Hyper = field(default_factory=Td3Hyper)
    dataset_seed: int = 0
    reference_episodes: int = 100
    tost: TostConfig = field(default_factory=TostConfig)
    map_inconclusive: str = MAP_COMPARABLE
    last_k: int = 10
    out_dir: str | None = None

    def __post_init__(self):
        if not self.setting:
            raise ConfigError("setting name must be non-empty")
        if not self.behavior:
            raise ConfigError("need at least one behavior segment")
        if not self.methods:
            raise ConfigError("method list must be non-empty")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ConfigError(f"unknown method {m!r}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"methods must be distinct, got {list(self.methods)}")
        # classify compares the seeds' pretrained scores: a sample of at least 2
        if len(self.seeds) < 2 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be at least 2 distinct seeds, got {list(self.seeds)}")
        if self.reference_episodes < 1:
            raise ConfigError(f"reference_episodes must be >= 1, got {self.reference_episodes}")
        if self.map_inconclusive not in (MAP_COMPARABLE, MAP_DROP):
            raise ConfigError("map_inconclusive must be 'comparable' or 'drop'")
        if self.finetune.beta is None:
            self.finetune = replace(self.finetune, beta=self.pretrain.beta)
        points = self.finetune.total_env_steps // self.finetune.eval_every + 1
        if not 1 <= self.last_k <= points:
            raise ConfigError(
                f"last_k must be in [1, {points}], the points of each evaluation curve; "
                f"got {self.last_k}"
            )

    def to_dict(self) -> dict:
        d = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        d["behavior"] = behavior_to_json(self.behavior)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        finetune = data.get("finetune") if isinstance(data, dict) else None
        if isinstance(finetune, dict) and "method" in finetune:
            raise ConfigError(
                "finetune.method is not a setting: `methods` lists the methods to run"
            )
        return parse(cls, data, "", _SECTIONS)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            data = read_json(path)
        except FileNotFoundError as exc:
            raise MissingInputError(f"config file not found: {path}") from exc
        except IsADirectoryError:
            raise MissingInputError(f"config path {path} is a directory, not a file") from None
        except ValueError as exc:  # not JSON, or bytes that are not UTF-8
            raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
        return cls.from_dict(data)

    @property
    def root(self) -> Path:
        return Path(self.out_dir if self.out_dir else f"runs/{self.setting}")


# a setting's analysis, relative to its output directory
_ANALYSIS = Path("report", "analysis.json")


class Paths:
    def __init__(self, config: ExperimentConfig):
        root = config.root
        self.root = root
        self.dataset = root / "dataset"
        self.pretrain_dir = root / "pretrain"
        self.pretrain_eval = root / "pretrain" / "eval.json"
        self.classify = root / "classify.json"
        self.finetune_dir = root / "finetune"
        self.analysis = root / _ANALYSIS
        self.report_dir = self.analysis.parent

    def checkpoint(self, seed: int) -> Path:
        return self.pretrain_dir / f"seed_{seed}"

    def run_file(self, method: str, seed: int) -> Path:
        return self.finetune_dir / method / f"seed_{seed}.json"

    def run_csv(self, method: str, seed: int) -> Path:
        return self.finetune_dir / method / f"seed_{seed}.csv"


# --- artifact keys ---


def _key(inputs: dict) -> str:
    canonical = json.dumps(inputs, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def dataset_key(config: ExperimentConfig) -> str:
    d = config.to_dict()
    return _key({
        **{name: d[name] for name in ("env", "behavior", "dataset_seed", "reference_episodes")},
        "reference_seed": reference_seed_for(config.dataset_seed),
    })


def checkpoint_key(config: ExperimentConfig, seed: int) -> str:
    d = config.to_dict()
    return _key({
        "dataset": dataset_key(config),
        "pretrain": {**d["pretrain"], "fqe_steps": config.pretrain.resolved_fqe_steps},
        "agent": d["agent"],
        "seed": seed,
    })


def eval_key(config: ExperimentConfig) -> str:
    return _key({
        "checkpoints": [checkpoint_key(config, seed) for seed in config.seeds],
        "episodes": config.finetune.eval_episodes,
    })


def classify_key(config: ExperimentConfig) -> str:
    return _key({"eval": eval_key(config), "tost": config.to_dict()["tost"]})


def run_key(config: ExperimentConfig, method: str, seed: int) -> str:
    return _key({
        "checkpoint": checkpoint_key(config, seed),
        "finetune": run_settings(method, config.finetune),
        "run_seed": run_seed_for(seed, method),
    })


def _read(path: Path):
    """``path``'s JSON; a directory where the file belongs is a
    MissingInputError, as no stage can write the file there."""
    try:
        return read_json(path)
    except IsADirectoryError:
        raise MissingInputError(f"{path} is a directory where a file belongs; remove it") from None


def _require_current(path: Path, key: str, command: str) -> dict:
    """``path``'s record, once its key shows it was made from this config's
    inputs; ``command`` is the o2olab command that (re)makes it."""
    try:
        record = _read(path)
    except MissingInputError:  # a directory in its place
        raise
    except FileNotFoundError:
        raise MissingInputError(f"{path} does not exist; run `o2olab {command}`") from None
    except ValueError:  # unreadable, so not made from these inputs either
        record = {}
    _check_key(path, record, key, command)
    return record


def _check_key(path: Path, record: dict, key: str, command: str) -> None:
    if record.get("key") != key:
        raise ConfigError(
            f"{path} was made from other inputs than this config's (key "
            f"{record.get('key')!r}, expected {key!r}); re-run `o2olab {command}`"
        )


def _is_current(path: Path, key: str) -> bool:
    """Whether ``path`` holds a record of ``key``; a directory in its place
    is a MissingInputError (see ``_read``)."""
    try:
        _require_current(path, key, "")
    except ConfigError:
        return False
    except MissingInputError:
        if path.is_dir():
            raise
        return False
    return True


def _dataset_manifest(config: ExperimentConfig) -> dict:
    """The dataset's manifest (see ``data.read_manifest``), once its key
    shows it was made from this config's inputs; reads no rows."""
    dataset = Paths(config).dataset
    _require_current(dataset / MANIFEST_FILE, dataset_key(config), "gen-data --force")
    return read_manifest(dataset)


# --- stage: gen-data ---


def cmd_gen_data(config: ExperimentConfig, force: bool = False) -> Path:
    paths = Paths(config)
    if paths.dataset.exists() and not force:
        raise ConfigError(f"{paths.dataset} already exists; use --force to overwrite")
    paths.root.mkdir(parents=True, exist_ok=True)
    reference = compute_reference_scores(
        config.env, reference_seed_for(config.dataset_seed), config.reference_episodes
    )
    if len(config.behavior) == 1:
        behavior, n_traj = config.behavior[0]
        dataset = generate_dataset(
            config.env, behavior, n_traj, seed=config.dataset_seed, reference=reference
        )
    else:
        dataset = generate_mixed_dataset(
            config.env, config.behavior, seed=config.dataset_seed, reference=reference
        )
    save_dataset(dataset, paths.dataset, extra={"key": dataset_key(config)})
    return paths.dataset


# --- stage: pretrain ---


@functools.lru_cache(maxsize=1)
def _rows(path: Path, key: str) -> OfflineDataset:
    return load_dataset(path)


def _dataset(config: ExperimentConfig) -> OfflineDataset:
    """The dataset's rows, parsed once per process: equal keys mean equal
    rows, since generation is deterministic."""
    return _rows(Paths(config).dataset, dataset_key(config))


def _pretrain_group(config: ExperimentConfig, seeds: tuple[int, ...]) -> None:
    """Train the checkpoints of ``seeds`` as one lockstep group and save
    each; nothing is saved before the whole group is trained."""
    paths = Paths(config)
    pretrain, hyper, env = config.pretrain, config.agent, config.env
    dataset = _dataset(config)
    train_seeds = [stable_seed("pretrain", seed) for seed in seeds]
    group = stack_agents(
        [make_td3_agent(env.obs_dim, env.action_dim, hyper, s) for s in train_seeds]
    )
    if pretrain.kind == PRETRAIN_OFFLINE_RL:
        offline_rl_pretrain(group, dataset, pretrain.steps, pretrain.beta, train_seeds)
    else:
        bc_pretrain(group, dataset, pretrain.steps, train_seeds)
        fqe(group, dataset, pretrain.resolved_fqe_steps, train_seeds)
        agent_from_bc_fqe(group)
    for i, seed in enumerate(seeds):
        save_agent(
            select_runs(group, [i]),
            paths.checkpoint(seed),
            extra={"key": checkpoint_key(config, seed), "seed": seed},
        )


def _openblas_function(name: str):
    """OpenBLAS's ``name`` (e.g. ``set_num_threads``) from the library this
    process has loaded, or None where it cannot be found (no OpenBLAS, or no
    ``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                fn = getattr(lib, f"{prefix}{name}{suffix}", None)
                if fn is not None:
                    return fn
    return None


def _single_thread_blas() -> None:
    """Run BLAS on one thread in this process.

    The matmuls here are small. In pool workers, OpenBLAS's own threads
    would put more threads than cores to work (pretraining took 6x longer
    with --jobs 2 than with --jobs 1 on two cores); in a serial stage its
    second thread spins, adding CPU time at the same wall time and the
    same results. The CLI sets ``OPENBLAS_NUM_THREADS=1`` before numpy
    loads, so its processes never start that thread and this call changes
    nothing there. It is the fallback for a library caller that loaded
    numpy first (a test or a notebook calling ``cmd_pretrain(jobs=2)``):
    the thread pool already exists and is cut to one thread here."""
    fn = _openblas_function("set_num_threads")
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        fn(1)


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let glibc's malloc reuse freed memory rather than hand it back to the
    system; no effect without glibc.

    A TD3 update at batch 256 x (64, 64) allocates several temporaries of
    128 KiB and more. At glibc's starting thresholds each is mapped and
    unmapped, or the heap top is trimmed and regrown, on every update: a
    200-update pendulum pretrain took 137k page faults, against 6k and
    three quarters of the time with these settings. Memory under 4 MiB
    comes from the heap, and the heap keeps up to 64 MiB free at its top."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _configure_process() -> None:
    """Every CLI stage process and every pool worker (as the pool's
    initializer) calls this first. A CLI process and its workers already
    run BLAS on one thread (see ``o2olab.cli``); the BLAS call matters in
    the pool workers of a library caller that loaded numpy first."""
    _single_thread_blas()
    _keep_freed_memory()


def _process_pool(workers: int) -> cf.ProcessPoolExecutor:
    return cf.ProcessPoolExecutor(max_workers=workers, initializer=_configure_process)


def _map(jobs: int, fn, config: ExperimentConfig, units: list[tuple]) -> None:
    """``fn(config, unit)`` for every work unit, in unit order, in a pool of
    one worker per unit, at most ``jobs`` (a fork pool starts them all at
    once), or in this process where that is one worker."""
    workers = min(jobs, len(units))
    if workers <= 1:
        for unit in units:
            fn(config, unit)
        return
    with _process_pool(workers) as pool:
        list(pool.map(fn, repeat(config), units))


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"jobs (--jobs) must be at least 1; got {jobs}")


def cmd_pretrain(config: ExperimentConfig, jobs: int = 1, force: bool = False) -> Path:
    """Train every seed whose checkpoint is missing or stale (every seed with
    ``force``), cut into lockstep groups, one work unit each (see
    ``_lockstep_units``) and one worker per unit, at most ``jobs``; then
    score every seed's checkpoint into ``pretrain/eval.json`` with one
    evaluation. The dataset's rows are loaded only when a seed trains."""
    _check_jobs(jobs)
    paths = Paths(config)
    reference = _dataset_manifest(config)["reference"]
    stale = [
        seed for seed in config.seeds
        if force
        or not _is_current(paths.checkpoint(seed) / MANIFEST_FILE, checkpoint_key(config, seed))
    ]
    if not stale and _is_current(paths.pretrain_eval, eval_key(config)):
        return paths.pretrain_eval
    units = _lockstep_units([stale], lockstep_runs(config.agent, config.env), jobs)
    _map(jobs, _pretrain_group, config, units)
    actors = stack_nets([load_agent(paths.checkpoint(seed)).actor for seed in config.seeds])
    results = evaluate_policy(
        policy_fn(actors),
        config.env,
        reference,
        config.finetune.eval_episodes,
        [stable_seed("pretrain-eval", seed) for seed in config.seeds],
    )
    record = {
        "key": eval_key(config),
        "episodes": config.finetune.eval_episodes,
        "seeds": list(config.seeds),
        "means": [result.mean for result in results],
        "per_episode": [result.per_episode for result in results],
    }
    write_json_atomic(paths.pretrain_eval, record)
    return paths.pretrain_eval


# --- stage: classify ---


def cmd_classify(config: ExperimentConfig) -> Path:
    """Label the regime from the pretrain means and the dataset's
    per-trajectory returns, read from its manifest."""
    paths = Paths(config)
    record = _require_current(paths.pretrain_eval, eval_key(config), "pretrain")
    policy_stats = SampleStats.from_values(record["means"])
    data_stats = SampleStats.from_values(_dataset_manifest(config)["returns"])
    label = tost_classify(policy_stats, data_stats, config.tost.delta, config.tost.alpha)
    payload = {
        "key": classify_key(config),
        **asdict(label),
        "policy": {"mean": policy_stats.mean, "std": policy_stats.std, "n": policy_stats.n},
        "data": {"mean": data_stats.mean, "std": data_stats.std, "n": data_stats.n},
    }
    write_json_atomic(paths.classify, payload)
    return paths.classify


# --- stage: finetune ---


def run_seed_for(config_seed: int, method: str) -> int:
    """Seed of one fine-tuning run, derived from the configured seed value
    and the method alone."""
    # the seed's value stands where its position stood, so the runs of
    # seeds 0..n-1 in order keep their seeds and keys
    return stable_seed("run", config_seed, method, config_seed)


def _finetune_group(config: ExperimentConfig, runs: tuple[tuple[str, int], ...]) -> None:
    """Fine-tune ``runs``, (method, seed) pairs of one update class, as one
    lockstep group and write their run files; nothing is written before the
    whole group is done."""
    paths = Paths(config)
    agents = [load_agent(paths.checkpoint(seed)) for _, seed in runs]
    methods = [method for method, _ in runs]
    run_seeds = [run_seed_for(seed, method) for method, seed in runs]
    logs = run_finetune(_dataset(config), agents, methods, config.finetune, run_seeds)
    for (method, seed), log in zip(runs, logs):
        payload = {"key": run_key(config, method, seed), "config_seed": seed, **log.to_dict()}
        write_json_atomic(paths.run_file(method, seed), payload)
        n_episodes = len(log.eval_curve[0].per_episode)
        _write_csv(
            paths.run_csv(method, seed),
            ["step", "mean", *(f"ret_{i}" for i in range(n_episodes))],
            ([p.step, p.mean, *p.per_episode] for p in log.eval_curve),
        )


def _lockstep_units(classes: list[list], size: int, jobs: int) -> list[tuple]:
    """Work units of lockstep groups: each class's runs (a fine-tune's
    (method, seed) pairs, or pretraining's seeds), in order, in the fewest
    groups of at most ``size``, whose sizes differ by at most one (the
    larger first). While there are fewer units than min(``jobs``, runs),
    the first of the largest units is halved, so that every worker has one
    and the other units stay whole."""
    units = []
    for runs in classes:
        groups = -(-len(runs) // size)  # none for a class without runs
        small, larger = divmod(len(runs), max(groups, 1))
        bounds = [g * small + min(g, larger) for g in range(groups + 1)]
        units += [tuple(runs[start:stop]) for start, stop in zip(bounds, bounds[1:])]
    while len(units) < min(jobs, sum(map(len, units))):
        i = max(range(len(units)), key=lambda k: len(units[k]))
        half = (len(units[i]) + 1) // 2
        units[i : i + 1] = [units[i][:half], units[i][half:]]
    return units


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A CSV file of ``header`` and ``rows``; a float is written as its
    shortest round-trip repr, so the file holds its exact value."""
    lines = [header, *rows]
    write_text_atomic(path, "".join(",".join(map(str, line)) + "\n" for line in lines))


def _read_run_file(path: Path) -> dict | None:
    """The run file's record, or None when it is not a readable run log."""
    try:
        data = _read(path)
        RunLog.from_dict(data)
        return data
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None


def _quarantine(path: Path) -> None:
    n = 0
    while True:
        target = path.with_name(f"{path.name}.corrupt-{n}")
        if not target.exists():
            path.rename(target)
            return
        n += 1


def cmd_finetune(config: ExperimentConfig, jobs: int = 1, force: bool = False) -> list[Path]:
    """Run every (method, seed) whose run file is missing or stale (every
    one with ``force``) under the one ``config.finetune``, in lockstep
    groups of one update class, a work unit each, one worker per unit, at
    most ``jobs``. A stale run file is overwritten in place; only an unreadable one is
    first renamed ``seed_<s>.json.corrupt-<n>``. The dataset's rows are
    loaded only when a run is left to do, and in a pool only by workers."""
    _check_jobs(jobs)
    paths = Paths(config)
    # the regime prediction is recorded before any outcome
    _require_current(paths.classify, classify_key(config), "classify")
    _dataset_manifest(config)
    todo: list[tuple[str, int]] = []
    for method in config.methods:
        (paths.finetune_dir / method).mkdir(parents=True, exist_ok=True)
        for seed in config.seeds:
            run_file = paths.run_file(method, seed)
            # a directory in a run file's place is read, and reported, even under force
            if run_file.exists() and (not force or run_file.is_dir()):
                data = _read_run_file(run_file)
                if data is None:
                    _quarantine(run_file)
                elif data.get("key") == run_key(config, method, seed):
                    continue
            todo.append((method, seed))
    counters = {
        seed: checkpoint_counters(_require_current(
            paths.checkpoint(seed) / MANIFEST_FILE, checkpoint_key(config, seed), "pretrain"
        ))
        for seed in dict.fromkeys(seed for _, seed in todo)
    }
    classes: dict[tuple, list[tuple[str, int]]] = {}
    for method, seed in todo:
        key = update_class(method, config.finetune, config.agent, counters[seed])
        classes.setdefault(key, []).append((method, seed))
    units = _lockstep_units(list(classes.values()), lockstep_runs(config.agent, config.env), jobs)
    _map(jobs, _finetune_group, config, units)
    return [paths.run_file(m, s) for m in config.methods for s in config.seeds]


# --- stage: report ---


def _curve_stats(curves: list[list[EvalPoint]]) -> dict:
    """Mean curve over seeds with a two-sided 95% Student-t interval (none,
    ci_lo == ci_hi == mean, for a single seed)."""
    steps = [p.step for p in curves[0]]
    table = np.array([[p.mean for p in curve] for curve in curves])
    n = table.shape[0]
    mean = table.mean(axis=0)
    if n > 1:
        half = student_t_ppf(0.975, n - 1) * (table.std(axis=0, ddof=1) / np.sqrt(n))
    else:
        half = np.zeros_like(mean)
    return {
        "steps": steps,
        "mean": mean.tolist(),
        "ci_lo": (mean - half).tolist(),
        "ci_hi": (mean + half).tolist(),
    }


def analyse(config: ExperimentConfig, classify: dict, logs: dict[tuple[str, int], RunLog]) -> dict:
    """The setting's analysis from its classify record and the run logs that
    were found, keyed by (method, config seed): a configured run absent from
    ``logs`` is missing. Reads and writes no file."""
    runs = [(method, seed) for method in config.methods for seed in config.seeds]
    completed = {run: logs[run] for run in runs if run in logs and not logs[run].aborted}
    data_mean = classify["data"]["mean"]  # dataset_return's mean, recorded by classify

    methods_report = {}
    last_k_lists: dict[str, list[list[float]]] = {}
    for method in config.methods:
        seeds = [s for s in config.seeds if (method, s) in completed]
        done = [completed[method, s] for s in seeds]
        if not done:
            methods_report[method] = {"seeds": [], "note": "no completed runs"}
            continue
        k = config.last_k
        last_k_scalars = [last_k_eval_stat(log, k) for log in done]
        decos = [asdict(decompose(log.eval_curve, data_mean)) for log in done]
        methods_report[method] = {
            "seeds": [log.seed for log in done],
            "config_seeds": seeds,
            "last_k_per_seed": last_k_scalars,
            "last_k_mean": float(np.mean(last_k_scalars)),
            "decomposition": {
                "per_seed": decos,
                "mean": {name: float(np.mean([d[name] for d in decos])) for name in decos[0]},
            },
            "curve": _curve_stats([log.eval_curve for log in done]),
        }
        last_k = [[p.mean for p in log.eval_curve[-k:]] for log in done]
        # a variant is compared over a sample of seeds, by the IQM of their
        # pooled values
        if len(done) >= 2 and sum(map(len, last_k)) >= IQM_MIN_VALUES:
            last_k_lists[method] = last_k

    policy_variants = {m: last_k_lists[m] for m in POLICY_CENTRIC if m in last_k_lists}
    data_variants = {m: last_k_lists[m] for m in DATA_CENTRIC if m in last_k_lists}
    comparison: ClassComparison | None = None
    if policy_variants and data_variants:
        comparison = compare_classes(policy_variants, data_variants, alpha=config.tost.alpha)

    mapped = classify["label"]
    if mapped == INCONCLUSIVE:  # counted as Comparable, or dropped from the matrix
        mapped = COMPARABLE if config.map_inconclusive == MAP_COMPARABLE else None
    return {
        "setting": config.setting,
        "regime": {
            **{k: classify[k] for k in ("label", "p_lower", "p_upper", "mean_diff", "delta", "alpha")},
            "mapped": mapped,
        },
        "dataset_score": classify["data"],
        "pretrained_score": classify["policy"],
        "methods": methods_report,
        "class_comparison": asdict(comparison) if comparison else None,
        "confusion_cell": (
            {"regime": mapped, "winner": comparison.winner}
            if comparison and mapped is not None
            else None
        ),
        "completeness": {
            "expected_runs": len(runs),
            "completed_runs": len(completed),
            "missing": [f"{m}/seed_{s}" for m, s in runs if (m, s) not in logs],
            "aborted": [f"{m}/seed_{s}" for m, s in runs if (m, s) in logs and logs[m, s].aborted],
        },
    }


def cmd_report(config: ExperimentConfig) -> Path:
    """Read the run files, each checked against its key, ``analyse`` them,
    and write ``analysis.json``, ``summary.csv`` and ``curve_<method>.csv``.
    The report knobs (``last_k``, ``map_inconclusive``) feed no key."""
    paths = Paths(config)
    _dataset_manifest(config)
    classify = _require_current(paths.classify, classify_key(config), "classify")
    logs: dict[tuple[str, int], RunLog] = {}
    for method in config.methods:
        for seed in config.seeds:
            run_file = paths.run_file(method, seed)
            if not run_file.exists():
                continue
            data = _read_run_file(run_file)
            if data is None:
                raise MissingInputError(
                    f"{run_file} is not a readable run log; re-run `o2olab finetune`, "
                    "which sets it aside and redoes the run"
                )
            _check_key(run_file, data, run_key(config, method, seed), "finetune")
            logs[method, seed] = RunLog.from_dict(data)
    if not logs:
        raise MissingInputError(f"no run files under {paths.finetune_dir}; run `o2olab finetune`")
    analysis = analyse(config, classify, logs)
    paths.report_dir.mkdir(parents=True, exist_ok=True)
    write_json_atomic(paths.analysis, analysis)

    reported = {method: entry for method, entry in analysis["methods"].items() if "curve" in entry}
    for method, entry in reported.items():
        curve = entry["curve"]
        _write_csv(
            paths.report_dir / f"curve_{method}.csv",
            ["step", "mean", "ci_lo", "ci_hi"],
            zip(curve["steps"], curve["mean"], curve["ci_lo"], curve["ci_hi"]),
        )
    _write_csv(
        paths.report_dir / "summary.csv",
        ["setting", "method", "n_seeds", "last_k_mean",
         *(f.name for f in fields(KnowledgeDecomposition))],
        (
            [config.setting, method, len(entry["seeds"]), entry["last_k_mean"],
             *entry["decomposition"]["mean"].values()]
            for method, entry in reported.items()
        ),
    )
    return paths.analysis


# --- cross-setting aggregation ---


def aggregate_matrix(entries: list) -> dict:
    """Build the regime-vs-outcome confusion matrix over several settings,
    each given once, as its analysis file or its output directory."""
    analysis_paths = [p / _ANALYSIS if p.is_dir() else p for p in map(Path, entries)]
    seen = set()
    for path in analysis_paths:
        if not path.exists():
            raise MissingInputError(f"no analysis file at {path}")
        if path.resolve() in seen:
            raise ConfigError(f"{path} is given more than once; a setting counts once")
        seen.add(path.resolve())
    matrix = ConfusionMatrix()
    skipped = []
    for path in analysis_paths:
        try:
            analysis = _read(path)
        except ValueError:
            analysis = None
        if not isinstance(analysis, dict):
            raise MissingInputError(f"{path} is not a readable analysis; re-run `o2olab report`")
        cell = analysis.get("confusion_cell")
        if cell is None:
            skipped.append(str(path))
            continue
        if not (
            isinstance(cell, dict)
            and cell.get("regime") in REGIMES
            and cell.get("winner") in WINNERS
        ):
            raise MissingInputError(
                f"{path} holds no resolved regime and winner in its confusion_cell; "
                "re-run `o2olab report`"
            )
        matrix.add(cell["regime"], cell["winner"])
    return {
        "matrix": matrix.to_dict(),
        "summary": matrix.summary_line(),
        "settings": len(analysis_paths) - len(skipped),
        "skipped": skipped,
    }
