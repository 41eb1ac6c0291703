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
    run(method,seed) <- checkpoint key, the method's FinetuneConfig, run seed

A stage skips work whose artifact already has the expected key. An input
that does not exist is a MissingInputError (exit 2); one with another key is
a ConfigError (exit 1) that names the command remaking it. Every stage
checks the dataset's columns against its manifest without reading rows (a
DatasetFormatError, exit 2); only training loads the rows, and classify
takes the dataset's per-trajectory returns from the manifest. ``setting``,
``out_dir``, the selection of methods and seeds, and the report knobs
(``last_k``, ``map_inconclusive``) feed no key, so changing them
invalidates nothing.

Regime labels are persisted by the classify stage before any fine-tuning
output exists, so the prediction is made ahead of the outcome.
"""

from __future__ import annotations

import concurrent.futures as cf
import ctypes
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agents import (
    Td3Hyper,
    agent_from_bc_fqe,
    bc_pretrain,
    fqe,
    load_agent,
    offline_rl_pretrain,
    policy_fn,
    save_agent,
)
from .data import (
    OfflineDataset,
    generate_dataset,
    generate_mixed_dataset,
    load_dataset,
    read_manifest,
    save_dataset,
)
from .envs import (
    BehaviorSpec,
    EnvSpec,
    ReferenceScores,
    compute_reference_scores,
    env_spec,
    evaluate_policy,
    make_env,
)
from .errors import ConfigError, MissingInputError
from .finetune import (
    ALL_METHODS,
    DATA_CENTRIC,
    POLICY_CENTRIC,
    FinetuneConfig,
    RunLog,
    last_k_eval_stat,
    run_finetune,
)
from .fsio import MANIFEST_FILE, read_json, write_json_atomic, write_text_atomic
from .metrics import (
    COMPARABLE,
    INCONCLUSIVE,
    ClassComparison,
    ConfusionMatrix,
    EvalCurve,
    SampleStats,
    compare_classes,
    decompose,
    student_t_ppf,
    tost_classify,
)
from .seeding import stable_seed

MAP_COMPARABLE = "comparable"
MAP_DROP = "drop"

PRETRAIN_OFFLINE_RL = "offline_rl"
PRETRAIN_BC_FQE = "bc_fqe"


@dataclass
class ExperimentConfig:
    setting: str
    env: EnvSpec
    behavior: list[tuple[BehaviorSpec, int]]  # (behavior, n_traj) segments
    pretrain_kind: str = PRETRAIN_OFFLINE_RL
    pretrain_steps: int = 30_000
    pretrain_beta: float = 0.4
    fqe_steps: int | None = None  # bc_fqe only; defaults to pretrain_steps // 5
    methods: tuple[str, ...] = ALL_METHODS
    seeds: tuple[int, ...] = tuple(range(10))
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    hyper: Td3Hyper = field(default_factory=Td3Hyper)
    dataset_seed: int = 0
    reference_seed: int | None = None
    reference_episodes: int = 100
    tost_delta: float = 0.05
    tost_alpha: float = 0.05
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
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be non-empty and distinct")
        if self.pretrain_kind not in (PRETRAIN_OFFLINE_RL, PRETRAIN_BC_FQE):
            raise ConfigError(f"unknown pretrainer {self.pretrain_kind!r}")
        if self.map_inconclusive not in (MAP_COMPARABLE, MAP_DROP):
            raise ConfigError("map_inconclusive must be 'comparable' or 'drop'")
        if self.finetune.beta is None:
            self.finetune.beta = self.pretrain_beta
        self.finetune.validate()
        points = self.finetune.total_env_steps // self.finetune.eval_every + 1
        if not 1 <= self.last_k <= points:
            raise ConfigError(
                f"last_k must be in [1, {points}], the points of each evaluation curve; "
                f"got {self.last_k}"
            )

    @property
    def resolved_reference_seed(self) -> int:
        if self.reference_seed is not None:
            return self.reference_seed
        return stable_seed("reference", self.dataset_seed)

    @property
    def resolved_fqe_steps(self) -> int:
        return self.fqe_steps if self.fqe_steps is not None else max(1, self.pretrain_steps // 5)

    def to_dict(self) -> dict:
        return {
            "setting": self.setting,
            "env": self.env.to_dict(),
            "behavior": [{**b.to_dict(), "n_traj": n} for b, n in self.behavior],
            "pretrain": {
                "kind": self.pretrain_kind,
                "steps": self.pretrain_steps,
                "beta": self.pretrain_beta,
                "fqe_steps": self.fqe_steps,
            },
            "methods": list(self.methods),
            "seeds": list(self.seeds),
            "finetune": self.finetune.to_dict(),
            "agent": self.hyper.to_dict(),
            "dataset_seed": self.dataset_seed,
            "reference_seed": self.reference_seed,
            "reference_episodes": self.reference_episodes,
            "tost": {"delta": self.tost_delta, "alpha": self.tost_alpha},
            "map_inconclusive": self.map_inconclusive,
            "last_k": self.last_k,
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {
            "setting",
            "env",
            "behavior",
            "pretrain",
            "methods",
            "seeds",
            "finetune",
            "agent",
            "dataset_seed",
            "reference_seed",
            "reference_episodes",
            "tost",
            "map_inconclusive",
            "last_k",
            "out_dir",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        pre, tost = data.get("pretrain", {}), data.get("tost", {})
        optional = {  # field: (section, key, conversion or None); absent keys keep the default
            "pretrain_kind": (pre, "kind", None),
            "pretrain_steps": (pre, "steps", int),
            "pretrain_beta": (pre, "beta", float),
            "fqe_steps": (pre, "fqe_steps", None),
            "methods": (data, "methods", tuple),
            "seeds": (data, "seeds", lambda seeds: tuple(int(s) for s in seeds)),
            "dataset_seed": (data, "dataset_seed", int),
            "reference_seed": (data, "reference_seed", None),
            "reference_episodes": (data, "reference_episodes", int),
            "tost_delta": (tost, "delta", float),
            "tost_alpha": (tost, "alpha", float),
            "map_inconclusive": (data, "map_inconclusive", None),
            "last_k": (data, "last_k", int),
            "out_dir": (data, "out_dir", None),
        }
        try:
            raw_behavior = data["behavior"]
            if isinstance(raw_behavior, dict):
                raw_behavior = [raw_behavior]
            return cls(
                setting=data["setting"],
                env=env_spec(data["env"]["kind"], data["env"].get("horizon")),
                behavior=[
                    (BehaviorSpec.from_dict(b), int(b.get("n_traj", 1))) for b in raw_behavior
                ],
                finetune=FinetuneConfig(**data.get("finetune", {})),
                hyper=Td3Hyper.from_dict(data.get("agent", {})),
                **{
                    name: section[key] if convert is None else convert(section[key])
                    for name, (section, key, convert) in optional.items()
                    if key in section
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"invalid config: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            data = read_json(path)
        except FileNotFoundError as exc:
            raise MissingInputError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @property
    def root(self) -> Path:
        return Path(self.out_dir if self.out_dir else f"runs/{self.setting}")


class Paths:
    def __init__(self, config: ExperimentConfig):
        root = config.root
        self.root = root
        self.dataset = root / "dataset"
        self.pretrain_dir = root / "pretrain"
        self.pretrain_eval = root / "pretrain" / "eval.json"
        self.classify = root / "classify.json"
        self.finetune_dir = root / "finetune"
        self.report_dir = root / "report"
        self.analysis = root / "report" / "analysis.json"

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
        "reference_seed": config.resolved_reference_seed,
    })


def checkpoint_key(config: ExperimentConfig, seed: int) -> str:
    d = config.to_dict()
    return _key({
        "dataset": dataset_key(config),
        "pretrain": {**d["pretrain"], "fqe_steps": config.resolved_fqe_steps},
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
        "finetune": _method_finetune(config, method).to_dict(),
        "run_seed": run_seed_for(seed, method, config.seeds.index(seed)),
    })


def _require_current(path: Path, key: str, command: str) -> dict:
    """``path``'s record, once its key shows it was made from this config's
    inputs; ``command`` is the o2olab command that (re)makes it."""
    try:
        record = read_json(path)
    except FileNotFoundError:
        raise MissingInputError(f"{path} does not exist; run `o2olab {command}`") from None
    except ValueError:  # unreadable, so not made from these inputs either
        record = {}
    if record.get("key") != key:
        raise ConfigError(
            f"{path} was made from other inputs than this config's (key "
            f"{record.get('key')!r}, expected {key!r}); re-run `o2olab {command}`"
        )
    return record


def _is_current(path: Path, key: str) -> bool:
    try:
        _require_current(path, key, "")
    except (ConfigError, MissingInputError):
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
        config.env, seed=config.resolved_reference_seed, episodes=config.reference_episodes
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


def _pretrain_one(
    config: ExperimentConfig,
    seed: int,
    reference: ReferenceScores,
    dataset: OfflineDataset | None,
):
    """Evaluate one seed's checkpoint, first training and saving it when
    ``dataset`` is given; returns (mean, per_episode)."""
    paths = Paths(config)
    if dataset is None:
        agent = load_agent(paths.checkpoint(seed))
    else:
        train_seed = stable_seed("pretrain", seed)
        if config.pretrain_kind == PRETRAIN_OFFLINE_RL:
            agent = offline_rl_pretrain(
                dataset, config.pretrain_steps, config.pretrain_beta, train_seed, config.hyper
            )
        else:
            actor = bc_pretrain(dataset, config.pretrain_steps, train_seed, config.hyper)
            critic = fqe(actor, dataset, config.resolved_fqe_steps, train_seed, config.hyper)
            agent = agent_from_bc_fqe(actor, critic, config.hyper)
        save_agent(
            agent,
            paths.checkpoint(seed),
            beta=config.pretrain_beta,
            extra={"key": checkpoint_key(config, seed), "seed": seed},
        )
    result = evaluate_policy(
        policy_fn(agent),
        config.env,
        reference,
        episodes=config.finetune.eval_episodes,
        seed=stable_seed("pretrain-eval", seed),
    )
    return result.mean, result.per_episode


def _pretrain_worker(config_dict: dict, seed: int, reference: ReferenceScores, train: bool):
    config = ExperimentConfig.from_dict(config_dict)
    dataset = _cached_dataset(str(Paths(config).dataset)) if train else None
    return seed, _pretrain_one(config, seed, reference, dataset)


_DATASETS: dict[str, OfflineDataset] = {}


def _cached_dataset(path: str) -> OfflineDataset:
    if path not in _DATASETS:
        _DATASETS[path] = load_dataset(path)
    return _DATASETS[path]


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
    second thread spins, doubling CPU time at the same wall time and the
    same results."""
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
    initializer) calls this first."""
    _single_thread_blas()
    _keep_freed_memory()


def _process_pool(jobs: int) -> cf.ProcessPoolExecutor:
    return cf.ProcessPoolExecutor(max_workers=jobs, initializer=_configure_process)


def cmd_pretrain(config: ExperimentConfig, jobs: int = 1, force: bool = False) -> Path:
    """Train every seed whose checkpoint is missing or stale (every seed with
    ``force``), then evaluate all seeds into ``pretrain/eval.json``. The
    dataset's rows are loaded only when a seed trains."""
    paths = Paths(config)
    reference = _dataset_manifest(config)["reference"]
    train = [
        seed
        for seed in config.seeds
        if force
        or not _is_current(paths.checkpoint(seed) / MANIFEST_FILE, checkpoint_key(config, seed))
    ]
    if not train and _is_current(paths.pretrain_eval, eval_key(config)):
        return paths.pretrain_eval
    results: dict[int, tuple[float, list[float]]] = {}
    if jobs > 1:
        with _process_pool(jobs) as pool:
            futures = [
                pool.submit(_pretrain_worker, config.to_dict(), seed, reference, seed in train)
                for seed in config.seeds
            ]
            for fut in cf.as_completed(futures):
                seed, payload = fut.result()
                results[seed] = payload
    else:
        dataset = load_dataset(paths.dataset) if train else None
        for seed in config.seeds:
            results[seed] = _pretrain_one(
                config, seed, reference, dataset if seed in train else None
            )
    record = {
        "key": eval_key(config),
        "episodes": config.finetune.eval_episodes,
        "seeds": list(config.seeds),
        "means": [results[s][0] for s in config.seeds],
        "per_episode": [results[s][1] for s in config.seeds],
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
    label = tost_classify(policy_stats, data_stats, config.tost_delta, config.tost_alpha)
    payload = {
        "key": classify_key(config),
        **label.to_dict(),
        "policy": {"mean": policy_stats.mean, "std": policy_stats.std, "n": policy_stats.n},
        "data": {"mean": data_stats.mean, "std": data_stats.std, "n": data_stats.n},
    }
    write_json_atomic(paths.classify, payload)
    return paths.classify


# --- stage: finetune ---


def run_seed_for(config_seed: int, method: str, seed_index: int) -> int:
    """Seed of one fine-tuning run, derived from the configured seed value,
    the method, and the seed's position in the config list."""
    return stable_seed("run", config_seed, method, seed_index)


def _method_finetune(config: ExperimentConfig, method: str) -> FinetuneConfig:
    return FinetuneConfig(**{**config.finetune.to_dict(), "method": method})


def _finetune_one(config: ExperimentConfig, dataset: OfflineDataset, method: str, seed: int):
    paths = Paths(config)
    agent = load_agent(paths.checkpoint(seed))
    env = make_env(config.env)
    run_seed = run_seed_for(seed, method, config.seeds.index(seed))
    log, _ = run_finetune(env, dataset, agent, _method_finetune(config, method), seed=run_seed)
    payload = {
        "key": run_key(config, method, seed),
        "config_seed": seed,
        "run_seed": run_seed,
        **log.to_dict(),
    }
    write_json_atomic(paths.run_file(method, seed), payload)
    _write_curve_csv(paths.run_csv(method, seed), log)
    return method, seed


def _write_curve_csv(path: Path, log: RunLog) -> None:
    lines = []
    n_ep = len(log.eval_curve.points[0].per_episode) if log.eval_curve.points else 0
    lines.append("step,mean," + ",".join(f"ret_{i}" for i in range(n_ep)))
    for p in log.eval_curve.points:
        lines.append(f"{p.step},{p.mean!r}," + ",".join(repr(v) for v in p.per_episode))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _finetune_worker(config_dict: dict, method: str, seed: int):
    config = ExperimentConfig.from_dict(config_dict)
    dataset = _cached_dataset(str(Paths(config).dataset))
    return _finetune_one(config, dataset, method, seed)


def _read_run_file(path: Path) -> dict | None:
    """The run file's record, or None when it is not a readable run log."""
    try:
        data = read_json(path)
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
    """Run every method x seed whose run file is missing or stale (every one
    with ``force``). A stale run file is overwritten in place; only an
    unreadable one is first renamed ``seed_<s>.json.corrupt-<n>``. The
    dataset's rows are loaded only when a run is left to do, and under
    ``jobs > 1`` only in the pool's workers."""
    paths = Paths(config)
    # the regime prediction is recorded before any outcome
    _require_current(paths.classify, classify_key(config), "classify")
    _dataset_manifest(config)
    todo = []
    for method in config.methods:
        (paths.finetune_dir / method).mkdir(parents=True, exist_ok=True)
        for seed in config.seeds:
            run_file = paths.run_file(method, seed)
            if run_file.exists() and not force:
                data = _read_run_file(run_file)
                if data is None:
                    _quarantine(run_file)
                elif data.get("key") == run_key(config, method, seed):
                    continue
            todo.append((method, seed))
    for seed in dict.fromkeys(seed for _, seed in todo):
        _require_current(
            paths.checkpoint(seed) / MANIFEST_FILE, checkpoint_key(config, seed), "pretrain"
        )
    if jobs > 1 and todo:
        with _process_pool(jobs) as pool:
            futures = [
                pool.submit(_finetune_worker, config.to_dict(), m, s) for m, s in todo
            ]
            for fut in cf.as_completed(futures):
                fut.result()
    elif todo:
        dataset = load_dataset(paths.dataset)
        for method, seed in todo:
            _finetune_one(config, dataset, method, seed)
    return [paths.run_file(m, s) for m in config.methods for s in config.seeds]


# --- stage: report ---


def _mapped_regime(label: str, policy: str) -> str | None:
    if label != INCONCLUSIVE:
        return label
    if policy == MAP_COMPARABLE:
        return COMPARABLE
    return None  # drop


def _curve_stats(curves: list[EvalCurve]) -> dict:
    """Mean curve over seeds with a two-sided 95% Student-t interval (none,
    ci_lo == ci_hi == mean, for a single seed)."""
    steps = [p.step for p in curves[0].points]
    table = np.array([[p.mean for p in c.points] for c in curves])
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


def cmd_report(config: ExperimentConfig, map_inconclusive: str | None = None) -> Path:
    """Analyse the finished runs. ``map_inconclusive`` overrides the
    config's mapping of an Inconclusive regime; like every report knob it
    feeds no artifact key."""
    if map_inconclusive not in (None, MAP_COMPARABLE, MAP_DROP):
        raise ConfigError("map_inconclusive must be 'comparable' or 'drop'")
    paths = Paths(config)
    _dataset_manifest(config)
    classify = _require_current(paths.classify, classify_key(config), "classify")
    data_mean = classify["data"]["mean"]  # dataset_return's mean, recorded by classify

    runs: dict[str, dict[int, RunLog]] = {}
    missing: list[str] = []
    aborted: list[str] = []
    for method in config.methods:
        runs[method] = {}
        for seed in config.seeds:
            run_file = paths.run_file(method, seed)
            if not run_file.exists():
                missing.append(f"{method}/seed_{seed}")
                continue
            data = _require_current(run_file, run_key(config, method, seed), "finetune")
            log = RunLog.from_dict(data)
            if log.aborted:
                aborted.append(f"{method}/seed_{seed}")
                continue
            runs[method][seed] = log
    if len(missing) == len(config.methods) * len(config.seeds):
        raise MissingInputError(f"no run files under {paths.finetune_dir}; run `o2olab finetune`")

    methods_report = {}
    last_k_lists: dict[str, list[list[float]]] = {}
    for method in config.methods:
        logs = [runs[method][s] for s in config.seeds if s in runs[method]]
        if not logs:
            methods_report[method] = {"seeds": [], "note": "no completed runs"}
            continue
        k = config.last_k
        last_k_values = [log.eval_curve.means()[-k:] for log in logs]
        last_k_scalars = [last_k_eval_stat(log, k) for log in logs]
        decos = [decompose(log.eval_curve, data_mean) for log in logs]
        methods_report[method] = {
            "seeds": [log.seed for log in logs],
            "config_seeds": [s for s in config.seeds if s in runs[method]],
            "last_k_per_seed": last_k_scalars,
            "last_k_mean": float(np.mean(last_k_scalars)),
            "decomposition": {
                "per_seed": [
                    {
                        "prior": d.prior,
                        "stability": d.stability,
                        "plasticity": d.plasticity,
                        "final": d.final,
                    }
                    for d in decos
                ],
                "mean": {
                    "prior": float(np.mean([d.prior for d in decos])),
                    "stability": float(np.mean([d.stability for d in decos])),
                    "plasticity": float(np.mean([d.plasticity for d in decos])),
                    "final": float(np.mean([d.final for d in decos])),
                },
            },
            "curve": _curve_stats([log.eval_curve for log in logs]),
        }
        last_k_lists[method] = last_k_values

    policy_variants = {m: last_k_lists[m] for m in POLICY_CENTRIC if m in last_k_lists}
    data_variants = {m: last_k_lists[m] for m in DATA_CENTRIC if m in last_k_lists}
    comparison: ClassComparison | None = None
    if policy_variants and data_variants:
        comparison = compare_classes(policy_variants, data_variants, alpha=config.tost_alpha)

    mapped = _mapped_regime(classify["label"], map_inconclusive or config.map_inconclusive)
    analysis = {
        "setting": config.setting,
        "regime": {**{k: classify[k] for k in ("label", "p_lower", "p_upper", "mean_diff", "delta", "alpha")}, "mapped": mapped},
        "dataset_score": classify["data"],
        "pretrained_score": classify["policy"],
        "methods": methods_report,
        "class_comparison": comparison.to_dict() if comparison else None,
        "confusion_cell": (
            {"regime": mapped, "winner": comparison.winner}
            if comparison and mapped is not None
            else None
        ),
        "completeness": {
            "expected_runs": len(config.methods) * len(config.seeds),
            "completed_runs": sum(len(v) for v in runs.values()),
            "missing": missing,
            "aborted": aborted,
        },
    }
    paths.report_dir.mkdir(parents=True, exist_ok=True)
    write_json_atomic(paths.analysis, analysis)

    for method, entry in methods_report.items():
        if "curve" not in entry:
            continue
        curve = entry["curve"]
        lines = ["step,mean,ci_lo,ci_hi"]
        for s, m, lo, hi in zip(curve["steps"], curve["mean"], curve["ci_lo"], curve["ci_hi"]):
            lines.append(f"{s},{m!r},{lo!r},{hi!r}")
        write_text_atomic(paths.report_dir / f"curve_{method}.csv", "\n".join(lines) + "\n")

    summary = ["setting,method,n_seeds,last_k_mean,prior,stability,plasticity,final"]
    for method, entry in methods_report.items():
        if "decomposition" not in entry:
            continue
        d = entry["decomposition"]["mean"]
        summary.append(
            f"{config.setting},{method},{len(entry['seeds'])},{entry['last_k_mean']!r},"
            f"{d['prior']!r},{d['stability']!r},{d['plasticity']!r},{d['final']!r}"
        )
    write_text_atomic(paths.report_dir / "summary.csv", "\n".join(summary) + "\n")
    return paths.analysis


# --- cross-setting aggregation ---


def aggregate_matrix(analysis_paths: list) -> dict:
    """Build the regime-vs-outcome confusion matrix over several settings."""
    matrix = ConfusionMatrix()
    skipped = []
    for path in analysis_paths:
        analysis = read_json(path)
        cell = analysis.get("confusion_cell")
        if cell is None:
            skipped.append(str(path))
            continue
        matrix.add(cell["regime"], cell["winner"])
    return {
        "matrix": matrix.to_dict(),
        "summary": matrix.summary_line(),
        "settings": len(analysis_paths) - len(skipped),
        "skipped": skipped,
    }


def run_pipeline(config: ExperimentConfig, jobs: int = 1, force: bool = False) -> Path:
    """Convenience wrapper running every stage in order."""
    paths = Paths(config)
    if force or not paths.dataset.exists():
        cmd_gen_data(config, force=force)
    cmd_pretrain(config, jobs=jobs, force=force)
    cmd_classify(config)
    cmd_finetune(config, jobs=jobs, force=force)
    return cmd_report(config)
