"""Span recorder for traced benchmark runs.

``install`` wraps public functions of ``o2olab`` where each call site looks
them up: a name bound with ``from .x import y`` is patched in the importing
module, a method on its class. Each call becomes a span (name, start, end,
parent) kept in flat in-memory arrays; ``Tracer.dump`` writes them out once,
when the process ends. Pool workers are traced too: ``o2olab.runner`` gets a
stand-in for ``concurrent.futures`` whose process pools start each worker
with ``_init_worker``, which works under both the fork and the spawn start
method.

``summarize`` reads the dumped files back and gives, per span name, the call
count, total time, self time (duration minus the part its child spans
cover) and the durations needed for percentiles.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import json
import multiprocessing.util
import os
import time
from array import array

# (module, attribute, span name). A function imported into several modules
# is listed once per importing module, under one span name.
FUNCTION_PATCHES = [
    ("o2olab.runner", "cmd_gen_data", "runner.gen_data"),
    ("o2olab.runner", "cmd_pretrain", "runner.pretrain"),
    ("o2olab.runner", "cmd_classify", "runner.classify"),
    ("o2olab.runner", "cmd_finetune", "runner.finetune"),
    ("o2olab.runner", "cmd_report", "runner.report"),
    ("o2olab.runner", "run_finetune", "finetune.run_finetune"),
    ("o2olab.runner", "offline_rl_pretrain", "agents.offline_rl_pretrain"),
    ("o2olab.runner", "bc_pretrain", "agents.bc_pretrain"),
    ("o2olab.runner", "fqe", "agents.fqe"),
    ("o2olab.runner", "save_agent", "agents.save_agent"),
    ("o2olab.runner", "load_agent", "agents.load_agent"),
    ("o2olab.agents", "td3_update", "agents.td3_update"),
    ("o2olab.finetune", "td3_update", "agents.td3_update"),
    ("o2olab.agents", "act", "agents.act"),
    ("o2olab.finetune", "act", "agents.act"),
    ("o2olab.finetune", "reset_parameters", "agents.reset_parameters"),
    ("o2olab.nn", "forward", "nn.forward"),
    ("o2olab.nn", "backward", "nn.backward"),
    ("o2olab.nn", "input_gradient", "nn.input_gradient"),
    ("o2olab.nn", "adam_step", "nn.adam_step"),
    ("o2olab.nn", "polyak_update", "nn.polyak_update"),
    ("o2olab.runner", "evaluate_policy", "envs.evaluate_policy"),
    ("o2olab.finetune", "evaluate_policy", "envs.evaluate_policy"),
    ("o2olab.runner", "compute_reference_scores", "envs.compute_reference_scores"),
    ("o2olab.data", "compute_reference_scores", "envs.compute_reference_scores"),
    ("o2olab.runner", "generate_dataset", "data.generate_dataset"),
    ("o2olab.runner", "generate_mixed_dataset", "data.generate_dataset"),
    ("o2olab.data", "generate_dataset", "data.generate_dataset"),
    ("o2olab.runner", "load_dataset", "data.load_dataset"),
    ("o2olab.runner", "save_dataset", "data.save_dataset"),
    ("o2olab.runner", "decompose", "metrics.decompose"),
    ("o2olab.runner", "tost_classify", "metrics.tost_classify"),
    ("o2olab.runner", "compare_classes", "metrics.compare_classes"),
    ("o2olab.runner", "write_json_atomic", "fsio.write"),
    ("o2olab.runner", "write_text_atomic", "fsio.write"),
    ("o2olab.agents", "write_json_atomic", "fsio.write"),
]

# (module, class, method, span name); classmethods keep their binding.
METHOD_PATCHES = [
    ("o2olab.envs", "_Env", "step", "envs.step"),
    ("o2olab.data", "ReplayBuffer", "sample", "data.sample"),
    ("o2olab.data", "MixedSampler", "sample", "data.sample"),
    ("o2olab.data", "ReplayBuffer", "from_dataset", "data.ReplayBuffer.from_dataset"),
]

TRACER: Tracer | None = None


class Tracer:
    """Records spans of one process in flat arrays; single-threaded."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.unpatched: list[str] = []

    def reset(self) -> None:
        """Drop recorded spans and counters (a forked worker inherits its
        parent's)."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.stack.clear()
        self.counters.clear()

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args)`` runs after
        each call that returns."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args)
            return result

        return traced

    def dump(self) -> str:
        """Write the spans of this process to ``spans-<pid>.npz``."""
        import numpy as np

        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.npz")
        meta = {"names": self.names, "counters": self.counters, "unpatched": self.unpatched}
        np.savez(
            path,
            meta=np.array(json.dumps(meta)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        return path


def _count_write(args) -> None:
    TRACER.count("fsio.write_calls", 1)
    TRACER.count("fsio.bytes_written", os.path.getsize(args[0]))


class _TracedFutures:
    """Stands in for ``concurrent.futures`` inside ``o2olab.runner`` so that
    every process pool starts its workers traced."""

    def __getattr__(self, name):
        return getattr(concurrent.futures, name)

    @staticmethod
    def ProcessPoolExecutor(*args, initializer=None, initargs=(), **kwargs):
        return concurrent.futures.ProcessPoolExecutor(
            *args,
            initializer=_init_worker,
            initargs=(TRACER.out_dir, initializer, initargs),
            **kwargs,
        )


def _init_worker(out_dir: str, initializer, initargs) -> None:
    if TRACER is None:  # spawned: a fresh interpreter
        install(out_dir)
    else:  # forked: patches are inherited, spans are the parent's
        TRACER.reset()
    multiprocessing.util.Finalize(None, TRACER.dump, exitpriority=0)
    if initializer is not None:
        initializer(*initargs)


def install(out_dir: str) -> Tracer:
    """Patch ``o2olab`` in this process; returns the process's tracer."""
    global TRACER
    TRACER = Tracer(out_dir)
    for module_name, attr, span in FUNCTION_PATCHES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            TRACER.unpatched.append(f"{module_name}.{attr}")
            continue
        after = _count_write if span == "fsio.write" else None
        setattr(module, attr, TRACER.wrap(span, fn, after))
    for module_name, cls_name, attr, span in METHOD_PATCHES:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        raw = vars(cls).get(attr) if cls is not None else None
        if raw is None:
            TRACER.unpatched.append(f"{module_name}.{cls_name}.{attr}")
            continue
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(TRACER.wrap(span, raw.__func__)))
        else:
            setattr(cls, attr, TRACER.wrap(span, raw))
    runner = importlib.import_module("o2olab.runner")
    if getattr(runner, "cf", None) is concurrent.futures:
        runner.cf = _TracedFutures()
    else:
        TRACER.unpatched.append("o2olab.runner.cf")
    return TRACER


class SpanSummary:
    """Per-name statistics over dumped span files.

    A span nested directly in a span of the same name (a mixed batch drawn
    from two buffers) adds to self time but not to calls, total time or
    durations, so those count each outermost call once.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.unpatched: set[str] = set()
        self.spans = 0

    def add_file(self, path) -> None:
        import numpy as np

        with np.load(path) as z:
            meta = json.loads(str(z["meta"]))
            name_id, parent, start, end = z["name_id"], z["parent"], z["start"], z["end"]
        for key, n in meta["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + n
        self.unpatched.update(meta["unpatched"])
        self.spans += len(name_id)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        outer = ~nested | (name_id[np.where(nested, parent, 0)] != name_id)
        for nid, name in enumerate(meta["names"]):
            sel = name_id == nid
            first = sel & outer
            self.calls[name] = self.calls.get(name, 0) + int(first.sum())
            self.total_s[name] = self.total_s.get(name, 0.0) + float(dur[first].sum())
            self.self_s[name] = self.self_s.get(name, 0.0) + float(own[sel].sum())
            self.durations.setdefault(name, []).append(dur[first])

    def percentile(self, name: str, q: float) -> float:
        import numpy as np

        parts = self.durations.get(name, [])
        values = np.concatenate(parts) if parts else np.zeros(0)
        return float(np.percentile(values, q)) if len(values) else 0.0


def summarize(paths) -> SpanSummary:
    summary = SpanSummary()
    for path in paths:
        summary.add_file(path)
    return summary
