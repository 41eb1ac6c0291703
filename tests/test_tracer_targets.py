"""The benchmark tracer's patch targets exist in o2olab.

``perfbench/tracer.py`` wraps o2olab functions and methods that it names by
module and attribute. A rename in o2olab leaves a target it cannot patch,
and the benchmark's self-test then fails after a full traced pipeline; this
test finds the same names missing without running anything.
"""

import concurrent.futures
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_patch_target_resolves():
    tracer = load_tracer()
    unresolved = []
    for module_name, attr, _ in tracer.FUNCTION_PATCHES:
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            unresolved.append(f"{module_name}.{attr}")
    for module_name, cls_name, attr, _ in tracer.METHOD_PATCHES:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if cls is None or attr not in vars(cls):
            unresolved.append(f"{module_name}.{cls_name}.{attr}")
    if importlib.import_module("o2olab.runner").cf is not concurrent.futures:
        unresolved.append("o2olab.runner.cf")
    assert unresolved == []
    assert tracer.FUNCTION_PATCHES and tracer.METHOD_PATCHES
