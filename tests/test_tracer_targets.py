"""The benchmark tracer wraps polarblock functions by module attribute;
every name it patches must still resolve."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    targets = [(path, attr) for path, attr, _ in tracer.PATCHES]
    targets.append(tracer.ENGINE[:2])
    missing = [f"{path}.{attr}" for path, attr in targets
               if not callable(getattr(tracer._resolve(path), attr, None))]
    assert not missing, missing
