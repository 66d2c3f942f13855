"""The benchmark's layer tracer (perfbench/tracer.py) can still wrap every
traced function: each name it lists resolves to a plain function, and after
install no module, class or dict in noncent holds an unwrapped original."""

import importlib.util
from pathlib import Path

import noncent.cli  # noqa: F401  (imports every noncent module the tracer scans)
from noncent import checks

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve_as_plain_functions():
    tracer = load_tracer()
    targets = tracer.span_targets()  # raises TypeError on a non-function
    listed = sum(len(attrs) for attrs in tracer.LAYERS.values()) + len(checks.CHECK_IDS)
    assert len(targets) == listed


def test_install_leaves_no_unwrapped_reference():
    tracer = load_tracer()
    originals = tracer.span_targets()
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.unwrapped_references(originals.values()) == []
    finally:
        t.uninstall()
    assert tracer.span_targets() == originals
