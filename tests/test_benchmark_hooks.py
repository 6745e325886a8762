"""The benchmark's span tracer must find every unit it wraps in ``src/``.

``perfbench/spans.py`` wraps public functions and methods by name, and after
each traced trial it reads the episode's ``bus`` and ``registry``. A unit or
attribute that is renamed or deleted would otherwise surface only when the
benchmark runs; here it fails the test suite.
"""

import importlib.util
from pathlib import Path

from brainstem import harness
from brainstem.episode import EpisodeConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_wrapped_unit():
    # instrumentation() looks each unit up by name and raises on a missing one
    functions, methods = load_spans().Tracer().instrumentation()
    assert len(functions) == 24
    assert len(methods) == 9


def test_traced_trial_flushes_runtime_bus_and_registry():
    spans = load_spans()
    tracer = spans.Tracer()
    with spans.patched(*tracer.instrumentation()):
        harness.run_trial(3, 0, EpisodeConfig(mode="full"))
    assert tracer.trials == [(3, 0)]
    assert tracer.total_calls("harness.run_trial") == 1
    assert tracer.audit_len_end > 0
