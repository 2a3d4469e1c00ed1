"""The benchmark's tracer finds every function it wraps.

`bench/spans.py` patches the functions named in its LAYERS table when a run
is traced (`bench/run.py --trace 1`).  A function renamed or deleted in
moma would only surface there, so this test resolves the table here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import moma.components

_spec = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parent.parent / "bench" / "spans.py")
_spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spans)
LAYERS = _spans.LAYERS


@pytest.mark.parametrize("name, module, attr", LAYERS, ids=[n for n, _, _ in LAYERS])
def test_layer_resolves(name, module, attr):
    # module None: a method patched on QuotientModel
    owner = moma.components.QuotientModel if module is None else importlib.import_module(module)
    assert callable(getattr(owner, attr, None)), f"{name}: {module}.{attr} is gone"
