"""The perfbench layer trace finds every sensopt binding it wraps.

perfbench/spans.py patches the bindings in PATCH_POINTS by attribute
while a traced benchmark op runs; a binding renamed or deleted in sensopt
would break only the traced benchmark run. This reads spans.py and does
not change it.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize(
    "owner_path, attr, kind",
    [(owner, attr, kind) for owner, attr, _, kind in spans.PATCH_POINTS],
    ids=[f"{owner}.{attr}" for owner, attr, _, _ in spans.PATCH_POINTS],
)
def test_patch_point_resolves(owner_path, attr, kind):
    # Tracer.op looks each binding up in its owner's __dict__.
    original = spans._resolve(owner_path).__dict__.get(attr)
    assert original is not None, f"{owner_path} has no binding {attr!r}"
    if kind == "classmethod":
        assert isinstance(original, classmethod)
    elif kind == "generator":
        assert inspect.isgeneratorfunction(original)
    else:
        assert callable(original)
