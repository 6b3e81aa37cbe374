"""Every name the benchmark's tracer patches must exist in the package.

``perfbench/spans.py`` patches cohsim functions and methods by name; a name
deleted or moved out of the module the tracer looks it up in would leave a
layer unmeasured.  This imports that file as it is and resolves each name.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TRACED = [(module, path) for module, path, _ in (*spans.PATCHES, spans.TRIAL_GENERATOR_FACTORY)]


@pytest.mark.parametrize("module, path", TRACED, ids=[f"{m}.{p}" for m, p in TRACED])
def test_every_traced_name_resolves(module, path):
    owner, attr = spans._resolve(module, path)
    assert owner is not None and callable(getattr(owner, attr))
