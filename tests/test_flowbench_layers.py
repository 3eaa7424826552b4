"""The flow benchmark's contract with the package it measures.

``flowbench/layers.py`` wraps named entry points of ``repro`` from outside,
and ``flowbench/workloads.py`` builds its own FULLSSTA for the
fresh-analysis check.  Renaming or deleting any of those names would only
surface in a traced benchmark run; these tests make it a tier-1 failure.
The benchmark files are read, never modified.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.core.fullssta import FULLSSTA
from repro.core.sizer import SizerConfig

FLOWBENCH = Path(__file__).resolve().parent.parent / "flowbench"


def _load_layers():
    spec = importlib.util.spec_from_file_location("flowbench_layers", FLOWBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()


def _owner(module_name, owner_name):
    module = importlib.import_module(module_name)
    return module if owner_name is None else getattr(module, owner_name)


@pytest.mark.parametrize(
    "module_name,owner_name,attr",
    [entry[1:] for entry in LAYERS.ENTRY_POINTS],
    ids=[f"{entry[1]}.{entry[2] or ''}.{entry[3]}" for entry in LAYERS.ENTRY_POINTS],
)
def test_wrapped_entry_point_is_defined_on_its_owner(module_name, owner_name, attr):
    assert attr in vars(_owner(module_name, owner_name))


def test_profiler_installs_and_restores_every_entry_point():
    originals = [
        vars(_owner(module, owner))[attr] for _, module, owner, attr in LAYERS.ENTRY_POINTS
    ]
    profiler = LAYERS.LayerProfiler()
    profiler.install()
    try:
        for (_, module, owner, attr), original in zip(
            LAYERS.ENTRY_POINTS, originals, strict=True
        ):
            assert vars(_owner(module, owner))[attr] is not original
    finally:
        profiler.uninstall()
    for (_, module, owner, attr), original in zip(LAYERS.ENTRY_POINTS, originals, strict=True):
        assert vars(_owner(module, owner))[attr] is original


def test_fullssta_accepts_the_workload_keywords(delay_model, variation_model, c17_circuit):
    tree = ast.parse((FLOWBENCH / "workloads.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FULLSSTA"
    ]
    assert calls
    accepted = set(inspect.signature(FULLSSTA).parameters)
    for call in calls:
        assert {kw.arg for kw in call.keywords} <= accepted
    engine = FULLSSTA(
        delay_model, variation_model, num_samples=SizerConfig().pdf_samples, vectorized=True
    )
    assert engine.analyze(c17_circuit).output_rv.mean > 0
