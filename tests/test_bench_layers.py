"""The traced benchmark wraps the functions ``bench/layers.py`` names, and its
tracer fails on a missing one; this checks that every name resolves."""

import importlib
from pathlib import Path

LAYERS_FILE = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _layers() -> dict:
    """``LAYERS`` from the source, without importing (or caching) the module."""
    namespace = {}
    exec(compile(LAYERS_FILE.read_text(), str(LAYERS_FILE), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves():
    layers = _layers()
    assert "CoupledKawasaki.step" in layers["dynamics"]
    for mod_name, names in layers.items():
        module = importlib.import_module(f"isinglab.{mod_name}")
        for qual in names:
            owner = module
            for attr in qual.split("."):
                assert hasattr(owner, attr), f"isinglab.{mod_name}.{qual}"
                owner = getattr(owner, attr)
            assert callable(owner), f"isinglab.{mod_name}.{qual}"
