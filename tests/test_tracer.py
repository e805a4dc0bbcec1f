"""The benchmark's span tracer (``perfbench/tracer.py``) wraps functions of
the package by name.  Installing and removing it here makes a deleted or
renamed traced function fail the test suite, not only a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from permutoria import bijections, counting, gengraph, involutions, kernels, permcore, series, tableau

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LAYERS = (bijections, counting, gengraph, involutions, kernels, permcore, series, tableau)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    """Every module-level binding of the loaded package modules."""
    return [
        (module, attr, value)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "permutoria" or name.startswith("permutoria."))
        for attr, value in list(vars(module).items())
    ]


def test_install_layers_wraps_every_name_and_uninstall_restores():
    tracer_mod = load_tracer()
    before = package_bindings()
    post_init = tableau.SkewTableau.__post_init__
    tracer = tracer_mod.Tracer()
    try:
        # a traced name missing from its module raises AttributeError here
        tracer_mod.install_layers(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            wrapper = getattr(owner, attr)
            assert wrapper is not original and wrapper.__wrapped__ is original, attr
        wrapped_layers = {owner for owner, _attr, _original in patches}
        assert set(LAYERS) | {tableau.SkewTableau} <= wrapped_layers
    finally:
        tracer.uninstall()
    assert tableau.SkewTableau.__post_init__ is post_init
    moved = [attr for module, attr, value in before if getattr(module, attr) is not value]
    assert not moved
