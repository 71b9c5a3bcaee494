"""The benchmark tracer's span table names only things the engine defines."""

import importlib.util
import sys
from pathlib import Path

import spinsym.cli  # noqa: F401  (loads every module the tracer patches)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = []
    for _, modname, attr in tracer.FUNCTIONS:
        module = sys.modules.get(modname)
        if module is None or not callable(getattr(module, attr, None)):
            missing.append(f"{modname}.{attr}")
    for _, modname, cls, attr in tracer.METHODS:
        klass = getattr(sys.modules.get(modname), cls, None)
        # install() patches the class's own attribute, not an inherited one
        if klass is None or attr not in vars(klass):
            missing.append(f"{modname}.{cls}.{attr}")
    assert not missing
