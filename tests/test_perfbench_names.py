"""The benchmark's tracer must still find every function it times.

`perfbench/tracer.py` names its targets by module and attribute; a rename
in `spinsweep` would only show when a traced benchmark run fails.  This
test reads the tracer from `perfbench/` and changes nothing there.
"""

import importlib.util
from pathlib import Path

import spinsweep.cli  # noqa: F401  (the tracer patches every loaded spinsweep module)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_restore():
    tracer = _load_tracer()
    originals = {target: tracer._resolve(*target)[2] for target in tracer.TARGETS}
    tr = tracer.Tracer()
    tr.install()
    try:
        patches = list(tr._patches)
        for owner, attr, fn in patches:
            assert getattr(owner, attr).__wrapped__ is fn
    finally:
        tr.uninstall()
    patched = {id(fn) for _, _, fn in patches}
    for target, fn in originals.items():
        assert id(fn) in patched, f"{target} resolved but nothing was patched"
    for owner, attr, fn in patches:
        assert getattr(owner, attr) is fn
    for target, fn in originals.items():
        assert tracer._resolve(*target)[2] is fn
