"""The benchmark's tracing shims (perfbench/spans.py) still fit the library.

The shims wrap qflab functions by module and attribute name, so a rename in
src/ would otherwise only show when a traced benchmark run fails.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("qflab_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def _qflab_bindings() -> dict:
    return {(name, key): value for name, mod in list(sys.modules.items())
            if name == "qflab" or name.startswith("qflab.")
            for key, value in vars(mod).items()}


def test_every_shim_target_resolves_and_is_restored():
    spans = _load_spans()
    originals = {name: _resolve(module, attr)
                 for name, module, attr, *_ in spans.TARGETS}
    bindings = _qflab_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        installed = {name: _resolve(module, attr)
                     for name, module, attr, *_ in spans.TARGETS}
    finally:
        tracer.uninstall()
    unwrapped = [name for name in originals if installed[name] is originals[name]]
    assert not unwrapped, f"shims that wrapped nothing: {unwrapped}"
    assert all(_resolve(module, attr) is originals[name]
               for name, module, attr, *_ in spans.TARGETS)
    after = _qflab_bindings()
    assert all(after[key] is value for key, value in bindings.items())
