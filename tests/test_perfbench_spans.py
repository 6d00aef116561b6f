"""The benchmark's tracer wraps hdxlab entry points by name; a renamed or
removed one makes ``Tracer.install`` raise.  This installs and uninstalls it
on the current source, so such a change fails here rather than in a traced
benchmark run."""

import importlib
import importlib.util
import os
import sys


def _load_spans():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_restores_it():
    spans = _load_spans()
    for module_name in {m for entries in spans.WRAPPED.values() for m, _ in entries}:
        importlib.import_module(module_name)
    modules = [m for n, m in sys.modules.items() if n == "hdxlab" or n.startswith("hdxlab.")]
    # every binding the tracer should replace: the method on its class, the
    # function in each hdxlab module that imported it
    bindings = []
    for module_name, attr in (e for entries in spans.WRAPPED.values() for e in entries):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            bindings.append((owner, meth, owner.__dict__[meth]))
        else:
            orig = getattr(module, attr)
            bindings += [(mod, attr, orig) for mod in modules
                         if mod.__dict__.get(attr) is orig]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for owner, attr, orig in bindings:
            wrapped = owner.__dict__[attr]
            assert wrapped is not orig and wrapped.__wrapped__ is orig, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, orig in bindings:
        assert owner.__dict__[attr] is orig, (owner, attr)
