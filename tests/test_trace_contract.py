"""The benchmark's trace run patches zcc functions by name: keep those names.

perfbench/traced_cli.py wraps the functions in WRAPPED, and perfbench/run.py
requires the module-level bindings in IMPORT_SITES to be patched.  Both
tables are read from the source, so a deletion or rename in zcc fails here
rather than in a benchmark run.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _assigned(filename, name):
    """The expression assigned to the module-level `name` in a perfbench file."""
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return node.value
    raise AssertionError(f"{filename} assigns no {name}")


def _wrapped() -> dict:
    """Span name -> the function it wraps, as WRAPPED's (module, attribute)."""
    table = _assigned("traced_cli.py", "WRAPPED")
    out = {}
    for key, value in zip(table.keys, table.values):
        module, attr = value.elts
        defining = importlib.import_module(f"zcc.{module.id}")
        out[ast.literal_eval(key)] = getattr(defining, ast.literal_eval(attr), None)
    return out


def test_every_wrapped_function_exists():
    wrapped = _wrapped()
    assert wrapped
    missing = [span for span, fn in wrapped.items() if not callable(fn)]
    assert not missing


def test_every_import_site_binds_its_wrapped_function():
    by_name = {span.rpartition(".")[2]: fn for span, fn in _wrapped().items()}
    sites = ast.literal_eval(_assigned("run.py", "IMPORT_SITES"))
    assert sites
    for site in sites:
        module, _, name = site.rpartition(".")
        bound = vars(importlib.import_module(module)).get(name)
        assert bound is not None and bound is by_name.get(name), site
