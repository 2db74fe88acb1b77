"""Module-level tables of the perfbench scripts, read from their source with
ast, so the tests never import or run the benchmark."""

import ast
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def assigned(filename, name):
    """The expression assigned to the module-level `name` in a perfbench file."""
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return node.value
    raise AssertionError(f"{filename} assigns no {name}")


def table(filename, name):
    """The literal value of `name` in a perfbench file."""
    return ast.literal_eval(assigned(filename, name))
