"""Every function, class and method in src/zcc is referenced from src/zcc.

A definition counts as used when some identifier in the package, outside the
definition's own body, names it: a load of the name, an attribute of that
name, or an import of it.  Tests do not count: a name only tests reach is API
that no command calls.  Dunders are called by the interpreter and are exempt.
"""

import ast
import pathlib

import zcc

SOURCE = pathlib.Path(zcc.__file__).resolve().parent

# name -> why it stays without a caller in the package
ALLOWED = {
    # the representation-theory half of charpoly, reserved for a command that
    # reads multiplicities of irreducibles off the census
    "decompose_into_irreducibles": "charpoly: representation stability",
    "pad_partition": "charpoly: representation stability",
    "free_module_character": "charpoly: representation stability",
    "stable_inner_product": "charpoly: representation stability",
    "irreducible_dimension": "charpoly: representation stability",
}


def _definitions_and_references():
    """(name -> [(file, line)] of its definitions, name -> number of
    references outside the body of a definition of that name)."""
    defined = {}
    references = {}

    def visit(node, inside, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, []).append((path.name, node.lineno))
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        if name is not None and name not in inside:
            references[name] = references.get(name, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, inside, path)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset(), path)
    return defined, references


def test_every_definition_has_a_reference():
    defined, references = _definitions_and_references()
    dead = sorted(f"{name} ({file}:{line})"
                  for name, sites in defined.items()
                  if not (name.startswith("__") and name.endswith("__"))
                  and name not in ALLOWED and not references.get(name)
                  for file, line in sites)
    assert not dead, "referenced by nothing in src/zcc: " + ", ".join(dead)


def test_allowlist_names_real_definitions():
    defined, _references = _definitions_and_references()
    assert not set(ALLOWED) - set(defined)
