"""Every function, class and method in src/zcc is referenced from src/zcc.

Definitions are keyed by qualified name: `module.function`, `module.Class`,
`module.Class.method`, and `module.outer.inner` for a function defined in
another.  A definition counts as used when some reference in the package,
outside the definition's own body, resolves to its key:

* a bare name, to the innermost enclosing function that defines it, else to
  the module's own top-level definition, else through `from .m import name`;
* `module.name`, for a module bound by `from . import module`;
* `Class.name`, `self.name` in a method of Class, and `x.name` where x is a
  parameter annotated with a package class or a local assigned from a call of
  one or of a function whose return annotation names one, to the method of
  Class or of its nearest package base class that defines it;
* `x.name` on any other receiver, to the methods of that name of every
  package class, since its type is not known.

Tests do not count: a name only tests reach is API that no command calls.
Dunders are called by the interpreter and are exempt, and so is a method
that overrides one of a base class outside the package, which calls it.

Every name an import binds in src/zcc is used in the scope that imports it:
the module for a top-level import, else the function.
"""

import ast
import importlib
import pathlib

import zcc

SOURCE = pathlib.Path(zcc.__file__).resolve().parent

# qualified name -> why it stays without a caller in the package
ALLOWED = {
    # the representation-theory half of charpoly, reserved for a command that
    # reads multiplicities of irreducibles off the census
    "charpoly.decompose_into_irreducibles": "charpoly: representation stability",
    "charpoly.inner_product": "charpoly: representation stability",
    "charpoly.pad_partition": "charpoly: representation stability",
    "charpoly.free_module_character": "charpoly: representation stability",
    "charpoly.irreducible_dimension": "charpoly: representation stability",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.glob("*.py"))}


def _annotation_name(node):
    """The class name an annotation spells, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.partition("[")[0].strip()
    if isinstance(node, ast.Name):
        return node.id
    return None


def _definitions(modules):
    """(qualified name -> (file, line), class key -> {method: key},
    class key -> base class keys, module -> {bound name: key or module})."""
    defined, methods, bases, scope = {}, {}, {}, {}
    for module, tree in modules.items():
        bound = scope[module] = {}
        for node in tree.body:
            if isinstance(node, _DEFS):
                bound[node.name] = f"{module}.{node.name}"
        # imports inside functions too: a module imported late binds the same
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}" if node.module
                        else ("module", alias.name))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _DEFS):
                    key = f"{prefix}.{child.name}"
                    defined[key] = (f"{module}.py", child.lineno)
                    if isinstance(child, ast.ClassDef):
                        methods[key] = {item.name: f"{key}.{item.name}"
                                        for item in child.body if isinstance(item, _DEFS)}
                        bases[key] = [base.id for base in child.bases
                                      if isinstance(base, ast.Name)]
                    visit(child, key)
                else:
                    visit(child, prefix)

        visit(tree, module)
    # base names resolve in the module that defines the class
    for key, names in bases.items():
        module = key.partition(".")[0]
        bases[key] = [target for name in names
                      if isinstance(target := scope[module].get(name), str)
                      and target in methods]
    return defined, methods, bases, scope


def _own_nodes(function):
    """The nodes of a function's body, without the bodies of the functions
    and classes defined in it."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _DEFS):
            stack.extend(ast.iter_child_nodes(node))


def _method(key, name, methods, bases):
    """The key of `name` looked up on the class `key` and its package bases."""
    while key is not None:
        if name in methods[key]:
            return methods[key][name]
        key = next(iter(bases[key]), None)
    return None


def _references(modules, methods, bases, scope) -> dict:
    """Qualified name -> number of references outside its own body."""
    returns = {}  # function key -> the class key its return annotation names
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                target = scope[module].get(_annotation_name(node.returns) or "")
                if target in methods:
                    returns[f"{module}.{node.name}"] = target
    by_name = {}
    for key, names in methods.items():
        for name, method in names.items():
            by_name.setdefault(name, []).append(method)
    counts = {}

    def count(key, inside):
        if key is not None and key not in inside:
            counts[key] = counts.get(key, 0) + 1

    def resolve_class(module, name):
        target = scope[module].get(name)
        return target if target in methods else None

    def visit(node, module, key, klass, nested, types, inside):
        """`key` is the innermost definition's qualified name, `klass` the
        class whose method body this is, `nested` the inner function names
        visible -> their keys, `types` the receiver names -> class keys."""
        if isinstance(node, _DEFS):
            key = f"{key}.{node.name}"
            inside = inside | {key}
            if isinstance(node, ast.ClassDef):
                klass, nested, types = key, {}, {}
            else:
                types = dict(types)
                for arg in node.args.args + node.args.kwonlyargs:
                    cls = resolve_class(module, _annotation_name(arg.annotation) or "")
                    if cls:
                        types[arg.arg] = cls
                if klass is not None and node.args.args and key.count(".") == klass.count(".") + 1:
                    types[node.args.args[0].arg] = klass  # self or cls
                nested = dict(nested)
                for stmt in _own_nodes(node):
                    if isinstance(stmt, _DEFS):
                        nested[stmt.name] = f"{key}.{stmt.name}"
                    if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
                            and isinstance(stmt.value.func, ast.Name)):
                        callee = stmt.value.func.id
                        target = scope[module].get(callee)
                        cls = target if target in methods else returns.get(target)
                        for name in stmt.targets:
                            if cls and isinstance(name, ast.Name):
                                types[name.id] = cls
        elif isinstance(node, ast.Name):
            target = nested.get(node.id) or scope[module].get(node.id)
            if isinstance(target, str):
                count(target, inside)
        elif isinstance(node, ast.Attribute):
            receiver = node.value
            if isinstance(receiver, ast.Name):
                bound = scope[module].get(receiver.id)
                if isinstance(bound, tuple) and receiver.id not in types:
                    count(f"{bound[1]}.{node.attr}", inside)
                    return visit_children(node, module, key, klass, nested, types, inside)
                cls = types.get(receiver.id) or (bound if bound in methods else None)
                if cls is not None:
                    count(_method(cls, node.attr, methods, bases), inside)
                    return visit_children(node, module, key, klass, nested, types, inside)
            for method in by_name.get(node.attr, ()):
                count(method, inside)
        visit_children(node, module, key, klass, nested, types, inside)

    def visit_children(node, *context):
        for child in ast.iter_child_nodes(node):
            visit(child, *context)

    for module, tree in modules.items():
        visit_children(tree, module, module, None, {}, {}, frozenset())
    return counts


def _overrides_outside(key, methods) -> bool:
    """Whether `key` is a method overriding one of a base class from outside
    the package."""
    owner, _, name = key.rpartition(".")
    if owner not in methods:
        return False
    module, _, qualname = owner.partition(".")
    cls = importlib.import_module(f"zcc.{module}")
    for part in qualname.split("."):
        cls = getattr(cls, part)
    return any(hasattr(base, name) for base in cls.__mro__[1:]
               if not base.__module__.startswith("zcc."))


def _dead() -> list:
    modules = _modules()
    defined, methods, bases, scope = _definitions(modules)
    references = _references(modules, methods, bases, scope)
    return sorted(f"{key} ({file}:{line})" for key, (file, line) in defined.items()
                  if not ((name := key.rpartition(".")[2]).startswith("__")
                          and name.endswith("__"))
                  and key not in ALLOWED and not references.get(key)
                  and not _overrides_outside(key, methods))


def test_every_definition_has_a_reference():
    dead = _dead()
    assert not dead, "referenced by nothing in src/zcc: " + ", ".join(dead)


def test_allowlist_names_real_definitions():
    defined, _methods, _bases, _scope = _definitions(_modules())
    assert not set(ALLOWED) - set(defined)


def _names_used(scope) -> set:
    """The names read in scope, annotations written as strings included."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        # an argument or an annotated assignment has an annotation, a function
        # its return annotation
        annotation = getattr(node, "annotation", getattr(node, "returns", None))
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= _names_used(ast.parse(annotation.value, mode="eval"))
    return names


def _unused_imports(modules) -> list:
    unused = []
    for module, tree in modules.items():
        scopes = [tree] + [node for node in ast.walk(tree)
                           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            used = _names_used(scope)
            for node in _own_nodes(scope):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                        getattr(node, "module", None) != "__future__"):
                    unused += [f"{module}.py:{node.lineno} {name}" for name in (
                        alias.asname or alias.name.partition(".")[0]
                        for alias in node.names) if name not in used]
    return sorted(unused)


def test_every_import_is_used():
    unused = _unused_imports(_modules())
    assert not unused, "imported and never used: " + ", ".join(unused)


def test_unused_import_check_sees_code_and_annotations():
    tree = ast.parse(
        "import json\nfrom .a import b, c, d\nfrom .e import F, G\n"
        "def f(x: 'F') -> 'G':\n    from .g import h\n    return b(x)\n"
        "def g():\n    return c.attr\n")
    assert _unused_imports({"m": tree}) == ["m.py:1 json", "m.py:2 d", "m.py:5 h"]
