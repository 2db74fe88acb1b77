"""The record bases and the classes built on them.

Value semantics of the classes that are compared, hashed or used as cache
keys: equal fields compare and hash equal, a plain tuple of the same fields
is never equal, fields cannot be reassigned, and copies are equal.  Fields
are given by position or keyword.  No class outside zcc.record writes its own
value protocol or a constructor that only copies its parameters."""

import ast
import copy
import pathlib
import pickle

import pytest

import zcc
from zcc.charpoly import ONE, CharPolynomial, parse_charpoly
from zcc.ffield import FieldSpec
from zcc.guards import DEFAULT, UNSAFE, Guards
from zcc.record import Record, Value

SOURCE = pathlib.Path(zcc.__file__).resolve().parent

X11 = parse_charpoly("X[1,1]")

# class, its fields, the fields of an unequal instance
CASES = [
    (FieldSpec, (3, 1, (0,)), (2, 2, (1, 1))),
    (CharPolynomial, (X11.terms,), (ONE.terms,)),
    (Guards, DEFAULT.__reduce__()[1], UNSAFE.__reduce__()[1]),
]


@pytest.mark.parametrize("cls, fields, other", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, fields, other):
    a, b = cls(*fields), cls(*fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != cls(*other)
    assert a != fields and fields != a
    name = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    assert cls(*fields) == a  # the failed assignment left the instance as it was
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


class _Pair(Record):
    __slots__ = ("a", "b")


class _Point(Value):
    __slots__ = {"a": "abscissa", "b": "ordinate"}


@pytest.mark.parametrize("cls", [_Pair, _Point, FieldSpec])
def test_fields_by_position_or_keyword(cls):
    names = tuple(cls.__slots__)
    values = tuple(range(len(names)))
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(values[0], **dict(zip(names[1:], values[1:])))
    for obj in (by_position, by_keyword, mixed):
        assert tuple(getattr(obj, name) for name in names) == values


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}), ((), {"a": 1}), ((), {}),            # missing
    ((1, 2), {"c": 3}), ((1,), {"c": 2}),            # unknown
    ((1, 2), {"a": 1}), ((1,), {"a": 1, "b": 2}),    # repeated
    ((1, 2, 3), {}),                                 # too many
], ids=["missing-b", "missing-a", "missing-both", "unknown", "unknown-for-missing",
        "repeated", "repeated-with-both", "too-many"])
@pytest.mark.parametrize("cls", [_Pair, _Point])
def test_missing_unknown_or_repeated_field_raises(cls, args, kwargs):
    with pytest.raises(TypeError):
        cls(*args, **kwargs)


def test_record_is_assignable_and_compared_by_identity():
    a = _Pair(1, 2)
    a.b = 3
    assert a.b == 3
    assert a != _Pair(1, 3) and a == a
    assert _Point(1, 2) == _Point(b=2, a=1) != (1, 2)


_PROTOCOL = {"__eq__", "__hash__", "__setattr__", "__reduce__"}
_BASES = {("record.py", "Record"), ("record.py", "Value")}


def _only_copies_parameters(init: ast.FunctionDef) -> bool:
    """Whether every statement of the body is `self.x = x` or
    `object.__setattr__(self, "x", x)` for a parameter x."""
    params = [arg.arg for arg in init.args.posonlyargs + init.args.args
              + init.args.kwonlyargs]
    this, params = params[0], set(params[1:])

    def copies(stmt) -> bool:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
            return (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name) and target.value.id == this
                    and isinstance(value, ast.Name) and value.id == target.attr
                    and value.id in params)
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            return (ast.unparse(call.func) == "object.__setattr__"
                    and len(call.args) == 3
                    and ast.unparse(call.args[0]) == this
                    and isinstance(call.args[1], ast.Constant)
                    and isinstance(call.args[2], ast.Name)
                    and call.args[2].id == call.args[1].value
                    and call.args[2].id in params)
        return False

    return all(map(copies, init.body))


def _boilerplate(tree, filename) -> list:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or (filename, node.name) in _BASES:
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name in _PROTOCOL or (item.name == "__init__"
                                          and _only_copies_parameters(item)):
                found.append(f"{filename}:{item.lineno} {node.name}.{item.name}")
    return found


def test_no_class_repeats_what_the_bases_do():
    """Constructors that only copy their parameters, and the value protocol,
    live in zcc.record alone."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += _boilerplate(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert not found, "use zcc.record's Record or Value: " + ", ".join(found)


def test_boilerplate_check_sees_both_forms():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self, x, y):\n"
        "        self.x = x\n"
        "        object.__setattr__(self, 'y', y)\n"
        "class B:\n"
        "    def __init__(self, x):\n"
        "        self.x = x + 1\n"
        "class C:\n"
        "    def __hash__(self):\n"
        "        return 0\n")
    assert _boilerplate(tree, "m.py") == ["m.py:2 A.__init__", "m.py:9 C.__hash__"]
