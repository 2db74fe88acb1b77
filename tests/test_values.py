"""Value semantics of the classes that are compared, hashed or used as cache
keys: equal fields compare and hash equal, a plain tuple of the same fields
is never equal, fields cannot be reassigned, and copies are equal."""

import copy
import pickle

import pytest

from zcc.census import CensusSpec
from zcc.charpoly import ONE, CharPolynomial, parse_charpoly
from zcc.ffield import FieldSpec, make_field
from zcc.homology import BettiVector
from zcc.nlattice import LatticePartition

F3 = make_field(3)
X11 = parse_charpoly("X[1,1]")

# class, its fields, the fields of an unequal instance
CASES = [
    (FieldSpec, (3, 1, (0,)), (2, 2, (1, 1))),
    (CharPolynomial, (X11.m, X11.terms), (ONE.m, ONE.terms)),
    (LatticePartition, ((((1, 1), (1, 2)),),), ((((1, 1),), ((1, 2),)),)),
    (BettiVector, (0, (1, 2)), (1, (1, 2))),
    (CensusSpec, ((2,), 1, F3, X11, "unordered"), ((2,), 1, F3, X11, "burnside")),
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
