import random
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from field_reference import schoolbook_mul
from zcc.errors import ValidationError
from zcc.ffield import make_field, packing
from zcc.guards import DEFAULT
from zcc.polyarith import (_gcd, _mul, _rem, _trim, factorize,
                           squarefree_decomposition)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)

# dense vectors, low-to-high: X1 = x + 1, and so on
X1 = [1, 1]
X2 = [2, 1]
X2_1 = [1, 0, 1]     # x^2 + 1, irreducible over F_3
X1_SQ = [1, 2, 1]    # (x + 1)^2 over F_3


def signature(factors):
    """The sorted (degree, multiplicity) pairs of a record's factors."""
    return tuple(sorted((key[0], m) for key, m in factors))


def expand(field, factors):
    """The monic dense vector of a factorization's records."""
    acc = [1]
    for (_j, coeffs), m in factors:
        for _ in range(m):
            acc = _mul(field, acc, list(coeffs) + [1])
    return acc


def test_gcd_examples():
    assert _gcd(F3, X1_SQ, [2, 0, 1]) == X1  # gcd((x+1)^2, x^2+2)
    for f in ([2, 1, 0, 1], X1, [1]):
        assert _gcd(F3, f, [1]) == [1]
    assert _gcd(F3, [2, 2], X1_SQ) == X1  # made monic
    assert _gcd(F3, [], []) == []


def test_mul_example():
    assert _mul(F3, X1, X2) == [2, 0, 1]  # (x+1)(x+2) = x^2+2
    assert _mul(F3, X1, []) == []


def test_rem_degenerate_divisor():
    # a constant divisor leaves no remainder, nor does an exact divisor; the
    # remainder is not normalized: x^2+1 = 2 mod x+1
    assert _rem(F3, X2_1, [1]) == []
    assert _rem(F3, X1_SQ, X1) == []
    assert _rem(F3, X2_1, X1) == [2]
    with pytest.raises(ZeroDivisionError):
        _rem(F3, X2_1, [])


def test_squarefree_decomposition_examples():
    f = _mul(F3, X1_SQ, X2)  # (x+1)^2 (x+2)
    assert squarefree_decomposition(F3, f) == [(X2, 1), (X1, 2)]
    assert squarefree_decomposition(F2, [0, 0, 0, 1]) == [([0, 1], 3)]
    assert squarefree_decomposition(F3, X2_1) == [(X2_1, 1)]
    with pytest.raises(ValidationError, match="degree >= 1"):
        squarefree_decomposition(F3, [1])


def test_squarefree_derivative_vanishing_case():
    # f = (x^2+1)^3 over F_3 has f' = 0
    cube = _mul(F3, _mul(F3, X2_1, X2_1), X2_1)
    assert squarefree_decomposition(F3, cube) == [(X2_1, 3)]


def test_factorize_examples():
    assert factorize(F2, (1, 1, 0, 0)) == (((4, (1, 1, 0, 0)), 1),)  # x^4+x+1
    mixed = _mul(F3, X2_1, X1_SQ)
    assert factorize(F3, mixed[:-1]) == (((1, (1,)), 2), ((2, (1, 0)), 1))
    assert factorize(F3, ()) == ()
    # F_4 = F_2[t]/(t^2+t+1), t encoded 2: x^2+x+1 = (x+t)(x+t+1)
    assert factorize(F4, (1, 1)) == (((1, (2,)), 1), ((1, (3,)), 1))


def test_factorize_deterministic_and_seed_invariant():
    f = _mul(F5, _mul(F5, [2, 0, 1], [3, 0, 1]), [1, 1])
    base = factorize(F5, f[:-1])
    assert len(base) == 3
    assert factorize(F5, f[:-1]) == base
    assert factorize(F5, tuple(f[:-1]), seed=12345) == base


def test_factorize_round_trip_exhaustive():
    for F, maxdeg in ((F2, 5), (F3, 5), (F4, 3)):
        for deg in range(0, maxdeg + 1):
            for coeffs in product(range(F.q), repeat=deg):
                factors = factorize(F, coeffs)
                assert expand(F, factors) == list(coeffs) + [1]
                assert all(m >= 1 for _key, m in factors)
                assert sum(j * m for (j, _c), m in factors) == deg


def test_squarefree_split_count_matches_binomial():
    # squarefree totally split monic polynomials of degree d number C(q, d)
    for F in (F2, F3, F5):
        for d in range(1, 4):
            count = 0
            for coeffs in product(range(F.q), repeat=d):
                if all(m == 1 and j == 1 for (j, _c), m in factorize(F, coeffs)):
                    count += 1
            assert count == comb(F.q, d)


def test_cycle_type_examples():
    # Frobenius permutes the roots with one j-cycle per root of a degree-j
    # factor; a record's signature lists those (j, multiplicity) pairs
    mixed = _mul(F3, X2_1, X1_SQ)
    assert signature(factorize(F3, mixed[:-1])) == ((1, 2), (2, 1))  # (2, 1, 1)
    assert signature(factorize(F2, (1, 1, 0, 0))) == ((4, 1),)
    split = _mul(F3, _mul(F3, [0, 1], X1), X2)
    assert signature(factorize(F3, split[:-1])) == ((1, 1), (1, 1), (1, 1))


def test_cycle_type_sums_to_degree():
    for coeffs in product(range(2), repeat=6):
        assert sum(j * m for j, m in signature(factorize(F2, coeffs))) == 6


@given(st.lists(st.integers(0, 4), min_size=0, max_size=6))
@settings(max_examples=100, deadline=None)
def test_factorize_round_trip_random_f5(coeffs):
    factors = factorize(F5, coeffs)
    assert expand(F5, factors) == coeffs + [1]
    # factors are pairwise distinct and individually of degree >= 1
    keys = [key for key, _m in factors]
    assert len(set(keys)) == len(keys)
    assert all(j >= 1 and len(c) == j for j, c in keys)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=4),
       st.lists(st.integers(0, 2), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(c1, c2):
    f, g = c1 + [1], c2 + [1]
    h = _gcd(F3, f, g)
    assert h[-1] == 1
    assert _rem(F3, f, h) == []
    assert _rem(F3, g, h) == []


# -- the packed product against the schoolbook one ------------------------------

F8 = make_field(2, 3)
F9 = make_field(3, 2)


@pytest.mark.parametrize("field", [F2, F5, F4, F8, F9], ids=lambda F: f"F{F.q}")
def test_mul_matches_schoolbook(field):
    rng = random.Random(field.q)
    for _ in range(300):
        a = [rng.randrange(field.q) for _ in range(rng.randrange(0, 12))]
        b = [rng.randrange(field.q) for _ in range(rng.randrange(0, 12))]
        a, b = _trim(a), _trim(b)
        assert _mul(field, a, b) == schoolbook_mul(field, a, b)


@pytest.mark.parametrize("field", [F2, F5, F4, F8, F9], ids=lambda F: f"F{F.q}")
def test_mul_fills_its_lanes_exactly(field):
    # every digit p - 1: the middle lanes of the product reach the bound
    # min(len) * e * (p - 1)^2 itself, so a lane one bit narrower carries
    top = field.q - 1
    for n in range(1, 20):
        a, b = [top] * n, [top] * (n + 3)
        assert _mul(field, a, b) == schoolbook_mul(field, a, b)


@pytest.mark.parametrize("field", [F2, make_field(3), F4, F8, F9], ids=lambda F: f"F{F.q}")
def test_record_walk_lanes_never_carry(field):
    # the census walk's packing at the largest degree the record guard admits,
    # on the product of d linear factors whose lifted digits are all p - 1
    q = field.q
    d = max(k for k in range(1, 40) if q ** k <= DEFAULT.records)
    kernel = packing(field.p, field.modulus, d, d * (field.e - 1) + 1, q ** d)
    linear = [q - 1, 1]
    packed, expected = kernel.lift([1]), [1]
    for _ in range(d):
        packed *= kernel.lift(linear)
        expected = schoolbook_mul(field, expected, linear)
    slot = 0  # the coefficients as base-q digits, the constant most significant
    for c in expected[:-1]:
        slot = slot * q + c
    assert kernel.read(packed) == slot
