import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from field_reference import convolution_mul_raw, decode, encode
from zcc.errors import ValidationError
from zcc.ffield import _canonical_modulus, is_prime, make_field, prime_power
from zcc.guards import UNSAFE

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (3, 4), (2, 4)]


def test_make_field_prime():
    F = make_field(3)
    assert (F.p, F.e, F.q) == (3, 1, 3)
    assert F.modulus == (0,)  # modulus x


def test_make_field_f4_canonical_modulus():
    F = make_field(2, 2)
    assert F.modulus == (1, 1)  # x^2 + x + 1, the unique choice


def test_make_field_rejects_composite():
    with pytest.raises(ValidationError, match="not prime"):
        make_field(4)


def test_make_field_size_guard():
    with pytest.raises(ValidationError, match="field too large"):
        make_field(2, 21)
    make_field(2, 21, size_guard=1 << 22)  # guard is a knob


def test_make_field_guard_runs_first():
    with pytest.raises(ValidationError, match="field too large"):
        make_field(10 ** 40 + 1)  # no trial division of a 40-digit p
    with pytest.raises(ValidationError, match="field too large"):
        make_field(3, 10 ** 9)  # no 3^(10^9)


def test_canonical_modulus_table_pinned():
    # every extension field with q <= 2^20 (242 of them); serialized elements
    # depend on these moduli, so the digest must never move
    table = [((p, e), _canonical_modulus(p, e))
             for p in range(2, 1 << 10) if is_prime(p)
             for e in range(2, 21) if p ** e <= 1 << 20]
    assert len(table) == 242
    digest = hashlib.sha256(repr(table).encode()).hexdigest()
    assert digest == "4fd123bd728a27195d2cf1120e4f4aa872f2d24b9c71b4aad00e2befdee379ad"


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(9) == (3, 2)
    assert prime_power(1 << 20) == (2, 20)
    assert prime_power(1048573) == (1048573, 1)  # largest prime below 2^20
    for q in (-4, 0, 1, 6, 12, (1 << 20) - 1):
        with pytest.raises(ValidationError, match="not a prime power"):
            prime_power(q)
    with pytest.raises(ValidationError, match="field too large"):
        prime_power(1000000000039)  # a prime: rejected before trial division
    assert prime_power(1 << 21, size_guard=UNSAFE.field) == (2, 21)
    with pytest.raises(ValidationError, match="field too large"):
        prime_power(1 << 21)


def test_make_field_deterministic():
    assert make_field(3, 2) == make_field(3, 2)


def test_enumerate_is_lex_and_complete():
    # the raw elements 0, ..., q-1 are every coordinate vector once, in lex
    # order read from the top coordinate down; encode inverts decode
    for p, e in SMALL_FIELDS:
        F = make_field(p, e)
        els = [decode(F, x) for x in range(F.q)]
        assert els[0] == (0,) * e
        assert sorted(els) == sorted(product(range(p), repeat=e))
        assert [x[::-1] for x in els] == sorted(x[::-1] for x in els)
        assert [encode(F, x) for x in els] == list(range(F.q))


def test_element_sum_pairs_to_zero():
    F = make_field(3, 2)
    total = 0
    for x in range(1, F.q):
        total = F.add_raw(total, x)
    assert total == 0


def test_spec_arithmetic_examples():
    F4 = make_field(2, 2)
    t = encode(F4, (0, 1))
    assert t == 2
    assert F4.mul_raw(t, F4.add_raw(t, 1)) == 1  # t(t+1) = t^2+t = 1
    assert F4.pow_raw(t, 4) == t
    F3 = make_field(3)
    assert F3.inv_raw(2) == 2
    assert F3.sub_raw(0, 1) == 2
    F9 = make_field(3, 2)
    assert decode(F9, encode(F9, (2, 1))) == (2, 1)
    assert F9.sub_raw(0, encode(F9, (2, 1))) == encode(F9, (1, 2))


def test_axioms_exhaustive_small_fields():
    # x * inv(x) = 1, x^q = x and x + (0 - x) = 0 for every element, q <= 81;
    # the ring axioms hold on every triple for q <= 9
    for p, e in SMALL_FIELDS:
        F = make_field(p, e)
        for x in range(F.q):
            assert F.pow_raw(x, F.q) == x
            assert F.add_raw(x, F.sub_raw(0, x)) == 0
            if x:
                assert F.mul_raw(x, F.inv_raw(x)) == 1
                assert F.pow_raw(x, -1) == F.inv_raw(x)
        if F.q <= 9:
            for triple in product(range(F.q), repeat=3):
                check_ring_axioms(F, *triple)


def test_inverse_of_zero():
    for F in (make_field(5), make_field(2, 2)):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            F.inv_raw(0)


@st.composite
def field_and_triples(draw):
    p, e = draw(st.sampled_from(SMALL_FIELDS))
    F = make_field(p, e)
    return F, draw(st.tuples(*(st.integers(0, F.q - 1) for _ in range(3))))


def check_ring_axioms(F, a, b, c):
    add, mul = F.add_raw, F.mul_raw
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert F.sub_raw(add(a, b), b) == a


@given(field_and_triples())
@settings(max_examples=120, deadline=None)
def test_ring_axioms_random_triples(data):
    F, triple = data
    check_ring_axioms(F, *triple)


@given(field_and_triples())
@settings(max_examples=60, deadline=None)
def test_frobenius_is_additive(data):
    F, (a, b, _c) = data

    def frob(x):
        return F.pow_raw(x, F.p)

    assert frob(F.add_raw(a, b)) == F.add_raw(frob(a), frob(b))
    assert frob(F.mul_raw(a, b)) == F.mul_raw(frob(a), frob(b))


# -- the packed multiplication kernel -------------------------------------------

EXTENSIONS = [(p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
              for e in range(2, 10) if p ** e <= 3 ** 6]


@pytest.mark.parametrize("p,e", EXTENSIONS, ids=lambda v: str(v))
def test_mul_raw_matches_the_convolution(p, e):
    # every pair up to q = 256 (unordered: the int product is commutative),
    # and above that a seeded sample of 4,000 pairs; every pair up to
    # 3^6 = 729 would cost about 7 s more
    F = make_field(p, e)
    q = F.q
    if q <= 256:
        pairs = [(a, b) for a in range(q) for b in range(a, q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(4000)]
    assert ([F.mul_raw(a, b) for a, b in pairs]
            == [convolution_mul_raw(F, a, b) for a, b in pairs])
