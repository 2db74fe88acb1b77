import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from zcc.errors import ValidationError
from zcc.ffield import (UNSAFE_FIELD_GUARD, FieldElement, _canonical_modulus,
                        arith, enumerate_elements, format_element, is_prime,
                        make_field, parse_element, prime_power)

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
    assert prime_power(1 << 21, size_guard=UNSAFE_FIELD_GUARD) == (2, 21)
    with pytest.raises(ValidationError, match="field too large"):
        prime_power(1 << 21)


def test_make_field_deterministic():
    assert make_field(3, 2) == make_field(3, 2)


def test_enumerate_is_lex_and_complete():
    for p, e in SMALL_FIELDS:
        F = make_field(p, e)
        els = enumerate_elements(F)
        assert len(els) == F.q
        assert len({x.coeffs for x in els}) == F.q
        assert els[0].coeffs == (0,) * e
        assert [x.coeffs for x in els] == sorted(x.coeffs for x in els)


def test_element_sum_pairs_to_zero():
    F = make_field(3, 2)
    els = enumerate_elements(F)
    total = els[0]
    for x in els[1:]:
        total = total + x
    assert total.is_zero()


def test_spec_arithmetic_examples():
    F4 = make_field(2, 2)
    t = F4.element((0, 1))
    one = F4.one()
    assert (t * (t + one)) == one
    assert (t ** 4) == t
    F3 = make_field(3)
    two = F3.element((2,))
    assert two.inv() == two


def test_axioms_exhaustive_small_fields():
    # x * inv(x) = 1 and x^q = x for every element, q <= 81
    for p, e in SMALL_FIELDS:
        F = make_field(p, e)
        one = F.one()
        for x in enumerate_elements(F):
            assert x ** F.q == x
            if not x.is_zero():
                assert x * x.inv() == one


def test_inverse_of_zero():
    F = make_field(5)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        F.zero().inv()


def test_mixed_fields_rejected():
    a = make_field(3).one()
    b = make_field(5).one()
    with pytest.raises(ValidationError, match="mixed fields"):
        _ = a + b


def test_arith_dispatch():
    F = make_field(3)
    a, b = F.element((1,)), F.element((2,))
    assert arith(a, b, "add").is_zero()
    assert arith(b, b, "mul") == F.one()
    assert arith(b, None, "inv") == b
    assert arith(b, None, "pow", k=3) == b  # Frobenius is identity on F_p
    with pytest.raises(ValidationError):
        arith(a, b, "sub")


def test_text_round_trip():
    F9 = make_field(3, 2)
    x = parse_element(F9, "2,1")
    assert x.coeffs == (2, 1)
    assert format_element(x) == "2,1"
    assert parse_element(F9, format_element(x)) == x
    with pytest.raises(ValidationError):
        parse_element(F9, "3,1")


@st.composite
def field_and_triples(draw):
    p, e = draw(st.sampled_from(SMALL_FIELDS))
    F = make_field(p, e)
    raws = draw(st.tuples(*(st.integers(0, F.q - 1) for _ in range(3))))
    return F, [F.from_raw(r) for r in raws]


@given(field_and_triples())
@settings(max_examples=120, deadline=None)
def test_ring_axioms_random_triples(data):
    F, (a, b, c) = data
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(field_and_triples())
@settings(max_examples=60, deadline=None)
def test_frobenius_is_additive(data):
    F, (a, b, _c) = data
    assert (a + b) ** F.p == a ** F.p + b ** F.p
