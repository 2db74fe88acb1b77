from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from zcc.errors import ValidationError
from zcc.charpoly import (MAX_DEGREE, MAX_TERM_PRODUCTS, ONE, CharPolynomial,
                          all_partitions,
                          decompose_into_irreducibles, evaluate,
                          free_module_character, inner_product,
                          irreducible_character_value, irreducible_dimension,
                          pad_partition, parse_charpoly, partitions_of, z_of)

X11 = parse_charpoly("X[1,1]")
X12 = parse_charpoly("X[1,2]")
X21 = parse_charpoly("X[2,1]")


def test_parse_and_evaluate_examples():
    assert evaluate(X11, ((1, 1, 1),)) == 3
    assert evaluate(X12, ((2, 1, 1),)) == 1
    P = parse_charpoly("X[1,1]^2 - X[1,2]")
    assert evaluate(P, ((2, 1, 1),)) == 3
    two_term = parse_charpoly("X[1,1]*X[2,1] - 2")
    assert len(two_term.terms) == 2
    assert evaluate(two_term, ((1,), (1,))) == -1


def test_parse_print_parse_identity():
    for text in ("X[1,1]", "X[1,1]^2-X[1,2]", "2/3*X[2,4]+X[1,1]*X[1,2]-5",
                 "1", "0", "-X[1,1]+1/2"):
        P = parse_charpoly(text)
        assert parse_charpoly(str(P)) == P


def test_parse_errors_carry_position():
    with pytest.raises(ValidationError, match="position"):
        parse_charpoly("X[1,1] + ")
    with pytest.raises(ValidationError, match="position"):
        parse_charpoly("X[1 1]")
    # columns are checked against d by the census and the report, not here
    assert parse_charpoly("X[3,1]").columns_used() == {3}


def test_power_by_squaring_matches_repeated_product():
    P = parse_charpoly("X[1,1] - 2*X[1,2] + 1/3")
    acc = ONE
    for k in range(12):
        assert P ** k == acc
        acc = acc * P


def test_power_and_product_bounds():
    assert (X11 + 1) ** MAX_DEGREE == parse_charpoly(f"(X[1,1]+1)^{MAX_DEGREE}")
    for text in (f"(X[1,1]+1)^{MAX_DEGREE + 1}", "(X[1,1]^2)^51", "2^3000"):
        with pytest.raises(ValidationError, match="degree bound"):
            parse_charpoly(text)
    # 1001 and 1000 terms: one product over MAX_TERM_PRODUCTS = 10^6
    wide = sum((CharPolynomial.variable(1, j) for j in range(1, 1001)), ONE)
    tall = sum((CharPolynomial.variable(2, j) for j in range(1, 1001)),
               CharPolynomial.constant(0))
    assert len(wide.terms) * len(tall.terms) > MAX_TERM_PRODUCTS
    with pytest.raises(ValidationError, match="term products"):
        wide * tall


def test_evaluate_requires_columns():
    with pytest.raises(ValidationError, match="column"):
        evaluate(X21, ((2, 1),))


def test_partitions_of_examples():
    p3 = dict(partitions_of(3))
    assert p3 == {(1, 1, 1): 6, (2, 1): 2, (3,): 3}
    assert partitions_of(0) == [((), 1)]
    p4 = partitions_of(4)
    assert len(p4) == 5
    assert sum(factorial(4) // z for _lam, z in p4) == factorial(4)


def test_class_sizes_sum_to_group_order():
    for d in range(1, 8):
        assert sum(Fraction(1, z) for _lam, z in partitions_of(d)) == 1
        assert sum(factorial(d) // z for _lam, z in partitions_of(d)) == factorial(d)


def test_inner_product_examples():
    assert inner_product(X11, X11, (3,)) == 2
    for d in ((1,), (4,), (2, 3)):
        assert inner_product(ONE, ONE, d) == 1
    assert inner_product(X11, X21, (2, 2)) == 1


def test_inner_product_stable_value():
    for d in range(2, 9):
        assert inner_product(X11, X11, (d,)) == 2


def test_inner_product_factorizes_over_columns():
    P = X11 * X21
    for d in ((2, 2), (3, 2), (3, 3)):
        left = inner_product(P, P, d)
        right = (inner_product(X11, X11, (d[0],))
                 * inner_product(X11, X11, (d[1],)))
        assert left == right


def test_free_module_character_examples():
    assert free_module_character((1,)) == X11
    assert free_module_character((2,)) == parse_charpoly("X[1,1]^2-X[1,1]")
    assert free_module_character((1, 1)) == parse_charpoly("X[1,1]*X[2,1]")


def test_free_module_character_identity_values():
    for d in range(2, 9):
        identity = ((1,) * d,)
        assert evaluate(free_module_character((2,)), identity) == d * (d - 1)
    for a in ((3,), (2, 1)):
        fm = free_module_character(a)
        d = tuple(x + 2 for x in a)
        identity = tuple((1,) * dk for dk in d)
        expected = 1
        for ak, dk in zip(a, d):
            expected *= factorial(dk) // factorial(dk - ak)
        assert evaluate(fm, identity) == expected


def test_murnaghan_nakayama_examples():
    assert irreducible_character_value((2, 1), (1, 1, 1)) == 2
    assert irreducible_character_value((1, 1, 1), (2, 1)) == -1
    for d in range(1, 7):
        for mu, _z in partitions_of(d):
            assert irreducible_character_value((d,), mu) == 1
            # sign character = parity of d - number of parts
            sign = (-1) ** (d - len(mu))
            assert irreducible_character_value((1,) * d, mu) == sign
    with pytest.raises(ValidationError, match="size mismatch"):
        irreducible_character_value((2,), (1, 1, 1))


def test_character_table_orthogonality():
    # both orthogonality relations, exhaustively for d <= 5
    for d in range(1, 6):
        lams = all_partitions(d)
        table = {lam: {mu: irreducible_character_value(lam, mu)
                       for mu, _z in partitions_of(d)} for lam in lams}
        for l1 in lams:
            for l2 in lams:
                s = sum(Fraction(1, z) * table[l1][mu] * table[l2][mu]
                        for mu, z in partitions_of(d))
                assert s == (1 if l1 == l2 else 0)
        for mu1, z1 in partitions_of(d):
            for mu2, _z2 in partitions_of(d):
                s = sum(table[lam][mu1] * table[lam][mu2] for lam in lams)
                assert s == (z1 if mu1 == mu2 else 0)


def test_dimensions_via_hook_free_sum_of_squares():
    for d in range(1, 7):
        assert sum(irreducible_dimension(lam) ** 2
                   for lam in all_partitions(d)) == factorial(d)


def test_pad_partition():
    assert pad_partition((1,), 3) == (2, 1)
    assert pad_partition((), 5) == (5,)
    assert pad_partition((2, 1), 5) == (2, 2, 1)
    with pytest.raises(ValidationError, match="padding condition"):
        pad_partition((2, 1), 4)


def test_decompose_examples():
    assert decompose_into_irreducibles(X11, (3,)) == {
        ((3,),): 1, ((2, 1),): 1}
    for d in ((3,), (2, 2)):
        expected_key = tuple((dk,) for dk in d)
        assert decompose_into_irreducibles(ONE, d) == {expected_key: 1}
    dec = decompose_into_irreducibles(free_module_character((2,)), (3,))
    assert dec[((3,),)] == 1  # trivial multiplicity
    assert sum(mult * irreducible_dimension(lams[0])
               for lams, mult in dec.items()) == 6


def test_decompose_rational_statistic():
    dec = decompose_into_irreducibles(CharPolynomial.constant(Fraction(1, 2)), (2,))
    assert dec == {((2,),): Fraction(1, 2)}


@given(st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_partition_generation_consistent(d):
    parts = all_partitions(d)
    assert len(set(parts)) == len(parts)
    for lam in parts:
        assert sum(lam) == d
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
        assert z_of(lam) >= 1


@given(st.sampled_from([(2,), (3,), (2, 1), (1, 1), (4,)]),
       st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_evaluate_linear_in_coefficients(lam_shape, scale):
    P = parse_charpoly("X[1,1]^2-X[1,2]")
    scaled = CharPolynomial.constant(scale) * P
    c = (lam_shape,)
    assert evaluate(scaled, c) == scale * evaluate(P, c)
