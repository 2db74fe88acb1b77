from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zcc import charpoly, stabkit
from zcc.census import enumerate_ordered
from zcc.charpoly import ONE, parse_charpoly
from zcc.errors import GuardError, InconsistencyError, ValidationError
from zcc.ffield import make_field
from zcc.nlattice import build_lattice, eval_int_poly, point_count_polynomial
from zcc.stabkit import (detect_stabilization, interpolate_in_q,
                         lefschetz_report, normalized_coefficients)

X11 = parse_charpoly("X[1,1]")


# -- interpolation -----------------------------------------------------------------


def test_interpolate_examples():
    p = interpolate_in_q([(2, 2), (3, 6), (5, 20)], expected_degree=2)
    assert p == (0, -1, 1)
    p = interpolate_in_q([(2, 1), (3, 1), (5, 1)], expected_degree=0)
    assert p == (1,)
    with pytest.raises(InconsistencyError, match="expected degree"):
        interpolate_in_q([(2, 2), (3, 6), (5, 21)], expected_degree=2)


def test_interpolate_zero_polynomial():
    p = interpolate_in_q([(2, 0), (3, 0), (5, 0)])
    assert p == (Fraction(0),) and isinstance(p[0], Fraction)
    assert eval_int_poly(p, 7) == 0 and isinstance(eval_int_poly(p, 7), Fraction)
    p = interpolate_in_q([(2, 2), (3, 6), (5, 20)], expected_degree=2)
    assert all(isinstance(c, Fraction) for c in p)
    assert eval_int_poly(p, Fraction(1, 2)) == Fraction(-1, 4)


def test_interpolate_validation():
    with pytest.raises(ValidationError, match="duplicate"):
        interpolate_in_q([(2, 2), (2, 3), (5, 4)], expected_degree=1)
    with pytest.raises(ValidationError):
        interpolate_in_q([(2, 2)], expected_degree=0)
    with pytest.raises(ValidationError, match="samples"):
        interpolate_in_q([(2, 2), (3, 6)], expected_degree=2)


def test_interpolate_overdetermined_path():
    good = interpolate_in_q([(2, 2), (3, 6), (5, 20), (7, 42)], expected_degree=2)
    assert good == (0, -1, 1)
    with pytest.raises(InconsistencyError):
        interpolate_in_q([(2, 2), (3, 6), (5, 20), (7, 43)], expected_degree=2)
    # non-monic polynomials are fine on the overdetermined path
    half = interpolate_in_q(
        [(q, Fraction(q ** 2, 2)) for q in (2, 3, 5, 7)], expected_degree=2)
    assert half == (0, 0, Fraction(1, 2))


def test_interpolate_monic_assumption_caught_when_wrong():
    # N = D+1 samples from a non-monic quadratic: slack sample must catch it
    with pytest.raises(InconsistencyError):
        interpolate_in_q([(q, 2 * q ** 2) for q in (2, 3, 5)], expected_degree=2)


def _lagrange(points) -> list:
    """Exact Lagrange interpolation, cubic in the number of points; returns
    low-to-high coefficients.  The reference for stabkit's interpolation."""
    coeffs = [Fraction(0)] * len(points)
    for i, (qi, vi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (qj, _vj) in enumerate(points):
            if j == i:
                continue
            # basis *= (x - qj)
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= qj * basis[k + 1]
            denom *= qi - qj
        scale = Fraction(vi) / denom
        for k, b in enumerate(basis):
            coeffs[k] += scale * b
    return coeffs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-30, 60),
                          st.fractions(-10 ** 6, 10 ** 6, max_denominator=50)),
                min_size=1, max_size=12, unique_by=lambda point: point[0]))
def test_newton_interpolation_equals_lagrange(points):
    got = stabkit._newton(points)
    assert got == _lagrange(points)
    assert all(isinstance(c, Fraction) for c in got)


def test_fitted_points_are_bounded_before_any_arithmetic(monkeypatch):
    def fail(*_args):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(stabkit, "_newton", fail)
    many = [(q, q) for q in range(stabkit.FIT_GUARD + 1)]
    message = f"^{stabkit.FIT_GUARD + 1} fitted points exceed guard {stabkit.FIT_GUARD}$"
    with pytest.raises(GuardError, match=message):
        interpolate_in_q(many)
    with pytest.raises(GuardError, match=message):
        interpolate_in_q(many, expected_degree=10 ** 9)
    # an expected degree fits only its first D + 1 points, and checks the rest
    monkeypatch.undo()
    line = interpolate_in_q(many, expected_degree=1)
    assert line == (0, 1)


def test_interpolate_without_expected_degree():
    p = interpolate_in_q([(2, 4), (3, 9), (5, 25)])
    assert p == (0, 0, 1)
    assert eval_int_poly(p, 7) == 49


def test_interpolation_reproduces_samples_and_is_stable_under_extra_prime():
    for dv, n in [((2,), 2), ((1, 1), 1), ((2, 1), 1)]:
        samples = []
        for q in (2, 3, 5, 7, 11):
            F = make_field(q)
            w = enumerate_ordered(dv, n, F)
            samples.append((q, w[0]))
        deg = sum(dv)
        base = interpolate_in_q(samples[:deg + 2], expected_degree=deg)
        more = interpolate_in_q(samples, expected_degree=deg)
        assert base == more
        for q, v in samples:
            assert eval_int_poly(base, q) == v


def test_interpolated_ordered_count_equals_lattice_polynomial():
    # n=1, m=2 identity between the census interpolant and the Mobius count
    primes = (2, 3, 5, 7, 11, 13)
    for dv in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
        deg = sum(dv)
        samples = []
        for q in primes[:deg + 2]:
            F = make_field(q)
            samples.append((q, enumerate_ordered(dv, 1, F)[0]))
        poly = interpolate_in_q(samples, expected_degree=deg)
        lattice_coeffs = point_count_polynomial(build_lattice(dv, 1))
        assert poly == tuple(
            Fraction(c) for c in lattice_coeffs)


# -- normalization and detection ------------------------------------------------------


def test_normalized_coefficients_examples():
    p = interpolate_in_q([(2, 2), (3, 6), (5, 20)], expected_degree=2)
    assert normalized_coefficients(p, 2) == (1, -1, 0)
    cubic = interpolate_in_q(
        [(q, q ** 3 - 3 * q ** 2 + 2 * q) for q in (2, 3, 5, 7)], expected_degree=3)
    assert normalized_coefficients(cubic, 3) == (1, -3, 2, 0)
    const = interpolate_in_q([(2, 1), (3, 1)], expected_degree=0)
    assert normalized_coefficients(const, 0) == (1,)
    with pytest.raises(ValidationError, match="dimension bound"):
        normalized_coefficients(cubic, 2)


def test_detect_stabilization_constant():
    stable_from, stable_values, onset = detect_stabilization(
        [(1, -1, 0), (1, -1, 0, 0, 0), (1, -1) + (0,) * 5])
    assert onset == 0
    assert stable_from == (0,) * 7  # the shorter vectors are zero-padded
    assert stable_values == (1, -1) + (0,) * 5


def test_detect_stabilization_flags_moving_tail():
    stable_from, stable_values, onset = detect_stabilization([(1, 1), (1, 2), (1, 3)])
    assert stable_from == (0, 2)  # position 1 starts its run at the last index
    assert stable_values == (1, 3)
    assert onset is None


def test_detect_stabilization_requires_two_vectors():
    with pytest.raises(ValidationError):
        detect_stabilization([(1, 2)])


# -- reports ----------------------------------------------------------------------


def test_report_rational_maps_p1():
    [rep] = lefschetz_report([1, 2, 3], 1, 2, [ONE], [2, 3, 5, 7, 11, 13, 17])
    assert rep["stabilization"]["onset_d"] == 1
    for pt in rep["points"]:
        assert pt["normalized"][:2] == ["1", "-1"]
        assert all(c == "0" for c in pt["normalized"][2:])
    # the spec's worked example: d=(1,1), q=3 gives LHS 6/9 = 2/3 and a
    # vanishing residual against 1 - 1/3
    assert rep["lhs"][0][0] == [1, 1]
    lhs_d1 = dict(rep["lhs"][0][1])
    assert lhs_d1[3] == "2/3"
    res_d1 = dict(rep["residuals"][0][1])
    assert res_d1[3] == "0"
    assert all(v == "0" for _q, v in rep["residuals"][-1][1])
    assert rep["series"]["coefficients"][:2] == [[0, "1"], [1, "-1"]]


def test_report_sums_over_no_class_of_the_symmetric_group(monkeypatch):
    # the q = 1 sample fixes the interpolant, so no average over S_d is taken
    def refuse(*_args):
        raise AssertionError("a sum over the classes of S_d")

    monkeypatch.setattr(charpoly, "cycle_types_of", refuse)
    for m, n, poly in ((2, 1, X11), (1, 1, ONE), (2, 2, parse_charpoly("2"))):
        [rep] = lefschetz_report([1, 2], n, m, [poly], [2, 3, 4, 5, 7])
        assert [pt["samples"][0][0] for pt in rep["points"]] == [2, 2]


def test_report_weighted_rational_maps():
    [rep] = lefschetz_report([1, 2, 3], 1, 2, [X11], [2, 3, 5, 7, 11, 13, 17])
    vec2 = rep["points"][1]["normalized"]
    vec3 = rep["points"][2]["normalized"]
    assert vec2[:3] == vec3[:3] == ["1", "-2", "2"]
    assert all(t <= 2 for t in rep["stabilization"]["stable_from_d"][:3])


def test_report_weighted_lhs_nonnegative_and_leading_constant():
    # the fixed-point statistic averages a nonnegative class function, so
    # every left side is >= 0; its stable leading coefficient is 1
    [rep] = lefschetz_report([1, 2, 3], 1, 2, [X11], [2, 3, 5, 7, 11, 13, 17])
    for _d, row in rep["lhs"]:
        assert all(Fraction(v) >= 0 for _q, v in row)
    assert 0 not in rep["stabilization"]["unstable_positions"]
    assert rep["stabilization"]["stable_values"][0] == "1"


def test_report_non_hyperplane_gate():
    [rep] = lefschetz_report([1, 2, 3], 2, 1, [ONE], [2, 3, 5, 7])
    assert "series" not in rep
    assert "residuals" not in rep
    assert "n" in rep["series_note"] and "not computed" in rep["series_note"]
    # UConf_1 is all of A^1 (vector (1, 0)); q^d - q^(d-1) holds from d = 2
    assert rep["stabilization"]["onset_d"] == 2


def test_report_validation():
    with pytest.raises(ValidationError, match="at least"):
        lefschetz_report([1], 1, 2, [ONE], [2, 3, 5])
    with pytest.raises(ValidationError, match="primes"):
        lefschetz_report([1, 3], 1, 2, [ONE], [2, 3, 5])
    with pytest.raises(ValidationError, match="column"):
        lefschetz_report([1, 2], 1, 1, [parse_charpoly("X[2,1]")], [2, 3, 5])


def test_report_refuses_negative_truncation():
    with pytest.raises(ValidationError, match="truncation"):
        lefschetz_report([1, 2], 1, 2, [ONE], [2, 3, 5, 7, 11], truncation=-1)


def test_report_json_round_trip():
    import json
    [rep] = lefschetz_report([1, 2], 1, 2, [ONE], [2, 3, 5, 7, 11])
    blob = json.dumps(rep, sort_keys=True)
    assert json.loads(blob)["stabilization"]["onset_d"] == 1
