"""Stabilization analysis of exact census families.

Weighted counts at several prime powers and at q = 1, read off the Euler
product (euler.py), are interpolated into exact polynomials in q, normalized
by the top dimension, and compared across the degree sweep.  One sample per statistic is recounted
through the record tables, and any disagreement is an error.
For the hyperplane case (n = 1, m = 2) the report also assembles the two
sides of the trace-formula identity: the left side is the normalized census
value; the right side is the truncated series sum c_i q^(-i) built from the
stable normalized coefficients (Frobenius acts on H^i by q^(-i) there).
Residuals are exact rationals and are never rounded.
"""

from __future__ import annotations

from fractions import Fraction

from .census import check_recount, coprime_pair_census, enumerate_unordered
from .charpoly import CharPolynomial
from .errors import GuardError, InconsistencyError, ValidationError
from .ffield import FieldSpec, make_field, prime_power
from .guards import DEFAULT, Guards
from .nlattice import eval_int_poly

# normalized_coefficients lists topdim + 1 coefficients
TOPDIM_GUARD = 10 ** 6
# interpolate_in_q fits at most this many points, never lifted: the fit takes
# a quadratic number of Fraction operations on ever longer rationals.  The
# largest report sweep the series guard admits fits m*t + 1 = 280 points
# (m = 1, t = 279, under --unsafe-guard).
FIT_GUARD = 512
# A report recounts, per statistic, the sample (t, q) with the most records
# q^t that is within this budget and the point guard.
RECOUNT_RECORDS = 1024

TAIL_NOTE = ("series tail beyond the computed truncation is controlled by the "
             "subexponential growth of the stable multiplicities together with "
             "the q^(-i/2) decay of Frobenius traces; it is a documented "
             "convergence guarantee, not a computed bound")


# ---------------------------------------------------------------------------
# Exact interpolation
# ---------------------------------------------------------------------------


def _newton(points) -> list:
    """Exact interpolation by Newton's divided differences, expanded by
    Horner's rule in the Newton basis; returns low-to-high coefficients."""
    xs = [q for q, _v in points]
    diffs = [Fraction(v) for _q, v in points]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - k])
    coeffs = []
    for x, c in zip(reversed(xs), reversed(diffs)):
        coeffs = [c] + coeffs  # coeffs * (q - x) + c
        for k in range(len(coeffs) - 1):
            coeffs[k] -= x * coeffs[k + 1]
    return coeffs


def _trim(coeffs) -> tuple:
    """The coefficients without trailing zeros; the zero polynomial is (0,)."""
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def interpolate_in_q(samples, expected_degree: int | None = None) -> tuple:
    """Interpolate exact census samples into a polynomial in q: its trimmed
    coefficients, Fractions, low to high.

    With N >= expected_degree + 2 samples: plain interpolation on the first
    D+1 (by increasing q), with every remaining sample checked exactly.
    With exactly N = D+1 samples the coefficient of q^D is taken to be 1
    (as for every unweighted point count: the top cell contributes
    q^topdim), leaving one slack sample as the consistency check.  With no
    expected degree every sample is fitted, and the fit is evaluated again
    at the last one, a witness of the fit itself.  Any violated check raises
    "not polynomial of expected degree" and the first sample that
    disagrees.  More than FIT_GUARD fitted points are refused before any
    arithmetic.
    """
    pts = [(int(q), Fraction(v)) for q, v in samples]
    if len({q for q, _v in pts}) != len(pts):
        raise ValidationError("duplicate q sample")
    if len(pts) < 2:
        raise ValidationError("need at least 2 samples")
    fitted = len(pts) if expected_degree is None else min(len(pts), expected_degree + 1)
    if fitted > FIT_GUARD:
        raise GuardError(f"{fitted} fitted points exceed guard {FIT_GUARD}")
    pts.sort()
    D = len(pts) - 1 if expected_degree is None else int(expected_degree)
    if D < 0:
        raise ValidationError("expected degree must be >= 0")
    if expected_degree is None:  # every sample is fitted; the last is checked again
        coeffs, check_pts = _trim(_newton(pts)), pts[-1:]
    elif len(pts) >= D + 2:
        fit_pts, check_pts = pts[:D + 1], pts[D + 1:]
        coeffs = _trim(_newton(fit_pts))
    elif len(pts) == D + 1:  # D >= 1, as there are at least 2 samples
        fit_pts = [(q, v - Fraction(q) ** D) for q, v in pts[:D]]
        coeffs = _trim(_newton(fit_pts) + [Fraction(1)])
        check_pts = pts[D:]
    else:
        raise ValidationError(
            f"need at least {D + 1} samples for expected degree {D}")
    for q, v in check_pts:
        if (value := eval_int_poly(coeffs, q)) != v:
            raise InconsistencyError(
                f"not polynomial of expected degree: the sample at q = {q} is {v}, "
                f"the fit gives {value}")
    return coeffs


def normalized_coefficients(coeffs: tuple, topdim: int) -> tuple:
    """(c_0, c_1, ..., c_topdim) with f(q) / q^topdim = sum c_i q^(-i), for f
    the polynomial with low-to-high coefficients `coeffs`, zero-padded; a
    negative topdim, or one above TOPDIM_GUARD, is refused before any is
    built."""
    if topdim < 0:
        raise ValidationError("topdim must be >= 0")
    if topdim > TOPDIM_GUARD:
        raise ValidationError(f"topdim {topdim} exceeds guard {TOPDIM_GUARD}")
    if len(coeffs) - 1 > topdim:
        raise ValidationError("count exceeds dimension bound")
    return (tuple(coeffs) + (Fraction(0),) * (topdim + 1 - len(coeffs)))[::-1]


# ---------------------------------------------------------------------------
# Stabilization detection
# ---------------------------------------------------------------------------


def detect_stabilization(vectors) -> tuple:
    """Per-coefficient stability of a sequence of normalized vectors:
    (stable_from, stable_values, onset).

    For each position the largest suffix on which the value is constant is
    found: stable_from is its start index, stable_values its value.  A
    position whose constant suffix has length 1 (stable_from the last index)
    never stabilized within the sweep.  The onset is the first index from
    which every position is constant, None if a position never stabilized.
    """
    vecs = [tuple(v) for v in vectors]
    if len(vecs) < 2:
        raise ValidationError("need at least 2 vectors")
    width = max(len(v) for v in vecs)
    vecs = [v + (Fraction(0),) * (width - len(v)) for v in vecs]
    last = len(vecs) - 1
    stable_from = []
    for i in range(width):
        start = last
        while start > 0 and vecs[start - 1][i] == vecs[last][i]:
            start -= 1
        stable_from.append(start)
    onset = None if last in stable_from else max(stable_from, default=0)
    return tuple(stable_from), vecs[last], onset


# ---------------------------------------------------------------------------
# The Lefschetz-side report
# ---------------------------------------------------------------------------


def _strs(values) -> list:
    return [str(v) for v in values]


def _pairs(rows) -> list:
    """[[q, "value"], ...] from ((q, value), ...)."""
    return [[q, str(v)] for q, v in rows]


def _census_total(d, n, field: FieldSpec, poly: CharPolynomial,
                  guards, factor_seed) -> tuple:
    single_column = len(poly.columns_used()) <= 1
    if n == 1 and len(d) == 2 and single_column:
        return coprime_pair_census(d, n, field, poly, guards, factor_seed)
    return enumerate_unordered(d, n, field, poly, guards, factor_seed)


def _recount(d_values, n: int, m: int, poly: CharPolynomial, q_list,
             totals: dict, guards: Guards, factor_seed: int) -> None:
    """Recount the sample with the most records within RECOUNT_RECORDS and
    the point guard through the record tables; raise if it disagrees with
    the Euler product's (total, point count) in `totals`.  Only that q gets
    a field; its degree t >= 1 keeps q within RECOUNT_RECORDS, and so within
    every field guard."""
    fits = [(q ** t, t, q) for t in set(d_values) if t >= 1 for q in q_list
            if q ** t <= RECOUNT_RECORDS and q ** (m * t) <= guards.points]
    if not fits:
        return
    _records, t, q = max(fits)
    check_recount((t,) * m, q, totals[t, q], _census_total(
        (t,) * m, n, make_field(*prime_power(q)), poly, guards, factor_seed))


def lefschetz_report(d_values, n: int, m: int, poly: CharPolynomial, q_list,
                     truncation: int | None = None,
                     guards: Guards = DEFAULT, factor_seed: int = 0) -> dict:
    """The report payload of the degree sweep d = (t,...,t), t in d_values,
    with every rational written as a string.

    Per degree: exact unordered totals at q = 1 and at each q of q_list from
    the Euler product (the series guard bounds its work, checked for every
    degree before the first sample), an interpolated polynomial (expected
    degree m*t, through m*t + 2 or more samples), and normalized
    coefficients.  Stabilization is detected coefficient-wise across the
    sweep.  For n = 1, m = 2 the truncated series with the stable
    coefficients is evaluated and exact residuals against each left side are
    reported under "series" and "residuals"; otherwise the series side is
    marked not computed and those keys are absent.  One sample
    is recounted through the record tables (`_recount`), within the point
    and record guards, with `factor_seed`.
    """
    # only report and --mode euler load the route
    from .euler import check_series_guard, euler_totals
    d_values = [int(t) for t in d_values]
    q_list = sorted({int(q) for q in q_list})
    if len(d_values) < 2:
        raise ValidationError("sweep needs at least 2 degree values")
    if len(set(d_values)) < 2:
        raise ValidationError("sweep needs at least 2 distinct degree values")
    if min(d_values) < 0:
        raise ValidationError("degree values must be >= 0")
    if m < 1:
        raise ValidationError("m must be >= 1")
    if n < 1:
        raise ValidationError("threshold n must be >= 1")
    if truncation is not None and truncation < 0:
        raise ValidationError("truncation must be >= 0")
    used = poly.columns_used()
    if used and max(used) > m:
        raise ValidationError(f"statistic uses column {max(used)} > m = {m}")

    for q in q_list:
        prime_power(q, guards.field)  # only the recounted q gets a field
    # checked for every t before any d = (t,) * m exists: with two distinct
    # t, some t >= 1 bounds m by the q_list's length
    for t in d_values:
        if len(q_list) < m * t + 1:
            raise ValidationError(
                f"degree {t} needs at least {m * t + 1} primes in q_list")
    # q = 1 is one more sample: there M_r(1) is the value of the necklace
    # polynomial, so the Euler product gives the census polynomial's value
    qs = (1, *q_list)
    for t in sorted(set(d_values)):
        check_series_guard((t,) * m, poly, qs, guards.series)

    points = []
    vectors = []
    lhs_rows = []  # per d: [(q, total / q^topdim), ...]
    totals = {}
    for t in d_values:
        topdim = m * t
        d = (t,) * m
        for q, result in zip(qs, euler_totals(d, n, poly, qs, guards.series)):
            totals[t, q] = result
        samples = [(q, totals[t, q][0]) for q in qs]
        coeffs = interpolate_in_q(samples, expected_degree=topdim)
        del samples[0]  # the report lists the q_list's samples only
        vectors.append(normalized_coefficients(coeffs, topdim))
        points.append({"d": list(d), "topdim": topdim, "samples": _pairs(samples),
                       "coefficients": _strs(coeffs), "normalized": _strs(vectors[-1])})
        lhs_rows.append([(q, total / Fraction(q) ** topdim) for q, total in samples])

    _recount(d_values, n, m, poly, q_list, totals, guards, factor_seed)
    stable_from, stable_values, onset = detect_stabilization(vectors)
    last = len(d_values) - 1
    report = {
        "m": m,
        "n": n,
        "poly": str(poly),
        "d_values": d_values,
        "q_list": q_list,
        "points": points,
        "stabilization": {
            "stable_from_d": [d_values[i] for i in stable_from],
            "stable_values": _strs(stable_values),
            "unstable_positions": [i for i, s in enumerate(stable_from) if s == last],
            "onset_d": None if onset is None else d_values[onset],
        },
        "lhs": [[pt["d"], _pairs(row)] for pt, row in zip(points, lhs_rows)],
        "series_note": "not computed (n≠1)" if n != 1 else "not computed (m≠2)",
        "tail_note": TAIL_NOTE,
    }
    if n == 1 and m == 2:
        top = m * max(d_values)
        T = top if truncation is None else min(int(truncation), top)
        stable = [(i, stable_values[i]) for i in range(T + 1) if stable_from[i] < last]
        partial = {q: sum((c / Fraction(q) ** i for i, c in stable), Fraction(0))
                   for q in q_list}
        report["series"] = {
            "truncation": T,
            "coefficients": _pairs(stable),
            "skipped_positions": [i for i in range(T + 1) if stable_from[i] == last],
            "partial_sums": _pairs(partial.items()),
        }
        report["residuals"] = [
            [pt["d"], [[q, str(lhs - partial[q])] for q, lhs in row]]
            for pt, row in zip(points, lhs_rows)]
        report["series_note"] = "computed (hyperplane case n=1, m=2)"
    return report
