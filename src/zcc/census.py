"""Exact weighted point counts of 0-cycle spaces over F_q.

Three routes are provided here and must agree: enumerate_unordered walks the
monic polynomials of each degree, tallied per tuple of per-column factor
signatures; enumerate_ordered walks each column's multisets of values, each
weighed by its number of orderings, and counts the ordered space (it takes
no statistic), which `verify` checks against the lattice point-count
polynomial; burnside_count averages Frobenius-twisted fixed-point counts
over the conjugacy classes of S_d, tallying a j-cycle's choices by their
minimal polynomials, the irreducibles of degree dividing j.  The
fourth, euler.py, reads the unordered census off an Euler product over the
irreducibles and needs only their numbers M_j(q).

Membership factors over the columns: a tuple is excluded exactly when some
geometric point has multiplicity >= n in every coordinate.  So each route
tabulates every column by its n-fold key set (irreducible factors, values or
minimal polynomials) and counts the members with one column fold, `_fold`;
no route walks the q^|d| tuples of the whole space.  The tables carry no
statistic: P is applied afterwards, once per signature tuple (unordered and
coprime routes) or once per class (Burnside), as a dot product with the
counts.  Every route runs in the calling process: the fold is a small share
of a census next to building the record tables, so there is no worker pool.

Weighting note: a point whose divisor has a repeated irreducible factor has a
nontrivial stabilizer H, and the statistic's value there is the average of P
over the coset sigma_y H.  Concretely, each factor of degree j appearing e
times contributes parts j*lambda where lambda runs over partitions of e with
the 1/z_lambda class measure, independently across factors and columns; for
squarefree coordinates this collapses to evaluating P at the plain cycle
type.  burnside_count never uses this reduction: it evaluates P at the
class itself, so the agreement of the two routes is a genuine cross-check.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, compress, product
from math import comb, factorial, prod

from .charpoly import CharPolynomial, cycle_types_of, evaluate, partitions_of
from .errors import GuardError, InconsistencyError, ValidationError
from .ffield import FieldSpec, make_field, packing
from .guards import DEFAULT, Guards
from .polyarith import factorize

BURNSIDE_DEGREE_GUARD = 8
_EMPTY = frozenset()


# ---------------------------------------------------------------------------
# Precomputed per-degree polynomial records
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def necklace_count(q: int, j: int) -> int:
    """M_j(q), the number of monic irreducibles of degree j >= 1 over F_q.

    Gauss's formula q^j = sum_{e | j} e M_e(q), solved for M_j; this is the
    Moebius inversion (1/j) sum_{e | j} mu(j/e) q^e.
    """
    return (q ** j - sum(e * necklace_count(q, e)
                         for e in range(1, j) if j % e == 0)) // j


def _factored_monics(field: FieldSpec, degree: int, irreducibles: tuple):
    """Every product of the given irreducible keys of the given total degree.

    `irreducibles` holds (degree, coeffs) keys in increasing order.  Yields
    (slot, factors, signature): the product's slot in product(range(q),
    repeat=degree) order, its ascending ((degree, coeffs), multiplicity)
    factors and their sorted (degree, multiplicity) pairs.  Each multiset is
    walked once, its product one int multiplication of its prefix's, packed
    and never reduced until its slot is read.

    The packed lanes never carry: a product of monic factors f_i of total
    degree d, lifted to Z[x, a], has every coefficient at most
    prod f_i(1, 1), and f(1, 1) <= 1 + j e (p - 1) <= q^j for f of degree j,
    so every lane is at most q^d.  Its a-degree is at most d (e - 1).
    """
    if not degree:
        yield 0, (), ()  # the empty product, 1
        return
    kernel = packing(field.p, field.modulus, degree,
                     degree * (field.e - 1) + 1, field.q ** degree)
    read = kernel.read
    lifted = [kernel.lift(coeffs + (1,)) for _j, coeffs in irreducibles]
    degrees = [j for j, _coeffs in irreducibles]
    # the multisets still to extend: (first key they may take, degree left,
    # packed product, factors, signature)
    stack = [(0, degree, kernel.lift((1,)), (), ())]
    shared = {}  # one object per distinct signature
    while stack:
        start, left, packed, factors, signature = stack.pop()
        # the products that end in one key of the degree left share a signature
        last = _grown(signature, (left, 1))
        last = shared.setdefault(last, last)
        for i in range(max(start, bisect_left(degrees, left)),
                       bisect_left(degrees, left + 1)):
            yield read(packed * lifted[i]), factors + ((irreducibles[i], 1),), last
        # the others take a key of degree j <= left / 2: m >= 2 copies of it
        # end them, and fewer leave room for the keys after it (degree >= j)
        for i in range(start, len(irreducibles)):
            j = degrees[i]
            if 2 * j > left:
                break
            power = packed
            for m in range(1, left // j + 1):
                power *= lifted[i]
                grown = _grown(signature, (j, m))
                grown = shared.setdefault(grown, grown)
                if left == m * j:
                    yield read(power), factors + ((irreducibles[i], m),), grown
                elif left - m * j >= j:
                    stack.append((i + 1, left - m * j, power,
                                  factors + ((irreducibles[i], m),), grown))


def _grown(signature: tuple, pair: tuple) -> tuple:
    """The signature with one more (degree, multiplicity) pair, whose degree
    is at least that of every pair in it: only a pair of the same degree and
    a higher multiplicity can sort after it."""
    if signature and signature[-1] > pair:
        return tuple(sorted(signature + (pair,)))
    return signature + (pair,)


@lru_cache(maxsize=None)
def _factor_table(field: FieldSpec, degree: int) -> tuple:
    """(records, signatures) of every monic polynomial of the given degree,
    in product(range(q), repeat=degree) order: its sorted ((degree, coeffs),
    multiplicity) factors and their sorted (degree, multiplicity) pairs,
    built as the products of the irreducibles of lower degree; the slots left
    over are this degree's irreducibles, each its own factor.

    Checked: no two products coincide, and M_degree(q) slots are left over.
    """
    q = field.q
    lower = tuple(key for j in range(1, degree) for key in _irreducibles(field, j))
    table = [None] * q ** degree
    signatures = [((degree, 1),)] * q ** degree
    for slot, factors, signature in _factored_monics(field, degree, lower):
        if table[slot] is not None:
            raise InconsistencyError(
                f"two factorizations give the monic polynomial in slot {slot}")
        table[slot] = factors
        signatures[slot] = signature
    found = table.count(None)
    expected = necklace_count(q, degree) if degree else 0  # 1 is a unit
    if found != expected:
        raise InconsistencyError(
            f"found {found} irreducibles of degree {degree} over F_{q}, "
            f"not M_{degree}(q) = {expected}")
    records = tuple((((degree, coeffs), 1),) if factors is None else factors
                    for factors, coeffs in zip(table, product(range(q), repeat=degree)))
    return records, tuple(signatures)


def _slot_coeffs(slot: int, q: int, degree: int) -> tuple:
    """The non-leading coefficients of the monic polynomial in a table slot:
    its base-q digits, the constant term the most significant."""
    return tuple(slot // q ** i % q for i in reversed(range(degree)))


@lru_cache(maxsize=None)
def _irreducibles(field: FieldSpec, degree: int) -> tuple:
    """The monic irreducibles of the given degree >= 1 as ascending (degree,
    coeffs) keys: the factor-table slots whose factor has the full degree."""
    return tuple(factors[0][0] for factors in _factor_table(field, degree)[0]
                 if factors[0][0][0] == degree)


def _check_point_guard(q: int, size: int, guard: int, hint: str = "") -> None:
    """Refuse q^size > guard points; a size as long as guard's bit length is
    refused outright (q >= 2), and its power is never formed."""
    if size >= guard.bit_length() or q ** size > guard:
        power = f"{q}^{size}" if size >= guard.bit_length() else q ** size
        raise GuardError(f"q^|d| = {power} exceeds guard {guard}{hint}")


def _check_record_guard(field: FieldSpec, degrees, guard: int) -> None:
    """Refuse, before any record is built, record tables for the given
    degrees (one table per distinct degree) holding more than `guard`
    records in all."""
    if max(degrees) >= guard.bit_length():  # as in _check_point_guard
        records = f"at least {field.q}^{max(degrees)}"
    elif (records := sum(field.q ** dk for dk in set(degrees))) <= guard:
        return
    raise GuardError(f"{records} polynomial records exceed guard {guard}")


def _spot_slot(seed: int, size: int) -> int:
    """The record of a table of `size` that poly_records checks by factoring."""
    return random.Random(seed).randrange(size)


@lru_cache(maxsize=None)
def poly_records(field: FieldSpec, degree: int, seed: int = 0) -> tuple:
    """(records, signatures) of every monic polynomial of the given degree:
    the factor table, built once per (field, degree) by multiplying out the
    multisets of irreducibles, not by factoring, and the same object for
    every seed.

    Run-time checks: no two products coincide, each degree j has M_j(q)
    irreducibles (so every polynomial gets exactly one record), and the
    record that `seed` picks equals its factorization by `factorize`.  The
    seed never changes the table, only which record is checked.
    """
    table = _factor_table(field, degree)
    slot = _spot_slot(seed, len(table[0]))
    coeffs = _slot_coeffs(slot, field.q, degree)
    if factorize(field, coeffs, seed=seed) != table[0][slot]:
        raise InconsistencyError(
            f"record of the monic polynomial with coefficients {coeffs} "
            f"disagrees with its factorization")
    return table


# ---------------------------------------------------------------------------
# Coset-averaged statistic values
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def averaged_class_value(P: CharPolynomial, signatures: tuple) -> Fraction:
    """Average of P over the Frobenius coset of a point with these per-column
    factor signatures (each signature is a tuple of (degree, multiplicity))."""
    # per factor: (column, the (parts, weight) options of its e-fold power)
    slots = [(k, [(tuple(j * part for part in lam), Fraction(1, z))
                  for lam, z in partitions_of(e)])
             for k, sig in enumerate(signatures) for j, e in sig]
    total = Fraction(0)
    for combo in product(*(opts for _k, opts in slots)):
        cols = [[] for _ in signatures]
        w = Fraction(1)
        for (k, _opts), (parts, weight) in zip(slots, combo):
            cols[k].extend(parts)
            w *= weight
        ctype = tuple(tuple(sorted(col, reverse=True)) for col in cols)
        total += w * evaluate(P, ctype)
    return total


# ---------------------------------------------------------------------------
# Unordered census (monic polynomial tuples)
# ---------------------------------------------------------------------------


def _column_groups(records, signatures, n: int) -> dict:
    """The records grouped by signature, then by n-fold radical set:
    signature -> {radical set: multiplicity}.  The records of a signature
    whose top multiplicity is below n all have the empty radical set, so
    only the others are read."""
    groups = {}
    tall = set()  # the signatures with a multiplicity >= n
    for signature, count in Counter(signatures).items():
        if max((m for _j, m in signature), default=0) < n:
            groups[signature] = Counter({_EMPTY: count})
        else:
            groups[signature] = Counter()
            tall.add(signature)
    for factors, signature in compress(zip(records, signatures),
                                       map(tall.__contains__, signatures)):
        groups[signature][frozenset(key for key, m in factors if m >= n)] += 1
    return groups


def _point_index(keys) -> dict:
    """Point -> the (key set, multiplicity) pairs of the key sets holding it,
    for one column label's Counter(key set -> multiplicity)."""
    index: dict = {}
    for key, mult in keys.items():
        for point in key:
            index.setdefault(point, []).append((key, mult))
    return index


def _fold(columns) -> Counter:
    """Label tuple -> number of member tuples, for columns given as {label:
    Counter(key set -> multiplicity)}; a tuple takes one key set per column
    and is a member when its key sets have an empty intersection.

    The columns are folded in one at a time.  A state maps the labels so far
    to {key set they have in common: tuple count}.  Each label's key sets are
    indexed by point, so a common set meets only the key sets that share a
    point with it; the rest, the column total less those, are disjoint from
    it.  An intersection is only built when a later column still needs it.
    Checked: each index holds every key set once per point, and the members
    and the tuples dropped in the last column make up every tuple.
    """
    state = {(label,): keys for label, keys in columns[0].items()}
    dropped = 0
    if len(columns) == 1:  # never folded: its nonempty key sets are the drops
        dropped = sum(c for keys in state.values() for key, c in keys.items() if key)
    for k in range(1, len(columns)):
        last = k == len(columns) - 1
        tables = {}  # label -> (number of choices, point index)
        for label, keys in columns[k].items():
            index = _point_index(keys)
            if sum(map(len, index.values())) != sum(map(len, keys)):
                raise InconsistencyError(
                    f"point index of column {k} misses key sets")
            tables[label] = (sum(keys.values()), index)
        folded = {}
        for labels, commons in state.items():
            for label, (choices, index) in tables.items():
                out = folded[labels + (label,)] = Counter()
                for common, count in commons.items():
                    hits = {key: mult for point in common
                            for key, mult in index.get(point, ())}
                    blocked = sum(hits.values())
                    if last:
                        dropped += count * blocked
                    else:
                        for key, mult in hits.items():
                            out[common & key] += count * mult
                    if choices > blocked:
                        out[_EMPTY] += count * (choices - blocked)
        state = folded
    members = Counter({labels: commons[_EMPTY] for labels, commons in state.items()
                       if commons.get(_EMPTY)})
    tuples = prod(sum(sum(keys.values()) for keys in column.values()) for column in columns)
    if (kept := sum(members.values())) + dropped != tuples:
        raise InconsistencyError(
            f"column fold kept {kept} members and dropped {dropped} of {tuples} tuples")
    return members


def _member_histogram(field, d, n, seed=0) -> Counter:
    """Per-column signature tuple -> number of member tuples; columns of
    equal degree share one grouping of their record table."""
    groups = {dk: _column_groups(*poly_records(field, dk, seed), n) for dk in set(d)}
    return _fold([groups[dk] for dk in d])


def _weigh(P: CharPolynomial, histogram) -> tuple:
    """(exact sum of P over the members, member count) of a histogram of
    per-column signature tuples: P is applied once per signature tuple."""
    total = sum((c * averaged_class_value(P, sigs) for sigs, c in histogram.items()),
                Fraction(0))
    return total, sum(histogram.values())


def enumerate_unordered(d: tuple, n: int, field: FieldSpec, poly: CharPolynomial,
                        guards: Guards = DEFAULT, factor_seed: int = 0) -> tuple:
    """(total, point count) over all m-tuples of monic polynomials of
    degrees d over F_q; the inputs are taken as validated (run_census)."""
    _check_point_guard(field.q, sum(d), guards.points, "; try burnside mode")
    _check_record_guard(field, d, guards.records)
    return _weigh(poly, _member_histogram(field, d, n, factor_seed))


# ---------------------------------------------------------------------------
# Ordered census (multisets of values per column)
# ---------------------------------------------------------------------------


def enumerate_ordered(d: tuple, n: int, field: FieldSpec,
                      guards: Guards = DEFAULT) -> tuple:
    """(total, point count) of the ordered space's F_q-points, unweighted,
    so the total is the count; the inputs are taken as validated
    (run_census), and its walk is held to the record guard."""
    _check_point_guard(field.q, sum(d), guards.points)
    q = field.q
    if (walk := sum(comb(q + dk - 1, dk) for dk in d)) > guards.records:
        raise GuardError(f"{walk} column multisets exceed guard {guards.records}")
    columns = []
    for dk in d:
        # tally a column's multisets of values, each weighed by its number of
        # orderings dk! / prod c_v!, by n-fold value set
        column = Counter()
        for values in combinations_with_replacement(range(q), dk):
            counts = {v: values.count(v) for v in set(values)}
            orderings = factorial(dk) // prod(map(factorial, counts.values()))
            column[frozenset(v for v, c in counts.items() if c >= n)] += orderings
        columns.append({None: column})
    count = sum(_fold(columns).values())
    return Fraction(count), count


# ---------------------------------------------------------------------------
# Burnside-Frobenius census
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _twisted_choice_table(base: FieldSpec, j: int) -> tuple:
    """The choices of one j-cycle, an element x of F_{q^j}, tallied by x's
    minimal polynomial over F_q: (key, multiplicity j/e, count e) for every
    monic irreducible key of degree e dividing j, as it has e roots there.

    Checked: the counts make up all q^j elements (Gauss's identity).
    """
    table = tuple((key, j // e, e) for e in range(1, j + 1) if j % e == 0
                  for key in _irreducibles(base, e))
    if (total := sum(count for _key, _mult, count in table)) != base.q ** j:
        raise InconsistencyError(f"{total} choices for a {j}-cycle over F_{base.q}, not q^{j}")
    return table


@lru_cache(maxsize=None)
def _twisted_column(field: FieldSpec, lam: tuple, n: int) -> Counter:
    """Key set -> number of choices, for one column whose coordinates a
    permutation of cycle type lam permutes: the choices take one element of
    F_{q^j} per j-cycle, and the key set holds the minimal polynomials of
    multiplicity >= n in the divisor the choice defines, each tuple of
    table entries weighted by the product of their counts.

    Checked: the choices make up all q^|lam| of them.
    """
    column = Counter()
    for choice in product(*(_twisted_choice_table(field, j) for j in lam)):
        mults: dict = {}
        ways = 1
        for key, mult, count in choice:
            mults[key] = mults.get(key, 0) + mult
            ways *= count
        column[frozenset(key for key, c in mults.items() if c >= n)] += ways
    if (total := sum(column.values())) != field.q ** sum(lam):
        raise InconsistencyError(
            f"{total} choices for a column of cycle type {lam} over F_{field.q}, "
            f"not q^{sum(lam)}")
    return column


@lru_cache(maxsize=None)
def _burnside_fixed(field: FieldSpec, d: tuple, n: int) -> tuple:
    """(cycle type, 1/z, fixed member count) per conjugacy class sigma of
    S_d1 x ... x S_dm, the count taken over the tuples fixed by sigma o Frob_q.

    Those tuples are parameterized by one free element of F_{q^j} per
    j-cycle; the cycle's coordinates carry the element's Frobenius iterates,
    so its orbit contributes multiplicity j/deg(x) at each root of its
    minimal polynomial.  Membership is tested on that divisor data, column
    by column: a class's column k depends only on its cycle type there.
    """
    return tuple((ctype, weight, sum(_fold([{None: _twisted_column(field, lam, n)}
                                            for lam in ctype]).values()))
                 for ctype, weight in cycle_types_of(d))


def burnside_count(d: tuple, n: int, field: FieldSpec, poly: CharPolynomial,
                   guards: Guards = DEFAULT) -> tuple:
    """(total, point count) via Frobenius-twisted fixed points, class by
    class; the inputs are taken as validated (run_census).

    A j-cycle's choices come from the record tables of the unordered route
    (degrees up to max(d)), so the record guard is checked before any is
    built.  The fixed-point table carries no statistic; the statistic is
    evaluated at each class's cycle type and paired with it.
    """
    total_deg = sum(d)
    if total_deg > BURNSIDE_DEGREE_GUARD:
        raise GuardError(
            f"|d| = {total_deg} exceeds burnside guard {BURNSIDE_DEGREE_GUARD}")
    _check_point_guard(field.q, total_deg, guards.points)
    _check_record_guard(field, d, guards.records)
    classes = _burnside_fixed(field, tuple(d), n)
    count = sum((w * fixed for _ctype, w, fixed in classes), Fraction(0))
    total = sum((w * evaluate(poly, ctype) * fixed
                 for ctype, w, fixed in classes), Fraction(0))
    if count.denominator != 1:
        raise InconsistencyError("burnside point count is not an integer")
    return total, int(count)


# ---------------------------------------------------------------------------
# Fast exact path for the rational-maps sweep (n = 1, m = 2)
# ---------------------------------------------------------------------------


def coprime_pair_census(d: tuple, n: int, field: FieldSpec, poly: CharPolynomial,
                        guards: Guards = DEFAULT, factor_seed: int = 0) -> tuple:
    """(total, point count) of the unordered census for m = 2, n = 1 with a
    single-column statistic.

    Counts pairs of monic polynomials with no common irreducible factor by
    inclusion-exclusion over the distinct factors of the statistic-bearing
    coordinate, avoiding the q^(d1+d2) pair walk.  Validated against
    enumerate_unordered at small q.
    """
    if len(d) != 2 or n != 1:
        raise ValidationError("fast path requires m = 2 and n = 1")
    used = poly.columns_used()
    if len(used) > 1:
        raise ValidationError("fast path requires a single-column statistic")
    col = (used.pop() - 1) if used else 0
    _check_record_guard(field, (d[col],), guards.records)
    q = field.q
    d_other = d[1 - col]
    histogram = Counter()
    for sig, mult in Counter(poly_records(field, d[col], factor_seed)[1]).items():
        # inclusion-exclusion over the sets of distinct factors, one factor
        # per (degree, multiplicity) pair of the signature; the other column
        # enters the signature tuple as `()`, since P does not read it
        histogram[(sig, ()) if col == 0 else ((), sig)] = mult * sum(
            (-1) ** r * q ** (d_other - s) for r in range(len(sig) + 1)
            for s in map(sum, combinations([j for j, _e in sig], r)) if s <= d_other)
    return _weigh(poly, histogram)


def check_recount(d: tuple, q: int, euler: tuple, recount: tuple) -> None:
    """Raise unless the Euler product's (total, point count) at d and q
    equals the record tables' recount there."""
    if euler != recount:
        raise InconsistencyError(
            f"Euler product gives ({euler[0]}, {euler[1]}) at d = {d}, q = {q}; "
            f"the record tables give ({recount[0]}, {recount[1]})")


# --mode euler recounts q = 2 through the record tables up to this |d|, so
# at most 2^10 points there
EULER_RECOUNT_DEGREE = 10


def run_census(d: tuple, n: int, field: FieldSpec, poly: CharPolynomial, mode: str,
               guards: Guards = DEFAULT, factor_seed: int = 0) -> tuple:
    """(total, point count) of the census by the mode's route.

    The inputs are validated here, before any record table or series is
    built, and the routes take them as validated.  The Euler route also
    gives the pair at q = 2 when |d| is at most EULER_RECOUNT_DEGREE, and
    it must equal the unordered route's there: K_r and the binomial
    weights do not depend on q, so one small q certifies them, and the
    member-count check covers the pass at q.
    """
    if n < 1:
        raise ValidationError("threshold n must be >= 1")
    if not d or any(x < 0 for x in d):
        raise ValidationError(f"bad degree vector {d}")
    if mode not in ("ordered", "unordered", "burnside", "euler"):
        raise ValidationError(f"unknown census mode {mode!r}")
    used = poly.columns_used()
    if used and max(used) > len(d):
        raise ValidationError(
            f"statistic uses column {max(used)} but d has {len(d)} columns")
    if mode == "ordered" and not poly.is_one():
        raise ValidationError("ordered census is unweighted")
    if mode == "euler":  # imported here: only this mode loads the route
        from .euler import euler_totals
        spare = (2,) if sum(d) <= EULER_RECOUNT_DEGREE else ()
        [pair, *recount] = euler_totals(d, n, poly, [field.q], guards.series, spare=spare)
        if recount:
            check_recount(d, 2, recount[0], enumerate_unordered(
                d, n, make_field(2), poly, guards, factor_seed))
        return pair
    if mode == "ordered":
        return enumerate_ordered(d, n, field, guards)
    if mode == "unordered":
        return enumerate_unordered(d, n, field, poly, guards, factor_seed)
    return burnside_count(d, n, field, poly, guards)
