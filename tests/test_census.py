import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from field_reference import decode, encode
from zcc import census, euler, ffield
from zcc.census import (averaged_class_value, burnside_count, coprime_pair_census,
                        enumerate_ordered, enumerate_unordered, necklace_count,
                        poly_records, run_census)
from zcc.charpoly import ONE, parse_charpoly, partitions_of
from zcc.cli import run as cli_run
from zcc.errors import GuardError, InconsistencyError, ValidationError
from zcc.ffield import make_field
from zcc.guards import DEFAULT, Guards
from zcc.nlattice import build_lattice, eval_int_poly, point_count_polynomial
from zcc.polyarith import _mul, _trim, factorize
from zcc.stabkit import lefschetz_report

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
X11 = parse_charpoly("X[1,1]")
X12 = parse_charpoly("X[1,2]")
X11X21 = parse_charpoly("X[1,1]*X[2,1]")


def guards(**bounds):
    """The default guards with the given bounds replaced."""
    return Guards(**{name: bounds.get(name, getattr(DEFAULT, name))
                     for name in Guards.__slots__})


# -- spec examples ----------------------------------------------------------------


def test_unordered_examples():
    assert enumerate_unordered((2,), 2, F3, ONE)[1] == 6
    assert enumerate_unordered((1, 1), 1, F2, ONE)[1] == 2
    assert enumerate_unordered((2,), 2, F3, X11)[0] == 6


def test_ordered_examples():
    assert enumerate_ordered((1, 1), 1, F3)[1] == 6
    assert enumerate_ordered((2,), 2, F3)[1] == 6
    L = build_lattice((2, 2), 2)
    n_poly = point_count_polynomial(L)
    assert enumerate_ordered((2, 2), 2, F2)[1] == \
        eval_int_poly(n_poly, 2)


def test_ordered_refuses_weights():
    with pytest.raises(ValidationError, match="unweighted"):
        run_census((2,), 2, F3, X11, "ordered")


def test_burnside_examples():
    assert burnside_count((2,), 2, F3, ONE)[1] == 6
    assert burnside_count((1, 1), 1, F2, ONE)[1] == 2
    assert burnside_count((2,), 2, F3, X12)[0] == 3
    assert enumerate_unordered((2,), 2, F3, X12)[0] == 3


def test_point_count_always_filled():
    w = enumerate_unordered((2,), 2, F3, X11)
    assert w == (6, 6)
    _total, count = burnside_count((2,), 3, F3, X11)
    assert count == 9


def test_repeated_factor_weighting():
    # (x+1)^2 over F_3 is a member at n=3 and its coset-averaged fixed-point
    # count is 1, not 2: the class average over S_2 of the 1-cycle count
    u = enumerate_unordered((2,), 3, F3, X11)
    b = burnside_count((2,), 3, F3, X11)
    assert u[0] == b[0] == 9
    assert averaged_class_value(X11, (((1, 2),),)) == 1
    assert averaged_class_value(X11, (((1, 3),),)) == 1
    assert averaged_class_value(X12, (((1, 2),),)) == Fraction(1, 2)
    # squarefree signatures collapse to the plain cycle-type evaluation
    assert averaged_class_value(X11, (((1, 1), (1, 1)),)) == 2


def test_mixed_repeated_factor_average():
    # factor pattern (x+a)^2 * (irreducible quadratic): average X[1,1] = 1
    assert averaged_class_value(X11, (((1, 2), (2, 1)),)) == 1
    # X[1,2]: the quadratic contributes a fixed 2-part; the squared linear
    # contributes a 2-part half the time
    assert averaged_class_value(X12, (((1, 2), (2, 1)),)) == Fraction(3, 2)


def test_oracle_triangle_small_grid():
    for q in (2, 3):
        F = make_field(q)
        for dv in [(2,), (3,), (1, 1), (2, 1), (2, 2)]:
            for n in (1, 2, 3):
                o = enumerate_ordered(dv, n, F)
                if not (len(dv) == 1 and n == 1):
                    L = build_lattice(dv, n)
                    assert o[1] == eval_int_poly(
                        point_count_polynomial(L), q)
                for P in [ONE, X11, X12] + ([X11X21] if len(dv) == 2 else []):
                    u = enumerate_unordered(dv, n, F, P)
                    b = burnside_count(dv, n, F, P)
                    assert u == b
    # three and four columns, on prime and extension fields
    stats = [ONE, X11, parse_charpoly("X[1,1]*X[3,1] - X[2,2]")]
    for F in (F2, F3, make_field(2, 2)):
        for dv in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (0, 2, 1), (1, 1, 1, 1),
                   (2, 1, 1, 1), (2, 2, 2)]:
            for n in (1, 2):
                for P in stats:
                    b = burnside_count(dv, n, F, P)
                    u = enumerate_unordered(dv, n, F, P)
                    assert u == b, (F.q, dv, n, str(P))


# -- the column fold against tuple walks ------------------------------------------


def ordered_walk(d, n, field):
    """The ordered count by walking every raw coordinate tuple: the reference."""
    count = 0
    for tup in product(range(field.q), repeat=sum(d)):
        cols = []
        pos = 0
        for dk in d:
            cols.append(tup[pos:pos + dk])
            pos += dk
        if not any(cols[0].count(v) >= n and all(col.count(v) >= n for col in cols)
                   for v in set(cols[0])):
            count += 1
    return count


def burnside_walk(field, d, n):
    """(cycle type, 1/z, fixed count) per class by walking every choice
    tuple of the class's cycles: the reference."""
    classes = []
    for combo in product(*(partitions_of(dk) for dk in d)):
        weight = Fraction(1)
        for _lam, z in combo:
            weight /= z
        cycles = [(k, j) for k, (lam, _z) in enumerate(combo) for j in lam]
        fixed = 0
        for choice in product(*(twisted_choice_walk(field, j) for _k, j in cycles)):
            mults = [dict() for _ in d]
            for (k, _j), (key, mult) in zip(cycles, choice):
                mults[k][key] = mults[k].get(key, 0) + mult
            if not any(c >= n and all(col.get(key, 0) >= n for col in mults)
                       for key, c in mults[0].items()):
                fixed += 1
        classes.append((tuple(lam for lam, _z in combo), weight, fixed))
    return tuple(classes)


WALK_DEGREES = [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 2), (1, 1, 1),
                (2, 1, 1), (0, 2, 1)]


@pytest.mark.parametrize("field", [F2, F3, make_field(2, 2)], ids=lambda F: f"F{F.q}")
def test_fold_routes_match_tuple_walks(field):
    for dv in WALK_DEGREES:
        for n in (1, 2, 3):
            ordered = enumerate_ordered(dv, n, field)
            assert ordered[1] == ordered_walk(dv, n, field), (field.q, dv, n)
            assert census._burnside_fixed(field, dv, n) == burnside_walk(field, dv, n), (
                field.q, dv, n)


KEY_SETS = st.frozensets(st.integers(0, 3), max_size=3)
COLUMNS = st.dictionaries(
    st.sampled_from("ab"), st.dictionaries(KEY_SETS, st.integers(1, 3), max_size=4),
    min_size=1, max_size=2).map(lambda col: {label: Counter(keys)
                                             for label, keys in col.items()})


@settings(max_examples=200, deadline=None)
@given(st.lists(COLUMNS, min_size=1, max_size=4))
def test_fold_matches_product_walk(columns):
    expected = Counter()
    rows = [[(label, key, mult) for label, keys in col.items()
             for key, mult in keys.items()] for col in columns]
    for combo in product(*rows):
        if not frozenset.intersection(*(key for _label, key, _mult in combo)):
            expected[tuple(label for label, _key, _mult in combo)] += prod(
                mult for _label, _key, mult in combo)
    assert census._fold(columns) == expected


def solve_mod_p(columns, target, p):
    """Solve sum_i v_i * columns[i] = target over F_p (unique solution)."""
    rows = len(columns[0])
    ncols = len(columns)
    mat = [[columns[c][r] % p for c in range(ncols)] + [target[r] % p]
           for r in range(rows)]
    for col in range(ncols):  # every column gets a pivot, in row col
        sel = next(r for r in range(col, rows) if mat[r][col])
        mat[col], mat[sel] = mat[sel], mat[col]
        inv = pow(mat[col][col], p - 2, p)
        mat[col] = [(x * inv) % p for x in mat[col]]
        for r in range(rows):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[col])]
    assert not any(mat[r][ncols] for r in range(ncols, rows)), "not in the subfield"
    return tuple(mat[i][ncols] for i in range(ncols))


def subfield_embedding(base, ext):
    """An embedding F_q -> F_{q^j} as the images of base's power basis: its
    generator maps to the least root of base's modulus, found by factoring."""
    if base.e == 1:
        return (1,)
    roots = []
    for (j, coeffs), _m in factorize(ext, base.modulus):
        assert j == 1, "modulus does not split in the extension"
        roots.append(ext.sub_raw(0, coeffs[0]))
    root = min(roots, key=lambda raw: decode(ext, raw))
    powers = [1]
    for _ in range(base.e - 1):
        powers.append(ext.mul_raw(powers[-1], root))
    return tuple(powers)


@lru_cache(maxsize=None)
def twisted_choice_walk(base, j):
    """The (key, multiplicity) of every element of F_{q^j}, its minimal
    polynomial over F_q built in the extension field and mapped back: the
    reference for the tallied choice table."""
    ext = make_field(base.p, base.e * j)
    columns = [decode(ext, w) for w in subfield_embedding(base, ext)]

    def back(raw):
        return encode(base, solve_mod_p(columns, decode(ext, raw), base.p))

    out = []
    for x in range(ext.q):
        orbit = [x]
        y = ext.pow_raw(x, base.q)
        while y != x:
            orbit.append(y)
            y = ext.pow_raw(y, base.q)
        vec = [1]
        for y in orbit:
            vec = _mul(ext, vec, [ext.sub_raw(0, y), 1])
        key = tuple(back(c) for c in _trim(list(vec))[:-1])
        out.append(((len(orbit), key), j // len(orbit)))
    return tuple(out)


@pytest.mark.parametrize("field", [F2, F3, make_field(2, 2), make_field(3, 2)],
                         ids=lambda F: f"F{F.q}")
def test_twisted_table_per_orbit_matches_element_walk(field):
    for j in (1, 2, 3, 4) if field.e == 1 else (1, 2, 3):
        tally = Counter()
        for key, mult, count in census._twisted_choice_table(field, j):
            tally[key, mult] += count
        assert tally == Counter(twisted_choice_walk(field, j)), (field.q, j)


def test_burnside_table_shared_across_statistics():
    census._burnside_fixed.cache_clear()
    for P in (ONE, X11):
        burnside_count((2, 1, 1), 1, F3, P)
    info = census._burnside_fixed.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_degenerate_corner_all_zero():
    for q in (2, 3):
        F = make_field(q)
        for d in (1, 2, 3):
            assert enumerate_ordered((d,), 1, F)[1] == 0
            assert enumerate_unordered((d,), 1, F, ONE)[1] == 0
            assert burnside_count((d,), 1, F, ONE)[1] == 0


def test_extension_field_burnside():
    F4 = make_field(2, 2)
    F9 = make_field(3, 2)
    for F in (F4, F9):
        for dv, n in [((2,), 2), ((1, 1), 1), ((2, 1), 1)]:
            for P in (ONE, X11):
                u = enumerate_unordered(dv, n, F, P)
                b = burnside_count(dv, n, F, P)
                assert u == b


def test_monotone_in_n():
    for dv in [(3,), (2, 1)]:
        counts = [enumerate_unordered(dv, n, F3, ONE)[1]
                  for n in (1, 2, 3)]
        assert counts[0] <= counts[1] <= counts[2]


def test_squarefree_specialization():
    for q in (2, 3, 5):
        F = make_field(q)
        for d in (2, 3, 4):
            w = enumerate_unordered((d,), 2, F, ONE)
            assert w[1] == q ** d - q ** (d - 1)


def test_guards():
    with pytest.raises(GuardError, match="burnside"):
        enumerate_unordered((10,), 2, F5, ONE, guards(points=1000))
    # the record guard counts one table per distinct degree: 5^4 + 5^1
    with pytest.raises(GuardError, match="630 polynomial records"):
        enumerate_unordered((4, 4, 1), 1, F5, ONE,
                            guards(records=629))
    with pytest.raises(GuardError, match="625 polynomial records"):
        coprime_pair_census((4, 4), 1, F5, X11, guards=guards(records=624))
    with pytest.raises(GuardError, match="polynomial records"):
        lefschetz_report([1, 4], 2, 1, ONE, [2, 3, 5, 7, 11],
                         guards=guards(records=624))
    with pytest.raises(GuardError):
        enumerate_ordered((10,), 2, F5, guards(points=1000))
    with pytest.raises(GuardError):
        burnside_count((9,), 2, F2, ONE)


MODES = ("ordered", "unordered", "burnside", "euler")

# (d, n, poly, the modes tried, the message): each case fails only the
# checks from its message on, so the first case of a pair pins their order
BAD_INPUTS = [
    ((2,), 0, ONE, MODES, "threshold n must be >= 1"),
    ((-1,), 0, X11X21, ("random",), "threshold n must be >= 1"),
    ((), 1, ONE, MODES, "bad degree vector ()"),
    ((2, -1), 1, ONE, MODES, "bad degree vector (2, -1)"),
    ((-1,), 1, X11X21, ("random",), "bad degree vector (-1,)"),
    ((2,), 1, X11X21, ("random",), "unknown census mode 'random'"),
    ((2,), 1, X11X21, MODES, "statistic uses column 2 but d has 1 columns"),
    ((2,), 1, X11, ("ordered",), "ordered census is unweighted"),
]


def test_run_census_refuses_bad_input_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the input was validated")

    monkeypatch.setattr(census, "_factor_table", refuse)
    monkeypatch.setattr(census, "_fold", refuse)
    monkeypatch.setattr(euler, "euler_totals", refuse)
    for d, n, poly, modes, message in BAD_INPUTS:
        for mode in modes:
            with pytest.raises(ValidationError) as raised:
                run_census(d, n, F3, poly, mode)
            assert str(raised.value) == message, (d, n, mode)


def test_threads_and_seed_invariance():
    base = enumerate_unordered((2, 2), 1, F3, X11)
    for seed in (1, 7, 9001, 2 ** 31 - 1):
        seeded = enumerate_unordered((2, 2), 1, F3, X11,
                                     factor_seed=seed)
        assert base == seeded
        assert poly_records(F3, 2, seed) == poly_records(F3, 2)


def test_coprime_fast_path_matches_enumeration():
    for q in (2, 3, 5):
        F = make_field(q)
        for dv in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            for P in (ONE, X11, parse_charpoly("X[2,1]"), X12,
                      parse_charpoly("X[2,2]*X[2,1]")):
                slow = enumerate_unordered(dv, 1, F, P)
                fast = coprime_pair_census(dv, 1, F, P)
                assert slow == fast


def test_coprime_fast_path_validation():
    with pytest.raises(ValidationError):
        coprime_pair_census((2, 2), 2, F3, ONE)
    with pytest.raises(ValidationError):
        coprime_pair_census((2, 2), 1, F3, X11X21)


def test_run_census_dispatch_and_json(capsys):
    assert run_census((2,), 2, F3, ONE, "unordered") == (6, 6)
    assert cli_run(["count", "--d", "2", "--n", "2", "--q", "3"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["point_count"] == 6
    assert d["total"] == "6"
    assert "elapsed" not in d


# -- record tables ------------------------------------------------------------

RECORD_FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5),
                 make_field(7), make_field(2, 3), make_field(3, 2)]


def factored_records(field, degree):
    """The records by factoring every monic polynomial: the reference."""
    return tuple(factorize(field, coeffs)
                 for coeffs in product(range(field.q), repeat=degree))


def mobius_number(n):
    result, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return result


@pytest.mark.parametrize("field", RECORD_FIELDS, ids=lambda F: f"F{F.q}")
def test_records_match_factorization(field):
    degree = 0
    while field.q ** degree <= 5000:
        assert poly_records(field, degree)[0] == factored_records(field, degree)
        degree += 1


@pytest.mark.parametrize("field", RECORD_FIELDS, ids=lambda F: f"F{F.q}")
def test_irreducible_counts_are_necklace_counts(field):
    q = field.q
    for j in range(1, 6):
        moebius = sum(mobius_number(j // e) * q ** e
                      for e in range(1, j + 1) if j % e == 0) // j
        assert necklace_count(q, j) == moebius
        if q ** j <= 5000:
            assert len(census._irreducibles(field, j)) == moebius


@pytest.fixture
def fresh_tables():
    tables = (census.poly_records, census._irreducibles, census._factor_table)
    for table in tables:
        table.cache_clear()
    yield
    for table in tables:
        table.cache_clear()


@pytest.mark.parametrize("degree", [1, 2])
def test_dropped_irreducible_is_caught(fresh_tables, monkeypatch, degree):
    sieve = census._irreducibles

    def dropping(field, j):
        found = sieve(field, j)
        return found[:-1] if j == degree else found

    monkeypatch.setattr(census, "_irreducibles", dropping)
    with pytest.raises(InconsistencyError, match=f"not M_{degree + 1}"):
        poly_records(F3, degree + 1)


def test_corrupt_record_is_caught(fresh_tables, monkeypatch):
    walk = census._factored_monics

    def corrupting(field, degree, irreducibles):
        for slot, factors, signature in walk(field, degree, irreducibles):
            if slot == 43:  # (x+1)^3 = x^3 + 3x^2 + 3x + 1, slot 1*25 + 3*5 + 3
                factors = factors + (((3, (1, 1, 1)), 1),)
            yield slot, factors, signature

    monkeypatch.setattr(census, "_factored_monics", corrupting)
    seed = next(s for s in range(10 ** 4) if census._spot_slot(s, 5 ** 3) == 43)
    with pytest.raises(InconsistencyError, match="disagrees with its factorization"):
        poly_records(F5, 3, seed)


def test_wrong_product_is_caught(fresh_tables, monkeypatch):
    walk = census._factored_monics

    def shifting(field, degree, irreducibles):
        for slot, factors, signature in walk(field, degree, irreducibles):
            if slot == 7:  # (x+1)^3 = x^3 + x^2 + x + 1 lands on x^3's slot
                slot = 0
            yield slot, factors, signature

    monkeypatch.setattr(census, "_factored_monics", shifting)
    with pytest.raises(InconsistencyError, match="two factorizations"):
        poly_records(F2, 3)


def test_factor_table_built_once_per_field_and_degree(fresh_tables, monkeypatch):
    walk = census._factored_monics
    built = Counter()

    def counting(field, degree, irreducibles):
        built[degree] += 1
        return walk(field, degree, irreducibles)

    monkeypatch.setattr(census, "_factored_monics", counting)
    for seed in (1, 2):
        for degree in (3, 1, 4, 2):
            poly_records(F3, degree, seed)
    assert built == Counter({1: 1, 2: 1, 3: 1, 4: 1})
    for degree in range(1, 5):
        assert poly_records(F3, degree, 1) is poly_records(F3, degree, 2)


def test_twisted_table_factors_nothing_and_builds_no_field(monkeypatch):
    for cached in (census._twisted_choice_table, census._irreducibles,
                   census._factor_table):
        cached.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("a twisted table factored or built a field")

    monkeypatch.setattr(ffield, "make_field", refuse)
    monkeypatch.setattr(census, "factorize", refuse)
    for field, total in ((F5, 25), (make_field(2, 2), 16)):
        table = census._twisted_choice_table(field, 2)
        assert sum(count for _key, _mult, count in table) == total


def test_twisted_table_checks_gauss_identity(monkeypatch):
    irreducibles = census._irreducibles
    irreducibles(F3, 2)  # its factor tables are built with every key
    monkeypatch.setattr(census, "_irreducibles",
                        lambda field, e: irreducibles(field, e)[1:])
    census._twisted_choice_table.cache_clear()
    with pytest.raises(InconsistencyError,
                       match="^6 choices for a 2-cycle over F_3, not q\\^2$"):
        census._twisted_choice_table(F3, 2)


def test_burnside_record_guard_before_any_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built before the record guard")

    for name in ("_twisted_choice_table", "_twisted_column", "_factor_table"):
        monkeypatch.setattr(census, name, refuse)
    with pytest.raises(GuardError,
                       match="^390625 polynomial records exceed guard 262144$"):
        burnside_count((8,), 1, F5, ONE)


def test_record_guard_never_forms_the_power():
    with pytest.raises(GuardError,
                       match="^at least 3\\^1000000 polynomial records exceed guard 262144$"):
        census._check_record_guard(F3, (2, 10 ** 6), DEFAULT.records)


def test_fractional_burnside_count_is_an_inconsistency(monkeypatch, capsys):
    # a class table whose weighted fixed-point count is not an integer is an
    # internal inconsistency (exit 2), not bad input (exit 1)
    def fractional(field, d, n):
        return ((((2,),), Fraction(1, 2), 1),)

    monkeypatch.setattr(census, "_burnside_fixed", fractional)
    with pytest.raises(InconsistencyError,
                       match="^burnside point count is not an integer$"):
        burnside_count((2,), 1, F3, ONE)
    assert cli_run(["count", "--d", "2", "--n", "1", "--q", "3", "--mode", "burnside"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: burnside point count is not an integer\n"
