"""The Euler-product route against the record and Burnside routes, its
guard and run-time checks, and the report that samples from it."""

from fractions import Fraction

import pytest

from zcc import census, euler, stabkit
from zcc.census import burnside_count, enumerate_unordered, run_census
from zcc.charpoly import ONE, parse_charpoly
from zcc.cli import run
from zcc.errors import GuardError, InconsistencyError, ValidationError
from zcc.ffield import _prime_divisors, make_field, prime_power
from zcc.guards import DEFAULT, UNSAFE, Guards
from zcc.stabkit import _census_total, lefschetz_report

from perfbench_tables import table

# statistics that read several columns, several cycle lengths and carry
# rational constants
STATISTICS = ("X[1,2]*X[2,1]^2 + 1/3", "X[1,1]^2 - X[1,2]",
              "X[2,3]^2*X[1,1] - 7/5", "X[1,1]*X[2,1] - X[2,2] + 2")


def _field(q):
    return make_field(*prime_power(q))


def _euler(d, n, q, P):
    return run_census(tuple(d), n, _field(q), P, "euler")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_multi_column_rational_statistics_match_both_routes(q):
    field = _field(q)
    for d in [(2, 1), (1, 2), (2, 2), (3, 2), (3, 3), (4, 2)]:
        for n in (1, 2):
            for text in STATISTICS:
                P = parse_charpoly(text)
                want = enumerate_unordered(d, n, field, P)
                got = _euler(d, n, q, P)
                assert got == want
                if sum(d) <= 6:
                    other = burnside_count(d, n, field, P)
                    assert got == other, (d, n, q, text)


def test_three_columns_match_enumeration():
    P = parse_charpoly("X[1,1]*X[2,1]*X[3,1] - 1/2*X[3,2]")
    for d in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]:
        for n in (1, 2):
            for q in (2, 3):
                want = enumerate_unordered(d, n, _field(q), P)
                got = _euler(d, n, q, P)
                assert got == want


def test_one_call_serves_every_q():
    P = parse_charpoly("X[1,1]^2 - X[1,2]")
    qs = [2, 3, 4, 5, 7]
    together = euler.euler_totals((3, 2), 1, P, qs)
    assert together == [euler.euler_totals((3, 2), 1, P, [q])[0] for q in qs]


def test_zero_degrees_and_unread_marks():
    # d = 0: the one tuple of constants is a member; X[1,5] is 0 on degree 4
    assert euler.euler_totals((0, 0), 1, parse_charpoly("X[1,1] + 3"), [5]) == [
        (Fraction(3), 1)]
    got = euler.euler_totals((4,), 2, parse_charpoly("X[1,5]^2 + 1/2"), [3])
    assert got == [(Fraction(3 ** 4 - 3 ** 3, 2), 3 ** 4 - 3 ** 3)]


def test_series_guard_before_any_series(monkeypatch):
    def fail(*_args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(euler, "_states", fail)
    monkeypatch.setattr(euler, "_euler_factor", fail)
    with pytest.raises(GuardError, match=r"series work of 1000001\^2 states x 2 passes "
                                         r"x 31251 words exceeds guard 67108864"):
        euler.euler_totals((10 ** 6,), 1, ONE, [2])
    with pytest.raises(GuardError, match=r"at least 1000001\^2 states"):
        euler.euler_totals((10 ** 6, 10 ** 6), 1, ONE, [2])
    # d = 511 at q = 2^20 - 3: small box, but q^|d|-sized coefficients
    with pytest.raises(GuardError, match=r"512\^2 states x 2 passes x 160 words"):
        euler.euler_totals((511,), 2, ONE, [1048573])


def test_series_guard_counts_reachable_states_and_every_q():
    # each column has 3 states (t, b) with b <= t <= 1, not the box's 4
    P = parse_charpoly("*".join(f"X[{k},1]" for k in range(1, 8)))
    qs = [2, 3, 4, 5, 7, 8, 9, 11]
    work = 3 ** 14 * (len(qs) + 1)
    euler.check_series_guard((1,) * 7, P, qs, work)
    with pytest.raises(GuardError, match=r"series work of 2187\^2 states x 9 passes x 1 words"):
        euler.check_series_guard((1,) * 7, P, qs, work - 1)


def test_euler_mode_recounts_q_2_up_to_its_bound(monkeypatch):
    calls = []
    real = census.enumerate_unordered

    def counting(d, n, field, poly, *rest):
        calls.append((d, field.q))
        return real(d, n, field, poly, *rest)

    monkeypatch.setattr(census, "enumerate_unordered", counting)
    assert census.EULER_RECOUNT_DEGREE == 10
    _euler((5, 5), 1, 7, ONE)
    _euler((6, 5), 1, 7, ONE)
    assert calls == [((5, 5), 2)]


def test_euler_recount_leaves_the_series_guard_alone():
    # 9 states: 81 x 2 passes is within the guard, 81 x 3 would not be, so
    # the q = 2 pass is not counted and the run still goes through
    P = parse_charpoly("X[1,1]*X[2,1]")
    limited = Guards(field=DEFAULT.field, points=DEFAULT.points,
                     records=DEFAULT.records, series=200)
    with pytest.raises(GuardError, match=r"9\^2 states x 3 passes"):
        euler.check_series_guard((1, 1), P, [3, 2], limited.series)
    assert run_census((1, 1), 1, _field(3), P, "euler", limited) == enumerate_unordered(
        (1, 1), 1, _field(3), P)


def test_report_refuses_n_below_1():
    with pytest.raises(ValidationError, match="threshold"):
        lefschetz_report([1, 2], 0, 1, ONE, [2, 3, 5])


def test_wrong_necklace_number_is_caught(monkeypatch):
    monkeypatch.setattr(euler, "necklace_count", lambda q, r: q ** r)
    with pytest.raises(InconsistencyError, match="members, not"):
        euler.euler_totals((2, 2), 1, ONE, [3])


def test_inexact_division_is_caught():
    # K = t / 2 (scaled by 2) gives G_1 = 1/2 and 2 G_2 = G_1 / 2: not
    # a multiple of 1/2
    with pytest.raises(InconsistencyError, match="not a multiple"):
        euler._exp_pass({1: 1}, [(0, 0), (1, 1), (2, 2)], euler._Box([2]), 2)


# -- the report --------------------------------------------------------------------


def _sweeps():
    """(m, n, d_list, q_list, statistics) of every benchmark sweep job."""
    jobs = []
    for key in table("workloads.py", "DIGESTS"):
        argv = key.split()
        if argv[0] == "report" and "--config" not in argv:
            flags = dict(zip(argv[1::2], argv[2::2]))
            jobs.append((int(flags["--m"]), int(flags["--n"]),
                         [int(t) for t in flags["--d-list"].split(",")],
                         [int(q) for q in flags["--q-list"].split(",")],
                         flags.get("--polys", "1").split(";")))
    cfg = table("workloads.py", "SWEEP_CONFIG")
    jobs.append((cfg["m"], cfg["n"], cfg["d_list"], cfg["q_list"], cfg["polys"]))
    return jobs


@pytest.mark.parametrize("job", _sweeps(), ids=lambda job: f"m{job[0]}n{job[1]}")
def test_report_samples_equal_the_record_tables(job):
    m, n, d_list, q_list, texts = job
    for text in texts:
        P = parse_charpoly(text)
        rep = lefschetz_report(d_list, n, m, P, q_list)
        for pt in rep["points"]:
            for q, total in pt["samples"]:
                cen = _census_total(tuple(pt["d"]), n, _field(q), P, DEFAULT, 0)
                assert total == str(cen[0]), (pt["d"], q, text)


def test_report_recounts_the_largest_sample_within_budget(monkeypatch):
    calls = []

    def counting(d, n, field, poly, *rest):
        calls.append((d, field.q))
        return _census_total(d, n, field, poly, *rest)

    monkeypatch.setattr(stabkit, "_census_total", counting)
    lefschetz_report([1, 2, 3], 1, 2, ONE, [2, 3, 5, 7, 11, 13, 17, 19])
    assert calls == [((2, 2), 19)]  # 19^2 = 361 records; 11^3 = 1331 is over
    calls.clear()
    lefschetz_report([2, 3, 4], 2, 1, ONE, [2, 3, 5, 7, 11])
    assert calls == [((4,), 5)]  # 625 records
    calls.clear()
    lefschetz_report([3, 4], 1, 2, ONE, [2, 3, 5, 7, 11, 13, 17, 19, 23],
                     guards=Guards(field=DEFAULT.field, points=10 ** 5,
                                   records=DEFAULT.records, series=DEFAULT.series))
    assert calls == [((3, 3), 5)]  # 7^3 = 343 records, but 7^6 points > 10^5


@pytest.mark.parametrize("total_shift, count_shift", [(1, 0), (0, 1)])
def test_report_recount_mismatch_exits_2_and_prints_nothing(capsys, monkeypatch,
                                                            total_shift, count_shift):
    def off_by_one(d, n, field, poly, *rest):
        total, count = _census_total(d, n, field, poly, *rest)
        return total + total_shift, count + count_shift

    monkeypatch.setattr(stabkit, "_census_total", off_by_one)
    argv = "report --m 2 --n 1 --d-list 1,2 --q-list 2,3,5,7,11 --polys X[1,1]"
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the recount is d = (2, 2) at q = 11
    want = _census_total((2, 2), 1, _field(11), parse_charpoly("X[1,1]"), DEFAULT, 0)
    assert captured.err == (
        f"error: Euler product gives ({want[0]}, {want[1]}) at d = (2, 2), q = 11; "
        f"the record tables give ({want[0] + total_shift}, {want[1] + count_shift})\n")
    assert "Fraction(" not in captured.err


@pytest.mark.parametrize("total_shift, count_shift", [(1, 0), (0, 1)])
def test_euler_mode_recount_mismatch_exits_2_and_prints_nothing(capsys, monkeypatch,
                                                                total_shift, count_shift):
    real = census.enumerate_unordered

    def off_by_one(*args):
        total, count = real(*args)
        return total + total_shift, count + count_shift

    monkeypatch.setattr(census, "enumerate_unordered", off_by_one)
    argv = "weighted --d 3,3 --n 1 --q 5 --mode euler --poly X[1,1]"
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    want = real((3, 3), 1, _field(2), parse_charpoly("X[1,1]"))
    assert captured.err == (
        f"error: Euler product gives ({want[0]}, {want[1]}) at d = (3, 3), q = 2; "
        f"the record tables give ({want[0] + total_shift}, {want[1] + count_shift})\n")
    assert "Fraction(" not in captured.err


def test_report_runs_past_the_record_guard(capsys):
    # 101^3 records at t = 3 are past the record guard, which refused this
    # sweep (exit 2) while every sample came from the record tables
    argv = "report --m 2 --n 1 --d-list 3,4 --q-list 2,3,5,7,11,13,17,19,101"
    assert run(argv.split()) == 0
    assert capsys.readouterr().err == ""


def test_report_checks_every_degree_before_any_sample(monkeypatch):
    def fail(*_args):
        raise AssertionError("a sample was taken")

    monkeypatch.setattr(euler, "_states", fail)
    # 9 passes of 9^2 states admit t = 1; t = 2 has 25 states
    with pytest.raises(GuardError, match=r"series work of 25\^2 states x 9 passes"):
        lefschetz_report([1, 2], 2, 2, parse_charpoly("X[1,1]*X[2,1]"),
                         [2, 3, 4, 5, 7, 8, 9],
                         guards=Guards(field=DEFAULT.field, points=DEFAULT.points,
                                       records=DEFAULT.records, series=9 ** 2 * 9))


@pytest.mark.parametrize("m, largest_q, guard", [
    (7, 13, DEFAULT.series), (8, 17, UNSAFE.series)])
def test_series_guard_admits_every_sweep_the_point_guard_admits(m, largest_q, guard):
    # q^(m t) within the point guard needs m t + 1 field sizes, so m t <= 7
    # (<= 8 unsafe) and every coefficient fits one word; the most states
    # are 3^m, at t = 1 with X[k,1] read in every column, at every such q
    qs = [q for q in range(2, largest_q + 1) if len(_prime_divisors(q)) == 1]
    P = parse_charpoly("*".join(f"X[{k},1]" for k in range(1, m + 1)))
    euler.check_series_guard((1,) * m, P, [1] + qs, guard)  # as report passes them


def test_report_makes_a_field_only_to_recount(monkeypatch):
    made = []
    real = stabkit.make_field

    def recording(p, e=1):
        made.append(p ** e)
        return real(p, e)

    monkeypatch.setattr(stabkit, "make_field", recording)
    lefschetz_report([1, 2], 2, 1, ONE, [2, 3, 1048576])
    assert made == [3]  # the recount at d = (2,), q = 3
    with pytest.raises(ValidationError, match="6 is not a prime power"):
        lefschetz_report([1, 2], 2, 1, ONE, [2, 3, 6])


def test_many_column_statistic_report_runs(capsys):
    # every report sample of the parent's record route still runs, lifted
    # guards or not, and both give the same bytes
    argv = ("report --m 7 --n 1 --d-list 0,1 --q-list 2,3,4,5,7,8,9,11 --polys "
            + "*".join(f"X[{k},1]" for k in range(1, 8))).split()
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert run(argv + ["--unsafe-guard"]) == 0
    assert capsys.readouterr().out == out
