import ast
import errno
import functools
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import zcc
from zcc import census, cli, euler, homology, nlattice, stabkit
from zcc.cli import _parse_q, run
from zcc.ffield import is_prime
from zcc.guards import DEFAULT, UNSAFE
from perfbench_tables import table


def run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out) if out else None


def test_count_example(capsys):
    rc, payload = run_json(capsys, ["count", "--d", "2", "--n", "2", "--q", "3"])
    assert rc == 0
    assert payload["point_count"] == 6
    assert payload["total"] == "6"


def test_count_modes_agree(capsys):
    results, methods = {}, {}
    for mode in ("ordered", "unordered", "burnside", "euler"):
        rc, payload = run_json(capsys, ["count", "--d", "2,1", "--n", "1",
                                        "--q", "3", "--mode", mode])
        assert rc == 0
        results[mode] = payload["point_count"]
        methods[mode] = payload["method"]
    assert results["unordered"] == results["burnside"] == results["euler"] == 18
    assert results["ordered"] == 12  # the ordered space is a different count
    assert methods == {"ordered": "ordered-enumeration",
                       "unordered": "unordered-enumeration",
                       "burnside": "burnside-frobenius", "euler": "euler-product"}


def test_weighted(capsys):
    rc, payload = run_json(capsys, ["weighted", "--d", "2", "--n", "2",
                                    "--q", "3", "--poly", "X[1,2]"])
    assert rc == 0
    assert payload["total"] == "3"


def test_weighted_rejects_ordered(capsys):
    rc = run(["weighted", "--d", "2", "--n", "2", "--q", "3",
              "--poly", "X[1,1]", "--mode", "ordered"])
    assert rc == 1


def test_prime_power_field(capsys):
    rc, payload = run_json(capsys, ["count", "--d", "2", "--n", "2", "--q", "2^2"])
    assert rc == 0
    assert payload["q"] == 4
    rc, payload2 = run_json(capsys, ["count", "--d", "2", "--n", "2", "--q", "4"])
    assert rc == 0
    assert payload2 == payload
    assert run(["count", "--d", "2", "--n", "2", "--q", "6"]) == 1


def test_lattice_example(capsys):
    rc, payload = run_json(capsys, ["lattice", "--d", "3", "--n", "2"])
    assert rc == 0
    assert payload["num_elements"] == 5
    assert payload["mobius_top"] == 2
    assert payload["edge_counts"] == {
        "block_creation": 3, "singleton_adding": 3, "block_merging": 0}
    assert payload["point_count_coefficients"] == [0, 2, -3, 1]


def test_betti(capsys):
    rc, payload = run_json(capsys, ["betti", "--d", "3", "--n", "2"])
    assert rc == 0
    assert payload["betti"] == [1, 3, 2]
    assert all(set(c) == {"element", "blocks", "codimension", "by_degree"}
               for c in payload["contributions"])


def test_interpolate_inconsistency_exit_code(capsys):
    rc = run(["interpolate", "--samples", "2=2,3=6,5=21", "--expected-degree", "2"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: not polynomial of expected degree: "
                                       "the sample at q = 5 is 21, the fit gives 20\n")
    rc = run(["interpolate", "--samples", "2=2,3=6,5=20,7=41", "--expected-degree", "2"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: not polynomial of expected degree: "
                                       "the sample at q = 7 is 41, the fit gives 42\n")
    rc, payload = run_json(capsys, ["interpolate", "--samples", "2=2,3=6,5=20",
                                    "--expected-degree", "2", "--topdim", "2"])
    assert rc == 0
    assert payload["coefficients"] == ["0", "-1", "1"]
    assert payload["normalized"] == ["1", "-1", "0"]


def test_guard_exit_code(capsys):
    rc = run(["count", "--d", "12", "--n", "2", "--q", "5", "--mode", "unordered"])
    assert rc == 2


def test_unknown_flag_exit_code():
    assert run(["count", "--bogus"]) == 1
    assert run(["nonsense"]) == 1


def test_verify_grid(capsys, tmp_path):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    assert run(["verify", "--output", str(out1)]) == 0
    assert run(["verify", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["all_pass"] is True
    assert len(payload["checks"]) > 40
    table = capsys.readouterr().err
    assert "PASS" in table and "FAIL" not in table


def test_census_byte_determinism(capsys):
    outs = []
    for _ in range(2):
        rc = run(["weighted", "--d", "2,2", "--n", "1", "--q", "3",
                  "--poly", "X[1,1]*X[2,1]"])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "e-" not in outs[0] and "E-" not in outs[0]  # no floats anywhere


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _rendered(payload) -> str:
    pieces = []
    cli.render_json(payload, pieces.append)
    return "".join(pieces)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(1 << 200), 1 << 200)
    | st.text(),
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=30)


@given(_JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_render_json_matches_json_dumps(payload):
    assert _rendered(payload) == _dumps(payload)


def test_render_json_edge_cases():
    payload = {
        "\u00e9t\u00e9 \"quoted\"\\\n\t\x00\U0001f600": ["caf\u00e9", "\u2028", "/"],
        "": {"a": {"b": [], "c": {}}, "empty": [[], {}, [[]]]},
        "flags": [True, False, None, 0, -1],
        "ints": [-(1 << 70), 1 << 64, -5, 0, (1 << 63) - 1],
        "mixed": [1, [2, 3], {"k": [4]}, -7, [], "s"],
        "nested": [[1, 2], [[3]], [{"x": None}]],
        "tuples": (((1, 2), (3,)), ((1, 2), (3,)), [(1, 2)], ((True, 1), (1, True))),
        "Z": 1, "a": 2, "\u00e9": 3, "\x7f": 4,
    }
    assert _rendered(payload) == _dumps(payload)
    point = (1, 2)
    shared = ((point, (True,)), (point, (1,)), ((point, (True,)),))
    assert _rendered([shared, [shared]]) == _dumps([shared, [shared]])
    for scalar in (None, True, False, -3, 1 << 100, "x", [], {}, (), (1, 2)):
        assert _rendered(scalar) == _dumps(scalar)
    for bad in (1.5, ((1.5,),), {1: "int key"}):
        with pytest.raises(TypeError):
            _rendered(bad)


def test_render_json_across_batches():
    batch = cli.BATCH
    point = (1, 2)
    shared = ((point, (True,)), (point, (1,)))
    pairs = [(k, -k) for k in range(2 * batch + 5)]
    pairs[batch + 2] = (1, 2, 3)
    pairs[3] = (True, 0)           # a bool is not rendered as an int
    payload = {
        "items": [[k, str(k), {"k": None}] for k in range(3 * batch + 1)],
        "shared": (shared,) * (batch + 2),
        # the same tuple at one indent in the first batch, deeper in the next
        "indents": (shared,) * batch + ([shared], shared),
        "pairs": tuple(pairs),
        "tail": (point,) * batch + ((point, point),),
    }
    assert _rendered(payload) == _dumps(payload)


def test_lattice_render_holds_a_fraction_of_its_output(monkeypatch):
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda args, payload, csv_rows=None:
                        payloads.append(payload))
    assert run(["lattice", "--d", "4,4", "--n", "1"]) == 0
    written = 0

    def count(text):
        nonlocal written
        written += len(text)

    tracemalloc.start()
    try:
        cli.render_json(payloads[0], count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == 1_673_637
    assert peak < written // 4


@pytest.mark.parametrize("argv", [
    "count --d 2,1 --n 1 --q 3 --mode ordered",
    "count --d 2,2 --n 1 --q 4",
    "count --d 2,2 --n 1 --q 3 --mode burnside",
    "count --d 2,2 --n 1 --q 3 --mode euler",
    "weighted --d 2,2 --n 1 --q 3 --poly X[1,1]*X[2,1]",
    "lattice --d 3,2 --n 1",
    "betti --d 3,2 --n 1",
    "interpolate --samples 2=2,3=6,5=20 --topdim 2",
    "report --m 2 --n 1 --d-list 1,2 --q-list 2,3,5,7,11 --polys 1;X[1,1]",
    "verify",
])
def test_every_payload_renders_as_json_dumps(capsys, monkeypatch, argv):
    rendered = []
    original = cli.render_json

    def checked(payload, write):
        pieces = []
        original(payload, pieces.append)
        text = "".join(pieces)
        assert text == _dumps(payload)
        rendered.append(text)
        for piece in pieces:
            write(piece)

    monkeypatch.setattr(cli, "render_json", checked)
    assert run(argv.split()) == 0
    assert capsys.readouterr().out == "".join(rendered) and len(rendered) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", ["count --d 2 --n 1 --q 3", "lattice --d 4,4 --n 1",
                                  "verify"])
def test_full_stdout_exits_1_with_one_error_line(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zcc.__file__)))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "zcc.cli", *argv.split()],
                              stdout=full, stderr=subprocess.PIPE, env=env, text=True,
                              timeout=60)
    assert done.returncode == 1
    errors = [line for line in done.stderr.splitlines() if not line.startswith("PASS ")]
    assert errors == ["error: cannot write stdout: No space left on device"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_that_keeps_failed_bytes_exits_1():
    # _pyio's buffered writer keeps the bytes a failed write could not pass
    # on, so the interpreter's flush at exit would fail again.
    script = ("import sys, _pyio; from zcc import cli; "
              "sys.stdout = sys.__stdout__ = _pyio.open(1, 'w', closefd=False); "
              "sys.exit(cli.run(['count', '--d', '2', '--n', '1', '--q', '3']))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zcc.__file__)))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-c", script], stdout=full,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (
        1, "error: cannot write stdout: No space left on device\n")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_failed_stdout_write_exits_1(capsys, monkeypatch, failing):
    class Stdout:
        def write(self, text):
            pass

        def flush(self):
            pass

    def fail(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    stdout = Stdout()
    setattr(stdout, failing, fail)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(["count", "--d", "2", "--n", "1", "--q", "3"]) == 1
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


def test_csv_projection(capsys):
    rc = run(["count", "--d", "2", "--n", "2", "--q", "3", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert dict(zip(header, row))["point_count"] == "6"


@pytest.mark.parametrize("argv, module, name", [
    (["lattice", "--d", "5,4", "--n", "1", "--format", "csv"], cli, "build_lattice"),
    (["verify", "--format", "csv"], census, "enumerate_ordered"),
], ids=["lattice", "verify"])
def test_csv_refused_before_any_work(capsys, monkeypatch, argv, module, name):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{name} ran before csv was refused")

    monkeypatch.setattr(module, name, unreachable)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: csv output is not supported by this subcommand\n"


def test_report_config_file(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "m": 2, "n": 1, "d_list": [1, 2], "q_list": [2, 3, 5, 7, 11],
        "polys": ["1"],
    }))
    rc, payload = run_json(capsys, ["report", "--config", str(cfg)])
    assert rc == 0
    rep = payload["reports"]["1"]
    assert rep["stabilization"]["onset_d"] == 1
    assert rep["points"][0]["normalized"] == ["1", "-1", "0"]


def test_report_inline_flags(capsys):
    rc, payload = run_json(capsys, [
        "report", "--m", "1", "--n", "2", "--d-list", "1,2",
        "--q-list", "2,3,5", "--polys", "1"])
    assert rc == 0
    assert payload["reports"]["1"]["series_note"].startswith("not computed")
    assert run(["report", "--m", "1", "--n", "2"]) == 1  # missing lists


def test_report_weighted_leading_coefficient(capsys):
    # five samples for the degree-4 polynomial of d = (2, 2): the leading
    # coefficient is <2, 1>_{S_d} = 2, not 1
    rc, payload = run_json(capsys, [
        "report", "--m", "2", "--n", "1", "--d-list", "1,2",
        "--q-list", "2,3,5,7,11", "--polys", "2"])
    assert rc == 0
    assert payload["reports"]["2"]["points"][1]["coefficients"] == [
        "0", "0", "0", "-2", "2"]


def test_report_empty_space_leading_coefficient(capsys):
    # for m = n = 1 every root is a common point, so the census is 0: with
    # exactly D + 1 samples the leading coefficient is 0, not <P, 1> = 1
    payloads = []
    for q_list in ("2,3,5", "2,3,5,7"):
        rc, payload = run_json(capsys, [
            "report", "--m", "1", "--n", "1", "--d-list", "1,2",
            "--q-list", q_list])
        assert rc == 0
        payloads.append(payload)
    for payload in payloads:
        for point in payload["reports"]["1"]["points"]:
            assert set(point["coefficients"]) == {"0"}
            assert set(point["normalized"]) == {"0"}
    assert ([pt["coefficients"] for pt in payloads[0]["reports"]["1"]["points"]]
            == [pt["coefficients"] for pt in payloads[1]["reports"]["1"]["points"]])


def test_threads_flag_is_accepted_and_ignored(capsys):
    argv = ["count", "--d", "2,1", "--n", "1", "--q", "3"]
    assert run(argv) == 0
    alone = capsys.readouterr().out
    assert run(argv + ["--threads", "2"]) == 0
    assert capsys.readouterr().out == alone
    assert json.loads(alone)["point_count"] == 18


@pytest.mark.parametrize("q", ["1000000000039", "2^21", "3^1000000000"])
def test_field_guard_before_factoring(capsys, q):
    t0 = time.perf_counter()
    assert run(["count", "--d", "1", "--n", "1", "--q", q]) == 1
    assert time.perf_counter() - t0 < 5  # the guard runs before any factoring
    assert capsys.readouterr().err == "error: field too large\n"


def test_unsafe_guard_lifts_field_guard_to_a_bound(capsys):
    assert _parse_q("2^21", UNSAFE.field).q == 1 << 21
    assert _parse_q(str(1 << 21), UNSAFE.field).q == 1 << 21
    for q in ("2^25", str(1 << 25)):
        assert run(["count", "--d", "1", "--n", "1", "--q", q,
                    "--unsafe-guard"]) == 1
        assert capsys.readouterr().err == "error: field too large\n"


@pytest.mark.parametrize("argv", [
    "count --d 8 --n 2 --q 9",
    "count --d 1 --n 1 --q 2^21 --unsafe-guard",
])
def test_record_guard_before_any_record(capsys, argv):
    t0 = time.perf_counter()
    assert run(argv.split()) == 2
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "polynomial records exceed guard" in lines[0]


# Runs one command in a fresh interpreter and prints its exit code, its stderr
# and the seconds cli.run took.
# the 512 largest primes below 2^20: each q of a report is within the field
# guard, and the q-list admits degree 511
_LARGE_PRIMES = list(islice((q for q in range(1 << 20, 1 << 19, -1) if is_prime(q)), 512))

_TIMED_SCRIPT = """
import contextlib, io, json, sys, time
from zcc import cli
err = io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    code = cli.run(sys.argv[1:])
print(json.dumps([code, err.getvalue(), time.perf_counter() - t0]))
"""


@pytest.mark.parametrize("argv, code, message", [
    ("count --d 1000000 --n 1 --q 2", 2,
     "q^|d| = 2^1000000 exceeds guard 100000000; try burnside mode"),
    ("count --d 1000000 --n 1 --q 2 --mode ordered", 2,
     "q^|d| = 2^1000000 exceeds guard 100000000"),
    ("weighted --d 1000000 --n 1 --q 2 --poly X[1,1]", 2,
     "q^|d| = 2^1000000 exceeds guard 100000000; try burnside mode"),
    ("count --d 12345678901234567890 --n 1 --q 2", 2,
     "q^|d| = 2^12345678901234567890 exceeds guard 100000000; try burnside mode"),
    ("lattice --d 100000 --n 1", 2, "|d| = 100000 exceeds the lattice guard 10"),
    ("betti --d 100000 --n 1", 2, "|d| = 100000 exceeds the lattice guard 10"),
    ("lattice --d 12 --n 1", 2,
     "|d| = 12 exceeds the lattice guard 10; up to ~4213597 set partitions"),
    ("count --d 8 --n 1 --q 5 --mode burnside", 2,
     "390625 polynomial records exceed guard 262144"),
    ("lattice --d 2 --n 1 --dimx 99999999999", 2,
     "dim_x * |d| = 199999999998 exceeds the dimension guard 1000000"),
    ("betti --d 2 --n 1 --dimx 99999999999", 2,
     "dim_x * |d| = 199999999998 exceeds the dimension guard 1000000"),
    ("report --m 99999999999 --n 1 --d-list 1,2 --q-list 2,3,5", 1,
     "degree 1 needs at least 100000000000 primes in q_list"),
    ("report --m 99999999999 --n 1 --d-list 0,1 --q-list 2,3,5", 1,
     "degree 1 needs at least 100000000000 primes in q_list"),
    ("report --m 3000000 --n 1 --d-list 0,0 --q-list 2,3,5", 1,
     "sweep needs at least 2 distinct degree values"),
    ("interpolate --samples 2=1,3=1 --topdim 99999999999", 1,
     "topdim 99999999999 exceeds guard 1000000"),
    ("count --d 4,4 --n 1 --q 11 --mode burnside", 2,
     "q^|d| = 214358881 exceeds guard 100000000"),
    ("count --d 1000000 --n 1 --q 2 --mode euler", 2,
     "series work of 1000001^2 states x 2 passes x 31251 words exceeds guard 67108864"),
    ("weighted --d 1000000,1000000 --n 1 --q 2 --poly X[1,1] --mode euler", 2,
     "series work of at least 2000001^2 states x 2 passes x 62501 words "
     "exceeds guard 67108864"),
    ("count --d 511 --n 2 --q 1048573 --mode euler", 2,
     "series work of 512^2 states x 2 passes x 160 words exceeds guard 67108864"),
    ("report --m 1 --n 2 --d-list 510,511 --q-list " + ",".join(map(str, _LARGE_PRIMES)), 2,
     "series work of 511^2 states x 514 passes x 160 words exceeds guard 67108864"),
    ("interpolate --samples " + ",".join(f"{q}=0" for q in range(513)), 2,
     "513 fitted points exceed guard 512"),
    ("lattice --d 2000 --n 1 --unsafe-guard", 2, "|d| = 2000 exceeds the lattice guard 10"),
], ids=["count", "count-ordered", "weighted", "count-20-digits", "lattice", "betti",
        "lattice-small", "burnside-records", "lattice-dimx", "betti-dimx", "report-m",
        "report-m-degree-0", "report-one-distinct-degree", "interpolate-topdim",
        "burnside-points", "euler-series", "euler-series-two-columns",
        "euler-series-large-q", "report-series-and-points", "interpolate-fitted-points",
        "lattice-unsafe"])
def test_size_guards_never_form_the_size(argv, code, message):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zcc.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_SCRIPT, *argv.split()],
        env=env, capture_output=True, text=True, check=True, timeout=30)
    got_code, err, seconds = json.loads(done.stdout)
    assert (got_code, err) == (code, f"error: {message}\n")
    assert seconds < 1


class _Reached(Exception):
    """Raised by the first step of a census that a guard let through."""


# the largest prime within the unsafe field guard, and the first one past it
_UNSAFE_PRIME = max(q for q in range(UNSAFE.field - 100, UNSAFE.field + 1) if is_prime(q))
_PAST_UNSAFE_PRIME = min(q for q in range(UNSAFE.field, UNSAFE.field + 100) if is_prime(q))
_SERIES_QS = ",".join(map(str, _LARGE_PRIMES[:121]))


# the guard, a command past its DEFAULT bound and within UNSAFE, the census
# step it reaches under --unsafe-guard (patched to raise _Reached; None: it
# runs to exit 0), a command past UNSAFE, and the error line it prints
@pytest.mark.parametrize("guard, within, step, past, error", [
    ("field", f"count --d 1 --n 1 --q {_UNSAFE_PRIME} --mode euler", None,
     f"count --d 1 --n 1 --q {_PAST_UNSAFE_PRIME} --mode euler", "field too large"),
    ("field", f"weighted --d 1 --n 1 --q {_UNSAFE_PRIME} --poly X[1,1] --mode euler", None,
     f"weighted --d 1 --n 1 --q {_PAST_UNSAFE_PRIME} --poly X[1,1] --mode euler",
     "field too large"),
    ("field", f"report --m 1 --n 2 --d-list 1,2 --q-list 2,3,{_UNSAFE_PRIME}", None,
     f"report --m 1 --n 2 --d-list 1,2 --q-list 2,3,{_PAST_UNSAFE_PRIME}",
     "field too large"),
    ("field", f"report --m 1 --n 2 --d-list 0,1 --q-list 1048583,{_UNSAFE_PRIME}", None,
     f"report --m 1 --n 2 --d-list 0,1 --q-list 1048583,{_PAST_UNSAFE_PRIME}",
     "field too large"),
    ("points", "count --d " + ",".join(["1"] * 27) + " --n 1 --q 2 --mode ordered", None,
     "count --d 34 --n 1 --q 2", "q^|d| = 2^34 exceeds guard 10000000000; try burnside mode"),
    ("points", "weighted --d 4,4 --n 1 --q 11 --poly X[1,1] --mode burnside",
     (census, "_burnside_fixed"),
     "weighted --d 4,4 --n 1 --q 19 --poly X[1,1] --mode burnside",
     "q^|d| = 16983563041 exceeds guard 10000000000"),
    ("records", "count --d 19 --n 2 --q 2", (census, "_member_histogram"),
     "count --d 21 --n 2 --q 2", "at least 2^21 polynomial records exceed guard 1048576"),
    ("records", "weighted --d 8 --n 1 --q 5 --poly X[1,1] --mode burnside",
     (census, "_burnside_fixed"),
     "weighted --d 8 --n 1 --q 7 --poly X[1,1] --mode burnside",
     "5764801 polynomial records exceed guard 1048576"),
    ("series", "count --d 511 --n 2 --q 1048573 --mode euler", (euler, "_states"),
     "count --d 1000000 --n 1 --q 2 --mode euler",
     "series work of 1000001^2 states x 2 passes x 31251 words exceeds guard 1073741824"),
    ("series", "weighted --d 511 --n 2 --q 1048573 --poly X[1,1] --mode euler",
     (euler, "_states"), "weighted --d 1000000 --n 1 --q 2 --poly X[1,1] --mode euler",
     "series work of 2000001^2 states x 2 passes x 31251 words exceeds guard 1073741824"),
    ("series", f"report --m 1 --n 2 --d-list 119,120 --q-list {_SERIES_QS}",
     (euler, "_states"),
     "report --m 1 --n 2 --d-list 510,511 --q-list " + ",".join(map(str, _LARGE_PRIMES)),
     "series work of 511^2 states x 514 passes x 160 words exceeds guard 1073741824"),
], ids=["field-count", "field-weighted", "field-report", "field-report-degree-0",
        "points-count", "points-weighted", "records-count", "records-weighted",
        "series-count", "series-weighted", "series-report"])
def test_unsafe_guard_reaches_every_lifted_bound(capsys, monkeypatch, guard, within,
                                                 step, past, error):
    def reached(*_args):
        raise _Reached

    assert getattr(DEFAULT, guard) < getattr(UNSAFE, guard)
    assert run(within.split()) == (1 if guard == "field" else 2)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if guard != "field":  # "field too large" names no bound
        assert f"guard {getattr(DEFAULT, guard)}" in lines[0]
    if step is None:
        assert run(within.split() + ["--unsafe-guard"]) == 0
    else:
        monkeypatch.setattr(*step, reached)
        with pytest.raises(_Reached):
            run(within.split() + ["--unsafe-guard"])
    capsys.readouterr()
    assert run(past.split() + ["--unsafe-guard"]) == (1 if guard == "field" else 2)
    assert capsys.readouterr().err == f"error: {error}\n"


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _bound(cell: str) -> int:
    """The leading `a^b` or `a` of a README table cell."""
    base, exponent = re.match(r"`?(\d+)(?:\^(\d+))?", cell.strip()).groups()
    return int(base) ** int(exponent or 1)


def test_readme_scope_table_matches_the_guards():
    rows = [line.split(" | ") for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| ")]
    for name, label in (("field", "field size"), ("points", "point "),
                        ("records", "polynomial records"), ("series", "series work")):
        [row] = [cells for cells in rows if cells[0].startswith("| " + label)]
        assert (_bound(row[1]), _bound(row[2])) == (
            getattr(DEFAULT, name), getattr(UNSAFE, name)), row[0]


@pytest.mark.parametrize("argv", ["betti --d 4,4 --n 1", "betti --d 3,3,3 --n 1"])
def test_face_guard_before_any_homology(capsys, argv):
    t0 = time.perf_counter()
    assert run(argv.split()) == 2
    assert time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: face count exceeds guard 100000\n"


def _config(tmp_path, text):
    path = tmp_path / "sweep.json"
    path.write_text(text)
    return str(path)


# the start of the error line, where a case pins more than "error: "
_BAD_INPUT_ERRORS = {
    **{case: "error: bad config " for case in (
        "config-d-list-string", "config-q-list-float", "config-m-float",
        "config-n-bool", "config-truncation-float", "config-polys-string",
        "config-misspelt-keys", "config-key-case", "config-polys-empty")},
    "interpolate-negative-topdim": "error: topdim must be >= 0",
    "report-polys-empty": "error: syntax error at position 0: unexpected end of input",
}
# the end of the error line: the config's first unknown key, or the bad value
_BAD_INPUT_ENDS = {"config-misspelt-keys": ": unknown key 'trunaction'",
                   "config-key-case": ": unknown key 'D_list'",
                   "config-polys-empty": ": polys must be a non-empty list of strings"}


@pytest.mark.parametrize("make_argv", [
    lambda tmp: ["report", "--config", str(tmp / "missing.json")],
    lambda tmp: ["report", "--config", _config(tmp, "{not json")],
    lambda tmp: ["report", "--config", _config(tmp, '{"q_list": [2, 3]}')],
    lambda tmp: ["report", "--config", _config(tmp, '{"d_list": [1, 2]}')],
    lambda tmp: ["report", "--config", _config(tmp, '[1, 2]')],
    lambda tmp: ["report", "--config", _config(
        tmp, '{"d_list": [1, 2], "q_list": [2, 3, 5, 7, 11], "truncation": "x"}')],
    lambda tmp: ["count", "--d", "2", "--n", "2", "--q", "3",
                 "--output", str(tmp / "no-such-dir" / "out.json")],
    lambda tmp: ["weighted", "--d", "2", "--n", "2", "--q", "3",
                 "--poly", "(" * 3000 + "X[1,1]" + ")" * 3000],
    lambda tmp: ["weighted", "--d", "2", "--n", "2", "--q", "3",
                 "--poly", "(X[1,1]+1)^3000"],
    lambda tmp: ["weighted", "--d", "2", "--n", "2", "--q", "3",
                 "--poly", "X[1,1]^" + "9" * 5000],
    lambda tmp: ["weighted", "--d", "2", "--n", "2", "--q", "3",
                 "--poly", "X[1,1]^\u00b2"],
    lambda tmp: ["betti", "--d", "2,2", "--n", "1", "--dimx", "0"],
    lambda tmp: ["betti", "--d", "2,2", "--n", "1", "--dimx", "-1"],
    lambda tmp: ["report", "--m", "0", "--n", "1", "--d-list", "1,2",
                 "--q-list", "2,3,5"],
    lambda tmp: ["report", "--config", _config(
        tmp, '{"d_list": [1, 2], "q_list": [2, 3, 5, 7, 11], "truncation": -1}')],
    lambda tmp: ["report", "--m", "2", "--n", "1", "--d-list=-1,1",
                 "--q-list", "2,3,5"],
    lambda tmp: ["report", "--config", _config(
        tmp, '{"d_list": "12", "q_list": [2, 3, 5, 7, 11]}')],
    lambda tmp: ["report", "--config", _config(
        tmp, '{"d_list": [1, 2], "q_list": [2, 3, 5, 7, 11.0]}')],
    lambda tmp: ["report", "--config", _config(
        tmp, '{"m": 2.7, "d_list": [1, 2], "q_list": [2, 3, 5, 7, 11]}')],
    lambda tmp: ["report", "--config", _config(
        tmp, '{"n": true, "d_list": [1, 2], "q_list": [2, 3, 5, 7, 11]}')],
    lambda tmp: ["report", "--config", _config(
        tmp, '{"d_list": [1, 2], "q_list": [2, 3, 5, 7, 11], "truncation": 1.9}')],
    lambda tmp: ["report", "--config", _config(
        tmp, '{"d_list": [1, 2], "q_list": [2, 3, 5, 7, 11], "polys": "X[1,1]"}')],
    lambda tmp: ["interpolate", "--samples", "2=2,3=6", "--topdim", "-1"],
    lambda tmp: ["report", "--config", _config(
        tmp, '{"d_list": [1, 2], "q_list": [2, 3, 5, 7, 11], "trunaction": 0, '
             '"poly": ["X[1,1]"]}')],
    lambda tmp: ["report", "--config", _config(
        tmp, '{"d_list": [1, 2], "q_list": [2, 3, 5, 7, 11], "D_list": [1, 2]}')],
    lambda tmp: ["report", "--m", "2", "--n", "1", "--d-list", "1,2",
                 "--q-list", "2,3,5,7,11", "--polys", ""],
    lambda tmp: ["report", "--config", _config(
        tmp, '{"d_list": [1, 2], "q_list": [2, 3, 5, 7, 11], "polys": []}')],
], ids=["config-missing", "config-bad-json", "config-no-d-list",
        "config-no-q-list", "config-not-object", "config-bad-truncation",
        "output-dir-missing",
        "poly-deep-nesting", "poly-huge-power", "poly-long-literal",
        "poly-superscript-digit", "betti-dimx-zero", "betti-dimx-negative",
        "report-m-zero", "config-negative-truncation", "report-negative-degree",
        "config-d-list-string", "config-q-list-float", "config-m-float",
        "config-n-bool", "config-truncation-float", "config-polys-string",
        "interpolate-negative-topdim", "config-misspelt-keys", "config-key-case",
        "report-polys-empty", "config-polys-empty"])
def test_bad_input_exits_1_with_one_error_line(capsys, request, tmp_path, make_argv):
    assert run(make_argv(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    start = _BAD_INPUT_ERRORS.get(request.node.callspec.id, "error: ")
    end = _BAD_INPUT_ENDS.get(request.node.callspec.id, "")
    assert len(lines) == 1 and lines[0].startswith(start) and lines[0].endswith(end)


@pytest.mark.parametrize("make_argv, message", [
    (lambda tmp: ["report", "--m", "0", "--n", "1", "--d-list", "1,2",
                  "--q-list", "2,3,5", "--polys", "X[1,1]"], "m must be >= 1"),
    (lambda tmp: ["report", "--config", _config(
        tmp, '{"m": 0, "d_list": [1, 2], "q_list": [2, 3, 5], "polys": ["X[1,1]"]}')],
     "m must be >= 1"),
    (lambda tmp: ["report", "--m", "2", "--n", "1", "--d-list", "1,2",
                  "--q-list", "2,3,5,7,11", "--truncation", "-1"],
     "truncation must be >= 0"),
    (lambda tmp: ["report", "--config", _config(
        tmp, '{"d_list": [1, 2], "q_list": [2, 3, 5, 7, 11], "truncation": -1}')],
     "truncation must be >= 0"),
], ids=["flags-m", "config-m", "flags-truncation", "config-truncation"])
def test_report_bounds_checked_before_any_statistic(capsys, monkeypatch, tmp_path,
                                                    make_argv, message):
    def no_series(*_args, **_kwargs):
        raise AssertionError("a series was built before the bounds check")

    monkeypatch.setattr(euler, "euler_totals", no_series)
    monkeypatch.setattr(euler, "check_series_guard", no_series)
    assert run(make_argv(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _nlattice_calls(call) -> tuple:
    """call()'s result and the names of the nlattice functions it entered."""
    entered = set()
    previous = sys.getprofile()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename == nlattice.__file__:
            entered.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, entered


@pytest.mark.parametrize("command", ["lattice", "betti"])
def test_dimx_checked_before_the_lattice_is_built(capsys, command):
    # build_lattice refuses dim_x = 0 and a tripped dimension guard before
    # its generator `rec` makes an element; (5,5)/1 takes seconds to build
    assert "rec" in _nlattice_calls(lambda: nlattice.build_lattice((2,), 1))[1]
    for dimx, code, message in (
            ("0", 1, "dim_x must be >= 1"),
            ("100001", 2, "dim_x * |d| = 1000010 exceeds the dimension guard 1000000")):
        argv = [command, "--d", "5,5", "--n", "1", "--dimx", dimx]
        got, entered = _nlattice_calls(lambda: run(argv))
        assert "build_lattice" in entered and "rec" not in entered
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (code, "", f"error: {message}\n")


# inputs that only a library entry point refuses, the CLI having parsed
# their text: each value is checked once, by its owner
@pytest.mark.parametrize("argv, code, message", [
    ("count --d=2,-1 --n 1 --q 3", 1, "bad degree vector (2, -1)"),
    ("lattice --d=2,-1 --n 1", 1, "bad degree vector (2, -1)"),
    ("betti --d=2,-1 --n 1", 1, "bad degree vector (2, -1)"),
    ("weighted --d 2 --n 1 --q 3 --poly X[2,1]", 1,
     "statistic uses column 2 but d has 1 columns"),
    ("report --m 1 --n 1 --d-list 1,2 --q-list 2,3,5 --polys X[2,1]", 1,
     "statistic uses column 2 > m = 1"),
    ("count --d 2 --n 1 --q 3 --mode random", 1, "unknown census mode 'random'"),
    ("weighted --d 2 --n 1 --q 3 --poly X[1,1] --mode random", 1,
     "unknown census mode 'random'"),
    ("weighted --d 2 --n 1 --q 3 --poly X[1,1] --mode ordered", 1,
     "ordered census is unweighted"),
    ("lattice --d 10 --n 0 --dimx 200000", 1, "threshold n must be >= 1"),
    ("betti --d 10 --n 0 --dimx 200000", 1, "threshold n must be >= 1"),
], ids=["count-negative-degree", "lattice-negative-degree", "betti-negative-degree",
        "weighted-column", "report-column", "count-mode", "weighted-mode",
        "weighted-ordered", "lattice-n-before-guards", "betti-n-before-guards"])
def test_values_are_checked_by_the_library(capsys, argv, code, message):
    assert run(argv.split()) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_weighted_ordered_census_of_the_statistic_one_is_the_count(capsys):
    argv = ["--d", "2,1", "--n", "1", "--q", "3", "--mode", "ordered"]
    assert run(["weighted", "--poly", "1"] + argv) == 0
    weighted = capsys.readouterr().out
    assert run(["count"] + argv) == 0
    assert capsys.readouterr().out == weighted


def test_ordered_census_walks_multisets_of_values(capsys):
    # a column of 3^16 tuples has only C(18, 16) = 153 multisets of values
    t0 = time.perf_counter()
    assert run("count --d 16 --n 2 --q 3 --mode ordered".split()) == 0
    assert time.perf_counter() - t0 < 2
    capsys.readouterr()
    rc, ordered = run_json(capsys, "count --d 10 --n 5 --q 3 --mode ordered".split())
    assert rc == 0
    rc, lattice = run_json(capsys, "lattice --d 10 --n 5".split())
    assert rc == 0
    coeffs = lattice["point_count_coefficients"]
    assert ordered["point_count"] == sum(c * 3 ** k for k, c in enumerate(coeffs)) == 22050


def test_every_statistic_parsed_before_the_first_report(capsys, monkeypatch):
    def no_report(*_args, **_kwargs):
        raise AssertionError("a report ran before every statistic was parsed")

    monkeypatch.setattr(stabkit, "lefschetz_report", no_report)
    primes = [q for q in range(2, 80) if is_prime(q)]  # 22 of them
    assert run(["report", "--m", "2", "--n", "1", "--d-list", "2,4,6,8,10",
                "--q-list", ",".join(map(str, primes)),
                "--polys", "X[1,1];X[1,1"]) == 1
    assert capsys.readouterr().err == "error: syntax error at position 5: expected ']'\n"


def test_dropped_key_set_in_fold_index_exits_2(capsys, monkeypatch):
    index = census._point_index

    def dropping(keys):
        out = index(keys)
        next(iter(out.values())).pop()
        return out

    monkeypatch.setattr(census, "_point_index", dropping)
    assert run(["count", "--d", "2,2", "--n", "1", "--q", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: point index of column 1 misses key sets")


WATCHED = ("zcc.census", "zcc.euler", "zcc.homology", "zcc.polyarith", "zcc.stabkit",
           "multiprocessing", "concurrent.futures", "hashlib", "dataclasses", "csv")
POOL = {"multiprocessing", "concurrent.futures"}
# Absent from every command's start-up (each costs ms of every start), unless
# the bare interpreter loads it already.
NEVER = {"hashlib", "dataclasses", "csv"}
# Runs one command in a fresh interpreter and prints its exit code and the
# WATCHED modules it loaded.
_LOADED_SCRIPT = f"""
import contextlib, io, json, sys
from zcc import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.run(sys.argv[1:])
    except SystemExit as exc:  # --version exits from argparse
        code = exc.code
print(json.dumps([code, sorted(set(sys.modules) & set({WATCHED!r}))]))
"""


def _modules_loaded_by(argv) -> set:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zcc.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_SCRIPT, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    code, loaded = json.loads(done.stdout)
    assert code == 0, done.stderr
    return set(loaded)


@functools.lru_cache(maxsize=None)
def _loaded_by_bare_interpreter() -> frozenset:
    done = subprocess.run(
        [sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
        capture_output=True, text=True, check=True, timeout=60)
    return frozenset(done.stdout.split())


NO_FIELD = {"zcc.census", "zcc.euler", "zcc.polyarith", "zcc.stabkit"} | POOL


@pytest.mark.parametrize("argv, absent", [
    ("--version", NO_FIELD),
    ("lattice --d 2,2 --n 1", NO_FIELD),
    ("betti --d 2,2 --n 1", NO_FIELD),
    ("count --d 2,2 --n 1 --q 3", {"zcc.euler", "zcc.homology", "zcc.stabkit"} | POOL),
    ("count --d 2,2 --n 1 --q 3 --mode burnside",
     {"zcc.euler", "zcc.homology", "zcc.stabkit"} | POOL),
    ("weighted --d 2,2 --n 1 --q 3 --poly X[1,1]",
     {"zcc.euler", "zcc.homology", "zcc.stabkit"} | POOL),
    ("count --d 2,2 --n 1 --q 3 --mode euler", {"zcc.homology", "zcc.stabkit"} | POOL),
    ("report --m 2 --n 1 --d-list 1,2 --q-list 2,3,5,7,11", {"zcc.homology"} | POOL),
    ("count --d 2,2,2 --n 1 --q 11 --threads 2",
     {"zcc.euler", "zcc.homology", "zcc.stabkit"} | POOL),
], ids=["version", "lattice", "betti", "count", "count-burnside", "weighted",
        "count-euler", "report", "count-threads"])
def test_startup_imports_only_the_layers_a_command_runs(argv, absent):
    absent = absent | (NEVER - _loaded_by_bare_interpreter())
    assert not _modules_loaded_by(argv.split()) & absent


def test_no_module_imports_a_process_or_thread_pool():
    banned = {"multiprocessing", "concurrent", "threading"}
    for path in sorted(pathlib.Path(zcc.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = {node.module.split(".")[0]}
            else:
                continue
            assert not roots & banned, (path.name, node.lineno)


def test_poly_nesting_within_limit(capsys):
    rc, payload = run_json(capsys, ["weighted", "--d", "2", "--n", "2", "--q", "3",
                                    "--poly", "(" * 50 + "X[1,2]" + ")" * 50])
    assert rc == 0
    assert payload["total"] == "3"


def test_betti_computes_one_interval_per_block_shape(capsys, monkeypatch):
    calls = []
    original = homology.interval_homology

    def counting(L, element, *rest):
        calls.append(element)
        return original(L, element, *rest)

    monkeypatch.setattr(homology, "interval_homology", counting)
    rc, payload = run_json(capsys, ["betti", "--d", "2,2", "--n", "1"])
    assert rc == 0
    assert payload["betti"] == [1, 4, 6, 3]
    # the first element of each one-block shape, then the first element with
    # two non-singleton blocks, which checks the product rule
    shapes = nlattice.block_shapes(nlattice.build_lattice((2, 2), 1))
    first = {}
    for idx, shape in enumerate(shapes):
        if len(shape) == 1:
            first.setdefault(shape[0], idx)
    spot = next(idx for idx, shape in enumerate(shapes) if len(shape) > 1)
    assert calls == sorted(first.values()) + [spot]


def test_lattice_computes_mobius_once(capsys, monkeypatch):
    calls = []
    original = nlattice.mobius

    def counting(L):
        calls.append(L)
        return original(L)

    monkeypatch.setattr(nlattice, "mobius", counting)
    monkeypatch.setattr(cli, "mobius", counting)
    rc, payload = run_json(capsys, ["lattice", "--d", "2,2", "--n", "1"])
    assert rc == 0
    assert payload["point_count_coefficients"] == [0, -3, 6, -4, 1]
    assert len(calls) == 1


# sha256 of stdout as recorded for the benchmark's topology jobs
@pytest.mark.parametrize("argv, digest", [
    ("lattice --d 3,3,2 --n 1",
     "4445db0ec51db7ce10e3a6e16b1deafedea4cc3879775039cbb1e48bf6e05e1d"),
    ("betti --d 3,3 --n 1",
     "a7eb8f0bdd920e5d25ddb077c70c11c3418bfc0d592b3ef66215f0e1674e0c70"),
])
def test_topology_stdout_pinned(capsys, argv, digest):
    assert run(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout as recorded for the benchmark's record-heavy census and sweep jobs
@pytest.mark.parametrize("argv, digest", [
    ("count --d 6 --n 2 --q 5",
     "9bac28856a2dea336be0cd4336fee50c9ab4d59549e903d164f93f6a1b9cc026"),
    ("weighted --d 5,3 --n 1 --q 4 --poly X[1,1]^2-X[1,2]",
     "69b45a9fd85a76c942ee943e7c1225f5dbe2fb498a98084b2be652d028f9d193"),
    ("report --m 1 --n 2 --d-list 2,3,4 --q-list 2,3,5,7,11",
     "2f62b246938eabeff3f6c6245e879da276c76e909590780a46da0159d94d6152"),
])
def test_record_heavy_stdout_pinned(capsys, argv, digest):
    assert run(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout of census runs the benchmark does not make: csv, the ordered,
# burnside and euler modes on small inputs, and a weighted census over F_9
@pytest.mark.parametrize("argv, digest", [
    ("count --d 2,2 --n 1 --q 3 --format csv",
     "05bbe77f318e45a4e9dfa4e25ca5d09b7cf560cac5c135cc36027f7b387b8e8b"),
    ("count --d 2,1 --n 1 --q 4 --mode ordered",
     "f93fb04d49cc82d5fb406021d8fe6a7be1037f427fc8e99858ca23e97ff95861"),
    ("weighted --d 2,2 --n 1 --q 3 --mode burnside --poly X[1,1]*X[2,1]",
     "ae6fa42ed71df8f7f7ef753ab8371aa24867fbd910a1c333deb3e2d4a4f43cf9"),
    ("weighted --d 3,3 --n 1 --q 5 --mode euler --poly X[1,1]^2",
     "f64b3cf2c3781ba71f79de5c76544245bc85074df37ec3009be28fe9e9019492"),
    ("weighted --d 2,1 --n 2 --q 9 --poly X[1,1]^2-X[1,2]",
     "0a41c4ed0576767dacf7feab2030f2269566106e65ed1373474347ab08517eef"),
])
def test_census_stdout_pinned(capsys, argv, digest):
    assert run(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout of report and interpolate runs the benchmark does not make:
# unsorted samples and degrees, a truncation, two statistics, csv, and m = 3
@pytest.mark.parametrize("argv, digest", [
    ("interpolate --samples 5=20,2=2,3=6 --topdim 3",
     "ffa8071d5b48a844dc46e8b9b48fe2e93a32803c549c3e1176012965232f2d69"),
    ("interpolate --samples 5=20,2=2,3=6 --topdim 3 --format csv",
     "f64641012789b652d4d619ed9b4d57efff0d5e9f943bc00de1f3b23c2657906f"),
    ("report --m 2 --n 1 --d-list 3,1,2 --q-list 2,3,5,7,11,13,17 --polys X[1,1];1 "
     "--truncation 2",
     "25a1a5beec7ba1b8009edb05c84dbf9bb90d2dd7df8626c641d9c5a944335a80"),
    ("report --m 2 --n 1 --d-list 3,1,2 --q-list 2,3,5,7,11,13,17 --polys X[1,1];1 "
     "--truncation 2 --format csv",
     "5c3df00206b5337fc52b9adf40367b0ff12a68e8d1e19191db68a9f3bc2ce320"),
    ("report --m 3 --n 1 --d-list 0,1 --q-list 2,3,5,7",
     "9f6b0bd3ad3bbb4a0a3fcc0e9388f52fac6febd449b4e5083d4e6e0d2ccb285c"),
])
def test_report_and_interpolate_stdout_pinned(capsys, argv, digest):
    assert run(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("key", [key for key in table("workloads.py", "DIGESTS")
                                 if key.startswith(("report", "verify"))])
def test_sweep_and_verify_stdout_pinned(capsys, tmp_path, key):
    argv = key.split()
    if argv[-1] == "--config":
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(table("workloads.py", "SWEEP_CONFIG")), encoding="utf-8")
        argv.append(str(config))
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == table("workloads.py", "DIGESTS")[key]
