"""The benchmark's trace run patches zcc functions by name: keep those names.

perfbench/traced_cli.py wraps the functions in WRAPPED, and perfbench/run.py
requires the module-level bindings in IMPORT_SITES to be patched and the
spans in EXPECTED_SPANS to fire.  The tables are read from the source, so a
deletion, rename or lost caller in zcc fails here rather than in a benchmark
run.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import zcc
from perfbench_tables import PERFBENCH, assigned, table


def _wrapped() -> dict:
    """Span name -> the function it wraps, as WRAPPED's (module, attribute)."""
    wrapped = assigned("traced_cli.py", "WRAPPED")
    out = {}
    for key, value in zip(wrapped.keys, wrapped.values):
        module, attr = value.elts
        defining = importlib.import_module(f"zcc.{module.id}")
        out[ast.literal_eval(key)] = getattr(defining, ast.literal_eval(attr), None)
    return out


def test_every_wrapped_function_exists():
    wrapped = _wrapped()
    assert wrapped
    missing = [span for span, fn in wrapped.items() if not callable(fn)]
    assert not missing


def test_every_import_site_binds_its_wrapped_function():
    by_name = {span.rpartition(".")[2]: fn for span, fn in _wrapped().items()}
    sites = table("run.py", "IMPORT_SITES")
    assert sites
    for site in sites:
        module, _, name = site.rpartition(".")
        bound = vars(importlib.import_module(module)).get(name)
        assert bound is not None and bound is by_name.get(name), site


def _trace(tmp_path, commands) -> tuple:
    """(the spans that fire, the summed result counts) over traced runs of
    these commands."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zcc.__file__)))
    env.pop("ZCC_THREADS", None)
    fired = set()
    counts = {}
    for i, argv in enumerate(commands):
        spans = tmp_path / f"{i}.json"
        subprocess.run([sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans),
                        *argv.split()], env=env, capture_output=True, check=True,
                       timeout=120)
        trace = json.loads(spans.read_text(encoding="utf-8"))
        fired |= {span["name"] for span in trace["spans"] if span["calls"]}
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return fired, counts


# Every span the sweep workload expects must fire on these two reports: the
# first recounts through coprime_pair_census, the second through
# enumerate_unordered.
SWEEP_REPORTS = ("report --m 2 --n 1 --d-list 1,2 --q-list 2,3,5,7,11 --polys X[1,1]",
                 "report --m 1 --n 2 --d-list 2,3,4 --q-list 2,3,5,7,11")


def test_every_expected_sweep_span_fires(tmp_path):
    fired, _counts = _trace(tmp_path, SWEEP_REPORTS)
    expected = table("run.py", "EXPECTED_SPANS")["sweep"]
    assert expected
    assert not set(expected) - fired


# Every span the topology workload expects must fire on these two jobs (the
# second reaches exact_rank), and the counts that traced_cli reads off the
# lattice and the order complexes must come out positive.
TOPOLOGY_JOBS = ("lattice --d 3,3,2 --n 1", "betti --d 7 --n 3")


def test_every_expected_topology_span_fires(tmp_path):
    fired, counts = _trace(tmp_path, TOPOLOGY_JOBS)
    expected = table("run.py", "EXPECTED_SPANS")["topology"]
    assert expected
    assert not set(expected) - fired
    for key in ("nlattice.elements", "nlattice.covers", "homology.facets"):
        assert counts.get(key, 0) > 0, key


# Every span the census workload expects must fire on these jobs: a count
# over an extension field, a weighted census, the Burnside and ordered
# routes, and verify.
CENSUS_JOBS = ("count --d 2,2 --n 1 --q 4",
               "weighted --d 2,1 --n 1 --q 3 --poly X[1,1]^2-X[2,1]",
               "count --d 2,1 --n 1 --q 3 --mode burnside",
               "count --d 2,2 --n 1 --q 2 --mode ordered",
               "verify")


def test_every_expected_census_span_fires(tmp_path):
    fired, _counts = _trace(tmp_path, CENSUS_JOBS)
    expected = table("run.py", "EXPECTED_SPANS")["census"]
    assert expected
    assert not set(expected) - fired
