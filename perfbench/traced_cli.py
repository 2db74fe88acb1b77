"""Run one zcc CLI command with spans around each layer's entry points.

Usage: python perfbench/traced_cli.py SPANS_JSON ARG...

Behaves like `python -m zcc.cli ARG...` (same stdout, same exit code) and,
at exit, writes the aggregated spans to SPANS_JSON.  Spans are kept in
memory per (caller, name) pair: calls, total seconds and self seconds (total
minus the time of direct child spans).  Every module-level binding of a
wrapped function is replaced, so names imported with `from .x import f` are
traced where they are looked up.  The zcc sources are not modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from zcc import (census, charpoly, cli, ffield, homology, nlattice, polyarith,
                 stabkit)

MODULES = (census, charpoly, cli, ffield, homology, nlattice, polyarith, stabkit)

# span name -> (defining module, attribute)
WRAPPED = {
    "ffield.make_field": (ffield, "make_field"),
    "polyarith.factorize": (polyarith, "factorize"),
    "charpoly.parse_charpoly": (charpoly, "parse_charpoly"),
    "charpoly.evaluate": (charpoly, "evaluate"),
    "census.poly_records": (census, "poly_records"),
    "census.enumerate_unordered": (census, "enumerate_unordered"),
    "census.averaged_class_value": (census, "averaged_class_value"),
    "census.burnside_count": (census, "burnside_count"),
    "census._twisted_choice_table": (census, "_twisted_choice_table"),
    "census.enumerate_ordered": (census, "enumerate_ordered"),
    "census.coprime_pair_census": (census, "coprime_pair_census"),
    "nlattice.build_lattice": (nlattice, "build_lattice"),
    "nlattice.mobius": (nlattice, "mobius"),
    "nlattice.classify_edges": (nlattice, "classify_edges"),
    "nlattice.lower_interval": (nlattice, "lower_interval"),
    "homology.order_complex": (homology, "order_complex"),
    "homology.reduced_homology_ranks": (homology, "reduced_homology_ranks"),
    "homology.exact_rank": (homology, "exact_rank"),
    "homology.interval_homology": (homology, "interval_homology"),
    "stabkit.lefschetz_report": (stabkit, "lefschetz_report"),
    "stabkit.interpolate_in_q": (stabkit, "interpolate_in_q"),
    "stabkit._census_total": (stabkit, "_census_total"),
    "cli.render_json": (cli, "render_json"),
}

# lru_cache objects whose cache_info() is reported
CACHED = ("census.poly_records", "census.averaged_class_value")

# counts taken from a wrapped function's result
RESULT_COUNTS = {
    "nlattice.build_lattice": lambda lattice: {
        "nlattice.elements": lattice.size, "nlattice.covers": len(lattice.covers)},
    "homology.order_complex": lambda complex_: {
        "homology.facets": len(complex_.facets)},
}


class Tracer:
    def __init__(self):
        self.spans = {}      # (caller, name) -> [calls, total_s, self_s]
        self.counts = {}
        self.covered_s = 0.0  # time inside top-level spans
        self._stack = []      # per open span: [name, child seconds]

    def wrap(self, name, fn):
        stack = self._stack
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                else:
                    self.covered_s += dt
                rec = self.spans.setdefault((caller, name), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def install(self, originals: dict) -> list:
        """Rebind every module global that holds a wrapped function; return
        the rebound sites as "module.name"."""
        sites = []
        for name, original in originals.items():
            wrapper = self.wrap(name, original)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        sites.append(f"{mod.__name__}.{key}")
        return sites

    def report(self, originals: dict, sites: list) -> dict:
        cache = {}
        for name in CACHED:
            info = originals[name].cache_info()
            cache[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "spans": [{"caller": caller, "name": name, "calls": rec[0],
                       "total_s": rec[1], "self_s": rec[2]}
                      for (caller, name), rec in self.spans.items()],
            "counts": self.counts,
            "cache": cache,
            "covered_s": self.covered_s,
            "patched_sites": sites,
        }


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    originals = {name: getattr(module, attr)
                 for name, (module, attr) in WRAPPED.items()}
    tracer = Tracer()
    sites = tracer.install(originals)
    try:
        code = cli.run(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(originals, sites), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
