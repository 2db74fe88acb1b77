"""Microbenchmarks of the field kernels FieldSpec.mul_raw and pow_raw.

Usage: python perfbench/kernels.py

Prints one JSON object: nanoseconds per call (median over repeats) and the
problems found by checking the kernels on the timed operands:
x^q == x, a*b == b*a and a*inv(a) == 1.  Operands come from a fixed seed so
every run times the same calls.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from zcc.ffield import make_field

REPEATS = 7
FIELDS = {"q5": (5, 1), "q9": (3, 2), "q256": (2, 8)}
MUL_CALLS = {"q5": 20000, "q9": 2000, "q256": 500}
POW_CALLS = {"q256": 60}


def _per_call_ns(fn, args) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for a, b in args:
            fn(a, b)
        samples.append((time.perf_counter_ns() - t0) / len(args))
    return statistics.median(samples)


def _check(tag, field, pairs) -> list:
    q = field.q
    problems = []
    for a, b in pairs:
        if field.pow_raw(a, q) != a:
            problems.append(f"{tag}: x^q != x for x={a}")
        if field.mul_raw(a, b) != field.mul_raw(b, a):
            problems.append(f"{tag}: a*b != b*a for a={a} b={b}")
        if a and field.mul_raw(a, field.inv_raw(a)) != 1:
            problems.append(f"{tag}: a*inv(a) != 1 for a={a}")
    return problems


def main() -> None:
    rng = random.Random(20171019)
    metrics = {}
    problems = []
    for tag, (p, e) in FIELDS.items():
        field = make_field(p, e)
        q = field.q
        pairs = [(rng.randrange(1, q), rng.randrange(1, q))
                 for _ in range(MUL_CALLS[tag])]
        metrics[f"ffield.mul_raw_ns.{tag}"] = _per_call_ns(field.mul_raw, pairs)
        problems += _check(tag, field, pairs[:200])
        if tag in POW_CALLS:
            pows = [(rng.randrange(1, q), rng.randrange(2, q))
                    for _ in range(POW_CALLS[tag])]
            metrics[f"ffield.pow_raw_ns.{tag}"] = _per_call_ns(field.pow_raw, pows)
    print(json.dumps({"metrics": metrics, "problems": problems}))


if __name__ == "__main__":
    main()
