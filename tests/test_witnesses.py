"""The witness matrix: every kernel below is corrupted in a copy of the
package by raising one entry of what it computes by 1, ahead of any check of
its own, and every small command that the kernel serves is run on the copy.

Each such run must fail as a run-time check fails: exit 2, one line on
stderr and nothing on stdout.  `verify` prints its table of checks on
stderr, so there the last stderr line is the error, or the corruption shows
as a FAIL row under `"all_pass": false`, also with exit 2.  A run that the corruption does not stop is
listed in UNWITNESSED with the reason, and is run as well, to show that it
still exits 0; no kernel or command is left out silently.
"""

import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import zcc

SOURCE = pathlib.Path(zcc.__file__).resolve().parent

EULER = ("count --d 2,2 --n 1 --q 3 --mode euler",
         "weighted --d 3,3 --n 1 --q 5 --mode euler --poly X[1,1]^2",
         "report --m 2 --n 1 --d-list 1,2 --q-list 2,3,5,7,11 --polys X[1,1]",
         "report --m 1 --n 2 --d-list 1,2 --q-list 2,3,5 --polys X[1,1]^2")

# kernel -> (module, text, the text with the corruption, the commands it serves)
KERNELS = {
    "rank_mod2": (
        "homology", "    return len(pivots)\n\n\ndef rank_mod_p",
        "    return len(pivots) + 1\n\n\ndef rank_mod_p",
        ("betti --d 2,2 --n 1", "betti --d 7 --n 3")),
    "exact_rank": (
        "homology", "    return len(pivots)\n\n\ndef rank_mod2",
        "    return len(pivots) + 1\n\n\ndef rank_mod2", ("betti --d 7 --n 3",)),
    "mobius": (
        "nlattice", "    _check_multiplicative(L, values)\n",
        "    values[-1] += 1\n    _check_multiplicative(L, values)\n",
        ("lattice --d 2,2 --n 1", "betti --d 2,2 --n 1", "verify")),
    "product_rule": (
        "homology", "    return ranks\n\n\ndef complement_contributions",
        "    ranks = {**ranks, 0: ranks.get(0, 0) + 1}\n"
        "    return ranks\n\n\ndef complement_contributions",
        ("betti --d 2,2 --n 1", "betti --d 3 --n 2")),
    "_fold": (
        "census", "    tuples = prod(",
        "    for labels in list(members)[:1]:\n        members[labels] += 1\n"
        "    tuples = prod(",
        ("count --d 2,2 --n 1 --q 3", "count --d 2,1 --n 1 --q 3 --mode ordered",
         "count --d 2,1 --n 1 --q 3 --mode burnside",
         "weighted --d 2,2 --n 1 --q 3 --poly X[1,1]",
         "count --d 2,2 --n 1 --q 3 --mode euler", EULER[3], "verify")),
    "_twisted_column": (
        "census", "    if (total := sum(column.values())) != field.q ** sum(lam):",
        "    column[next(iter(column))] += 1\n"
        "    if (total := sum(column.values())) != field.q ** sum(lam):",
        ("count --d 2,1 --n 1 --q 3 --mode burnside",
         "weighted --d 2,2 --n 1 --q 3 --mode burnside --poly X[1,1]*X[2,1]", "verify")),
    "_binomial_weights": (
        "euler", "    return weights\n",
        "    weights[next(iter(weights))] += 1\n    return weights\n",
        EULER + ("count --d 11 --n 1 --q 2 --mode euler",)),
    "_exp_pass": (
        "euler", "    return G\n",
        "    G[states[-1][0]] = G.get(states[-1][0], 0) + 1\n    return G\n", EULER),
    "_log_derivative": (
        "euler", "    return K\n",
        "    K[states[-1][0]] = K.get(states[-1][0], 0) + 1\n    return K\n", EULER),
    "_newton": (
        "stabkit", "    return coeffs\n\n\ndef _trim",
        "    coeffs[0] += 1\n    return coeffs\n\n\ndef _trim",
        ("interpolate --samples 2=2,3=6,5=20",
         "interpolate --samples 2=2,3=6,5=20 --expected-degree 2",
         "interpolate --samples 2=2,3=6,5=20,7=42 --expected-degree 2", EULER[2])),
    "factorize": (
        "polyarith", "    return tuple(sorted(collected))\n",
        "    collected[0] = (collected[0][0], collected[0][1] + 1)\n"
        "    return tuple(sorted(collected))\n",
        ("count --d 2,2 --n 1 --q 3", "weighted --d 2,2 --n 1 --q 3 --poly X[1,1]",
         "count --d 2,2 --n 1 --q 3 --mode euler", EULER[2], EULER[3], "verify")),
}

# (kernel, command) -> why the corrupted run still exits 0
UNWITNESSED = {
    ("mobius", "lattice --d 2,2 --n 1"):
        "lattice checks the Mobius values only by multiplicativity, which compares "
        "the one-block elements of one block shape with each other and the others "
        "with their blocks; the top of (2,2)/1 is the only element of its shape",
    ("_binomial_weights", "count --d 11 --n 1 --q 2 --mode euler"):
        "above EULER_RECOUNT_DEGREE the Euler route checks only its member count, "
        "which the weights do not enter",
}

# Runs each command of argv[1] (a JSON list) in this process, as `zcc` would,
# and prints [exit code, stdout, stderr] per command as one JSON list.
_DRIVER = """
import contextlib, io, json, sys
from zcc import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv.split())
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_every_kernel_is_in_the_matrix():
    assert sorted(KERNELS) == sorted(
        ["rank_mod2", "exact_rank", "mobius", "product_rule", "_fold", "_twisted_column",
         "_binomial_weights", "_exp_pass", "_log_derivative", "_newton", "factorize"])
    assert {kernel for kernel, _argv in UNWITNESSED} <= set(KERNELS)
    for kernel, argv in UNWITNESSED:
        assert argv in KERNELS[kernel][3]


def test_every_anchor_lies_in_its_kernel():
    for kernel, (module, text, _corrupted, _commands) in KERNELS.items():
        source = (SOURCE / f"{module}.py").read_text(encoding="utf-8")
        assert source.count(text) == 1, f"the corruption's place is not unique in {module}"
        line = source[:source.index(text)].count("\n") + 1
        spans = [(node.lineno, node.end_lineno) for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef) and node.name == kernel]
        assert len(spans) == 1 and spans[0][0] <= line <= spans[0][1], (kernel, line, spans)


def _run_corrupted(tmp_path, module, text, corrupted, commands) -> list:
    copy = tmp_path / "zcc"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / f"{module}.py"
    source = path.read_text(encoding="utf-8")
    assert source.count(text) == 1, f"the corruption's place is not unique in {module}"
    path.write_text(source.replace(text, corrupted), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", _DRIVER, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_corrupted_kernel_stops_every_command_it_serves(tmp_path, kernel):
    module, text, corrupted, commands = KERNELS[kernel]
    results = _run_corrupted(tmp_path, module, text, corrupted, list(commands))
    for argv, (code, out, err) in zip(commands, results):
        if (kernel, argv) in UNWITNESSED:
            assert (code, err) == (0, ""), (kernel, argv, err)
        elif argv == "verify":
            assert code == 2, (kernel, argv, err)
            if out:
                assert "\nFAIL " in "\n" + err and json.loads(out)["all_pass"] is False
            else:
                assert err.splitlines()[-1].startswith("error: "), (kernel, argv, err)
        else:
            assert (code, out) == (2, ""), (kernel, argv, code, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (kernel, argv, err)
