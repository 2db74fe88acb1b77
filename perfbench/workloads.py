"""Workload job lists, recorded output digests and the outside oracles.

Every job is one `python -m zcc.cli ...` call in a fresh interpreter, so a
job pays what a CLI user pays, cold caches included.  The placeholders
`{threads}` and `{config}` are filled in by the runner; a job's `key` names
it in the digest table and in the runner's reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    key: str
    argv: tuple


def _job(text: str) -> Job:
    return Job(text, tuple(text.split()))


# Counting through all three census routes on prime and extension fields:
# most of the ffield/polyarith/census/charpoly work, almost no lattice work.
CENSUS = (
    _job("count --d 6 --n 2 --q 5"),
    Job("weighted --d 4,4 --n 2 --q 5 --poly X[1,1]*X[2,1]-2",
        ("weighted", "--d", "4,4", "--n", "2", "--q", "5",
         "--poly", "X[1,1]*X[2,1] - 2")),
    _job("weighted --d 5,3 --n 1 --q 4 --poly X[1,1]^2-X[1,2]"),
    _job("count --d 3,3 --n 2 --q 9"),
    _job("count --d 4,3 --n 1 --q 4 --mode burnside"),
    _job("weighted --d 4,4 --n 2 --q 3 --mode burnside --poly X[1,1]*X[2,1]-X[2,2]"),
    _job("count --d 6,6 --n 2 --q 3 --mode ordered"),
    # the m = 3 scan on the process-pool path, capped at the cores available
    Job("count --d 2,2,2 --n 1 --q 11 --threads",
        ("count", "--d", "2,2,2", "--n", "1", "--q", "11", "--threads", "{threads}")),
    _job("verify"),
)

# Lattice and homology only, with no field arithmetic: the bypass for every
# census/ffield change.
TOPOLOGY = (
    _job("lattice --d 4,4 --n 1"),
    _job("betti --d 3,3 --n 1"),
    _job("betti --d 4,4 --n 2"),
    _job("betti --d 7 --n 3"),
    _job("lattice --d 3,3,2 --n 1"),
)

# `zcc report` over small prime fields: all the stabkit work, and the bypass
# for extension-field ffield changes.
SWEEP = (
    Job("report --m 2 --n 1 --d-list 1,2,3 --q-list 2,3,5,7,11,13,17 --polys 1;X[1,1]",
        ("report", "--m", "2", "--n", "1", "--d-list", "1,2,3",
         "--q-list", "2,3,5,7,11,13,17", "--polys", "1;X[1,1]")),
    _job("report --m 1 --n 2 --d-list 2,3,4 --q-list 2,3,5,7,11"),
    Job("report --m 2 --n 2 --d-list 1,2 --q-list 2,3,5,7,11 --polys 1;X[1,1]*X[2,1]",
        ("report", "--m", "2", "--n", "2", "--d-list", "1,2",
         "--q-list", "2,3,5,7,11", "--polys", "1;X[1,1]*X[2,1]")),
    Job("report --config", ("report", "--config", "{config}")),
)

WORKLOADS = {"census": CENSUS, "topology": TOPOLOGY, "sweep": SWEEP}

SWEEP_CONFIG = {"m": 2, "n": 1, "d_list": [1, 2, 3],
                "q_list": [2, 3, 5, 7, 11, 13, 17, 19],
                "polys": ["X[1,2]", "X[1,1]^2-X[1,2]"], "truncation": 4}

# sha256 of each job's stdout at the commit that defined the benchmark.
# Outputs do not depend on --factor-seed or --threads.
DIGESTS = {
    "count --d 6 --n 2 --q 5":
        "9bac28856a2dea336be0cd4336fee50c9ab4d59549e903d164f93f6a1b9cc026",
    "weighted --d 4,4 --n 2 --q 5 --poly X[1,1]*X[2,1]-2":
        "14a948dc61e88f201c54d088b6f93a73ec55299583eb95badea08376815e8839",
    "weighted --d 5,3 --n 1 --q 4 --poly X[1,1]^2-X[1,2]":
        "69b45a9fd85a76c942ee943e7c1225f5dbe2fb498a98084b2be652d028f9d193",
    "count --d 3,3 --n 2 --q 9":
        "a3bc4c207523cdc179a6b1b6e6164cbab9765cc8d4c266813209a1062b10b6f6",
    "count --d 4,3 --n 1 --q 4 --mode burnside":
        "04fdd17f3d0e52b6ddafd6011cd4e5a650f87451b69dba8224485b62270c5f5d",
    "weighted --d 4,4 --n 2 --q 3 --mode burnside --poly X[1,1]*X[2,1]-X[2,2]":
        "c037edb3dff9fffbb2f53d6dbe8a060982a67fc30921483eda97a144d92dfda1",
    "count --d 6,6 --n 2 --q 3 --mode ordered":
        "57c9767afe0ba35981ff6fd10a8be1e354c9372e4d1ec56aa5fd0239ce5a679f",
    "count --d 2,2,2 --n 1 --q 11 --threads":
        "3b8abea1f818bd747bdc2232e5d17d9f01b670917ec44c40726f4abdaaf24432",
    "verify":
        "305c08fb8705ccef00d430a457064b688af19ecbe137220ad55201d9b4db0ccb",
    "lattice --d 4,4 --n 1":
        "da8727bf33d0d19ea1e342d14e2c26a44e542206a2af4f38b6e0315abf21a2f3",
    "betti --d 3,3 --n 1":
        "a7eb8f0bdd920e5d25ddb077c70c11c3418bfc0d592b3ef66215f0e1674e0c70",
    "betti --d 4,4 --n 2":
        "fea7dc1754d110f8023397944edafd23d86e2193e21b5bec28d8dd014802acc0",
    "betti --d 7 --n 3":
        "92ba218e0a05b367442c03b89a9fc791a93fd4e74293314b7256f6265ff6edd8",
    "lattice --d 3,3,2 --n 1":
        "4445db0ec51db7ce10e3a6e16b1deafedea4cc3879775039cbb1e48bf6e05e1d",
    "report --m 2 --n 1 --d-list 1,2,3 --q-list 2,3,5,7,11,13,17 --polys 1;X[1,1]":
        "5270dc554fa679a308caab25b914bce1a322c99a4508d82e2eb5f3749d601384",
    "report --m 1 --n 2 --d-list 2,3,4 --q-list 2,3,5,7,11":
        "2f62b246938eabeff3f6c6245e879da276c76e909590780a46da0159d94d6152",
    "report --m 2 --n 2 --d-list 1,2 --q-list 2,3,5,7,11 --polys 1;X[1,1]*X[2,1]":
        "ed48e5e70f487a5473a0f05395de854d1e9b68f02f20dbb63800b7a88fb755cf",
    "report --config":
        "69863f8092a708f430c4a2c53358fb398b917aeac27315bd5290287b7ab6ee3d",
}


def expected_point_count(d: tuple, n: int, q: int) -> int:
    """Closed form of the unweighted census: q^|d| - q^(|d|-mn+1) when every
    d_k >= n, else q^|d| (no tuple can share an n-fold root)."""
    size = sum(d)
    if all(dk >= n for dk in d):
        return q ** size - q ** (size - len(d) * n + 1)
    return q ** size


def _flag(argv: tuple, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_output(job: Job, returncode: int, stdout: bytes) -> list:
    """Problems with one job's result; an empty list means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems = []
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != DIGESTS.get(job.key):
        problems.append(f"stdout sha256 {digest} differs from the recorded digest")
    command = job.argv[0]
    unweighted = (command == "count"
                  and _flag(job.argv, "--mode", "unordered") != "ordered")
    if unweighted or command == "verify":
        try:
            payload = json.loads(stdout)
        except ValueError:
            return problems + ["stdout is not JSON"]
        if unweighted:
            d = tuple(int(x) for x in _flag(job.argv, "--d").split(","))
            want = expected_point_count(d, int(_flag(job.argv, "--n")),
                                        int(_flag(job.argv, "--q")))
            if payload.get("point_count") != want:
                problems.append(f"point_count {payload.get('point_count')} "
                                f"!= closed form {want}")
        elif payload.get("all_pass") is not True:
            problems.append("verify did not report all_pass")
    return problems
