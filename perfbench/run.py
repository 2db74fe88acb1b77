"""The zcc benchmark: closed-loop CLI workloads, checked from outside.

Usage (from the root of a zcc checkout):

    python3 perfbench/run.py --workload census|topology|sweep --seed N \\
        --seconds S --trace 0|1

One client runs the workload's job list in order (a pass), each job a
`python -m zcc.cli ...` call in a fresh interpreter, and starts the next job
only when the previous one has exited.  The seed picks every job's
--factor-seed and the job order of each pass; outputs do not depend on it.

--trace 0 runs passes until S seconds have gone (every job at least once)
and reports the end-to-end metrics: per-job medians summed (wall_s) and
combined geometrically (job_geomean_s), the largest job peak RSS, the median
start-up time of `zcc --version` (setup_s, sampled before every job) and
the share of job runs that passed.

--trace 1 runs every job once untraced and once under perfbench/traced_cli.py,
times the field kernels, runs the known-defect probes, and reports the
per-layer metrics.

Every job run is checked: exit code 0, the stdout digest recorded in
perfbench/workloads.py, and the closed-form count or verify's all_pass where
they apply.  The last stdout line is the JSON result; diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import SWEEP_CONFIG, WORKLOADS, check_output

ROOT = Path(__file__).resolve().parent.parent
JOB_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 5

# Span names that must fire at least once on each workload.
EXPECTED_SPANS = {
    "census": ("ffield.make_field", "polyarith.factorize",
               "charpoly.parse_charpoly", "charpoly.evaluate",
               "census.poly_records", "census.enumerate_unordered",
               "census.averaged_class_value", "census.burnside_count",
               "census._twisted_choice_table", "census.enumerate_ordered",
               "nlattice.build_lattice", "cli.render_json"),
    "topology": ("nlattice.build_lattice", "nlattice.mobius",
                 "nlattice.classify_edges", "nlattice.lower_interval",
                 "homology.order_complex", "homology.reduced_homology_ranks",
                 "homology.exact_rank", "homology.interval_homology",
                 "cli.render_json"),
    "sweep": ("ffield.make_field", "polyarith.factorize",
              "charpoly.parse_charpoly", "charpoly.evaluate",
              "census.poly_records", "census.enumerate_unordered",
              "census.averaged_class_value", "census.coprime_pair_census",
              "stabkit.lefschetz_report", "stabkit.interpolate_in_q",
              "stabkit._census_total", "cli.render_json"),
}

# Bindings made by `from .x import f` that the tracer must have replaced.
IMPORT_SITES = ("zcc.census.factorize", "zcc.census.evaluate",
                "zcc.cli.parse_charpoly", "zcc.cli.build_lattice",
                "zcc.cli.make_field", "zcc.stabkit.make_field",
                "zcc.stabkit.enumerate_unordered", "zcc.homology.lower_interval")

# Known defects, probed once per traced run and never timed: a fix makes
# these commands do more work, which would read as a regression.  Each probe
# names the exit code and stderr text that show the defect, or None for a
# defect that shows as running past PROBE_TIMEOUT_S.
PROBES = (
    ("weighted-report-interpolation",
     ("report", "--m", "2", "--n", "1", "--d-list", "1,2",
      "--q-list", "2,3,5,7,11", "--polys", "2"),
     (2, "not polynomial of expected degree"),
     "interpolate_in_q assumes a leading coefficient of 1"),
    ("field-guard-after-trial-division",
     ("count", "--d", "1", "--n", "1", "--q", "1000000000039"),
     None,
     "_field_for trial-divides q before the field size guard runs"),
)

PER_LAYER_UNITS = {
    "ffield.make_field_s": "s", "ffield.mul_raw_ns.q5": "ns",
    "ffield.mul_raw_ns.q9": "ns", "ffield.mul_raw_ns.q256": "ns",
    "ffield.pow_raw_ns.q256": "ns",
    "polyarith.factorize_calls": "count", "polyarith.factorize_s": "s",
    "charpoly.parse_s": "s", "charpoly.evaluate_calls": "count",
    "charpoly.evaluate_s": "s",
    "census.poly_records_s": "s", "census.records_built": "count",
    "census.poly_records_hit_ratio": "ratio", "census.scan_s": "s",
    "census.class_value_s": "s", "census.class_value_hit_ratio": "ratio",
    "census.burnside_s": "s", "census.twisted_table_s": "s",
    "census.ordered_s": "s", "census.coprime_s": "s",
    "nlattice.build_lattice_s": "s", "nlattice.elements": "count",
    "nlattice.covers": "count", "nlattice.mobius_s": "s",
    "nlattice.classify_edges_s": "s", "nlattice.lower_interval_s": "s",
    "homology.order_complex_s": "s", "homology.facets": "count",
    "homology.reduced_homology_s": "s", "homology.exact_rank_s": "s",
    "homology.exact_rank_calls": "count",
    "homology.interval_homology_calls": "count",
    "stabkit.report_s": "s", "stabkit.interpolate_s": "s",
    "stabkit.census_calls": "count",
    "cli.render_s": "s", "cli.output_bytes": "bytes", "cli.cpu_s": "s",
    "cli.untraced_share": "ratio", "trace.overhead_ratio": "ratio",
}

# per-layer metric -> (span name, "calls" | "total_s" | "self_s")
SPAN_METRICS = {
    "ffield.make_field_s": ("ffield.make_field", "total_s"),
    "polyarith.factorize_calls": ("polyarith.factorize", "calls"),
    "polyarith.factorize_s": ("polyarith.factorize", "total_s"),
    "charpoly.parse_s": ("charpoly.parse_charpoly", "total_s"),
    "charpoly.evaluate_calls": ("charpoly.evaluate", "calls"),
    "charpoly.evaluate_s": ("charpoly.evaluate", "total_s"),
    "census.poly_records_s": ("census.poly_records", "self_s"),
    "census.scan_s": ("census.enumerate_unordered", "self_s"),
    "census.class_value_s": ("census.averaged_class_value", "total_s"),
    "census.burnside_s": ("census.burnside_count", "self_s"),
    "census.twisted_table_s": ("census._twisted_choice_table", "total_s"),
    "census.ordered_s": ("census.enumerate_ordered", "total_s"),
    "census.coprime_s": ("census.coprime_pair_census", "total_s"),
    "nlattice.build_lattice_s": ("nlattice.build_lattice", "total_s"),
    "nlattice.mobius_s": ("nlattice.mobius", "total_s"),
    "nlattice.classify_edges_s": ("nlattice.classify_edges", "total_s"),
    "nlattice.lower_interval_s": ("nlattice.lower_interval", "total_s"),
    "homology.order_complex_s": ("homology.order_complex", "total_s"),
    "homology.reduced_homology_s": ("homology.reduced_homology_ranks", "self_s"),
    "homology.exact_rank_s": ("homology.exact_rank", "total_s"),
    "homology.exact_rank_calls": ("homology.exact_rank", "calls"),
    "homology.interval_homology_calls": ("homology.interval_homology", "calls"),
    "stabkit.report_s": ("stabkit.lefschetz_report", "self_s"),
    "stabkit.interpolate_s": ("stabkit.interpolate_in_q", "total_s"),
    "stabkit.census_calls": ("stabkit._census_total", "calls"),
    "cli.render_s": ("cli.render_json", "total_s"),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


class Runner:
    """Runs zcc CLI jobs as child processes of this checkout's sources."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.rng = random.Random(seed)
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "ZCC_THREADS")}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.env = env
        self.config_path = workdir / "sweep.json"
        self.config_path.write_text(json.dumps(SWEEP_CONFIG), encoding="utf-8")
        self.threads = str(min(2, len(os.sched_getaffinity(0))))

    def preflight(self) -> None:
        """Fail unless `zcc` imports from this checkout (this also writes the
        bytecode caches, so timed runs do not pay for compiling)."""
        if not (ROOT / "src" / "zcc" / "cli.py").is_file():
            raise SetupError(f"no src/zcc/cli.py under {ROOT}")
        probe = subprocess.run(
            [sys.executable, "-c", "import zcc.cli, zcc; print(zcc.__file__)"],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S)
        origin = Path(probe.stdout.strip() or ".").resolve()
        if probe.returncode != 0 or not origin.is_relative_to(ROOT / "src"):
            raise SetupError(f"zcc does not import from {ROOT / 'src'}: "
                             f"{probe.stderr.strip() or origin}")

    def argv(self, job, factor_seed: int) -> list:
        fill = {"{threads}": self.threads, "{config}": str(self.config_path)}
        args = [fill.get(a, a) for a in job.argv]
        if job.argv[0] != "verify":
            args += ["--factor-seed", str(factor_seed)]
        return args

    def spawn(self, cmd: list, timeout: float = JOB_TIMEOUT_S) -> dict:
        """Run one child to completion; wall time, rusage, exit code, stdout."""
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall": wall, "code": proc.returncode,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mib": usage.ru_maxrss / 1024.0,
                "stdout": out_path.read_bytes(),
                "stderr": err_path.read_text(errors="replace")}

    def cli(self, args: list) -> dict:
        return self.spawn([sys.executable, "-m", "zcc.cli"] + args)

    def traced(self, args: list) -> tuple:
        spans_path = self.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        res = self.spawn([sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
                          str(spans_path)] + args)
        spans = (json.loads(spans_path.read_text(encoding="utf-8"))
                 if spans_path.exists() else None)
        return res, spans

    def setup_sample(self) -> float:
        res = self.cli(["--version"])
        if res["code"] != 0 or not res["stdout"].strip():
            raise SetupError(f"`zcc --version` failed: {res['stderr'].strip()}")
        return res["wall"]


def checked(job, res: dict, label: str) -> bool:
    problems = check_output(job, res["code"], res["stdout"])
    for problem in problems:
        print(f"FAIL [{label}] {job.key}: {problem}", file=sys.stderr)
    if problems and res["stderr"]:
        print(res["stderr"][-2000:], file=sys.stderr)
    return not problems


def environment(seed: int) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zcc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": sys.version.split()[0], "commit": commit,
            "src_sha256": src.hexdigest(), "seed": seed}


def run_end_to_end(runner: Runner, jobs: tuple, seconds: float) -> tuple:
    seeds = {job.key: runner.rng.randrange(1, 2 ** 31) for job in jobs}
    walls = {job.key: [] for job in jobs}
    setup = []
    peak_rss = 0.0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        order = runner.rng.sample(jobs, len(jobs))
        for job in order:
            if passes and time.perf_counter() >= deadline:
                break
            setup.append(runner.setup_sample())
            res = runner.cli(runner.argv(job, seeds[job.key]))
            attempted += 1
            if not checked(job, res, "timed"):
                failed += 1
            walls[job.key].append(res["wall"])
            peak_rss = max(peak_rss, res["rss_mib"])
        passes += 1
    medians = {key: statistics.median(v) for key, v in walls.items()}
    for key, v in walls.items():
        print(f"job {medians[key]:8.3f} s  {key}  samples {v}", file=sys.stderr)
    metrics = {
        "wall_s": (sum(medians.values()), "s"),
        "job_geomean_s": (math.exp(statistics.fmean(
            math.log(v) for v in medians.values())), "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return attempted, failed, metrics


def run_probes(runner: Runner) -> None:
    for name, args, symptom, cause in PROBES:
        res = runner.spawn([sys.executable, "-m", "zcc.cli"] + list(args),
                           timeout=PROBE_TIMEOUT_S)
        timed_out = res["code"] == -signal.SIGKILL
        if symptom is None:
            present = timed_out
        else:
            code, text = symptom
            present = res["code"] == code and text in res["stderr"]
        state = "still present" if present else "no longer reproduces"
        seen = (f"ran past {PROBE_TIMEOUT_S} s" if timed_out
                else f"exit {res['code']}: {res['stderr'].strip()[-200:]}")
        print(f"known-defect {name}: {state} ({seen}); {cause}")


def span_totals(traces: list) -> dict:
    """(name, field) -> sum over jobs; also (caller, name) call counts."""
    totals = {}
    for trace in traces:
        for span in trace["spans"]:
            for field in ("calls", "total_s", "self_s"):
                key = (span["name"], field)
                totals[key] = totals.get(key, 0) + span[field]
            edge = (span["caller"], span["name"], "calls")
            totals[edge] = totals.get(edge, 0) + span["calls"]
    return totals


def hit_ratio(traces: list, name: str) -> float:
    hits = sum(t["cache"][name]["hits"] for t in traces)
    misses = sum(t["cache"][name]["misses"] for t in traces)
    return hits / (hits + misses) if hits + misses else 0.0


def run_traced(runner: Runner, workload: str, jobs: tuple) -> tuple:
    seeds = {job.key: runner.rng.randrange(1, 2 ** 31) for job in jobs}
    attempted = failed = 0
    plain_wall = traced_wall = cpu = covered = 0.0
    output_bytes = 0
    traces = []
    ok = True
    for job in runner.rng.sample(jobs, len(jobs)):
        args = runner.argv(job, seeds[job.key])
        plain = runner.cli(args)
        res, trace = runner.traced(args)
        attempted += 2
        failed += (not checked(job, plain, "untraced")) + (not checked(job, res, "traced"))
        plain_wall += plain["wall"]
        cpu += plain["cpu"]
        output_bytes += len(plain["stdout"])
        traced_wall += res["wall"]
        if trace is None:
            print(f"FAIL [trace] {job.key}: no spans written", file=sys.stderr)
            ok = False
            continue
        traces.append(trace)
        covered += trace["covered_s"]
        missing = [s for s in IMPORT_SITES if s not in trace["patched_sites"]]
        if missing:
            print(f"FAIL [trace] unpatched import sites: {missing}", file=sys.stderr)
            ok = False

    totals = span_totals(traces)
    silent = [name for name in EXPECTED_SPANS[workload]
              if not totals.get((name, "calls"))]
    if silent:
        print(f"FAIL [trace] spans that never fired on {workload}: {silent}",
              file=sys.stderr)
        ok = False

    kernels = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "kernels.py")], env=runner.env,
        cwd=ROOT, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if kernels.returncode != 0:
        raise SetupError(f"kernel microbenchmarks failed: {kernels.stderr.strip()}")
    kernel = json.loads(kernels.stdout)
    for problem in kernel["problems"]:
        print(f"FAIL [kernel] {problem}", file=sys.stderr)
        ok = False

    run_probes(runner)

    counts = {}
    for trace in traces:
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
    values = {metric: totals.get(span, 0) for metric, span in SPAN_METRICS.items()}
    values.update(kernel["metrics"])
    values.update({
        # every record poly_records builds costs one factorize call
        "census.records_built": totals.get(
            ("census.poly_records", "polyarith.factorize", "calls"), 0),
        "census.poly_records_hit_ratio": hit_ratio(traces, "census.poly_records"),
        "census.class_value_hit_ratio": hit_ratio(
            traces, "census.averaged_class_value"),
        "nlattice.elements": counts.get("nlattice.elements", 0),
        "nlattice.covers": counts.get("nlattice.covers", 0),
        "homology.facets": counts.get("homology.facets", 0),
        "cli.output_bytes": output_bytes,
        "cli.cpu_s": cpu,
        "cli.untraced_share": (traced_wall - covered) / traced_wall,
        "trace.overhead_ratio": traced_wall / plain_wall,
    })
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    return attempted, failed, metrics, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workdir, args.seed)
        runner.preflight()
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        jobs = WORKLOADS[args.workload]
        if args.trace:
            attempted, failed, metrics, ok = run_traced(runner, args.workload, jobs)
        else:
            attempted, failed, metrics = run_end_to_end(runner, jobs, args.seconds)
            ok = True
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
