"""Benchmark of the modforms CLI: seeded lists of `modforms ... --output json`
jobs, each in a fresh interpreter, one job in flight at a time (a closed loop
with one client), every verdict checked against golden outputs.

    python3 perfbench/run.py --workload series|hecke|analytic|all --seed N
                             --seconds S --trace 0|1

Run it from the repository root. With --trace 0 it measures the end-to-end
metrics; with --trace 1 it alternates plain passes and passes under the
span tracer and reports the per-layer metrics. Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Each run also appends its full record (drawn
argv lists, per-job measurements, environment) to --results, by default
.perfbench_out/runs.jsonl; perfbench/compare.py compares two such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from mfbench import metrics
from mfbench.env import environment_record
from mfbench.golden import check_output, load_golden
from mfbench.jobs import WORKLOAD_NAMES, Job, draw_jobs
from mfbench.proc import child_env, cli_argv, run_process

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
TRACER = Path(__file__).resolve().parent / "mfbench" / "tracer.py"
SETUP_REPEATS = 9


class Runner:
    """Runs one workload's job list and keeps every job measurement."""

    def __init__(self, workload: str, jobs: list[Job]):
        self.jobs = jobs
        self.golden = load_golden(workload)
        self.env = child_env(ROOT)
        self.records: list[dict] = []
        self.failures: list[dict] = []

    def run_job(self, job: Job, trace_path: Path | None = None):
        if trace_path is None:
            argv = cli_argv(job.argv)
        else:
            argv = [sys.executable, str(TRACER), str(trace_path), *job.argv]
        res = run_process(argv, self.env, ROOT)
        problem = check_output(self.golden, job, res.returncode, res.stdout)
        self.records.append({
            "argv": job.argv, "traced": trace_path is not None, "exit": res.returncode,
            "wall_s": res.wall_s, "cpu_s": res.cpu_s, "maxrss_mb": res.maxrss_mb,
            "problem": problem,
        })
        if problem:
            self.failures.append({"argv": job.argv, "problem": problem,
                                  "stderr_tail": res.stderr[-400:]})
        return res

    def plain_pass(self) -> list:
        return [self.run_job(job) for job in self.jobs]

    def traced_pass(self) -> tuple[list, list[dict]]:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / "trace.json"
        results, traces = [], []
        for job in self.jobs:
            trace_path.unlink(missing_ok=True)
            results.append(self.run_job(job, trace_path))
            try:
                traces.append(json.loads(trace_path.read_text()))
            except (OSError, ValueError):
                traces.append({"spans": {}, "counters": {}, "distinct": {}})
        trace_path.unlink(missing_ok=True)
        return results, traces


def compile_and_time_setup(env: dict) -> list[float]:
    """Compile the sources to bytecode, then time fresh interpreters through
    `import modforms.cli`."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=170)
    times = []
    for _ in range(SETUP_REPEATS):
        res = run_process([sys.executable, "-c", "import modforms.cli"], env, ROOT)
        if res.returncode != 0:
            raise RuntimeError(f"import modforms.cli failed: {res.stderr.strip()}")
        times.append(res.wall_s)
    return times


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()  # set-up counts against --seconds too
    runner = Runner(workload, draw_jobs(workload, seed))
    setup_times = compile_and_time_setup(runner.env)
    passes_start = time.perf_counter()
    plain, traced = [], []
    while True:
        plain.append(runner.plain_pass())
        if trace:
            traced.append(runner.traced_pass())
        now = time.perf_counter()
        if now - start + (now - passes_start) / len(plain) > seconds:
            break
    plain_walls = [sum(r.wall_s for r in p) for p in plain]
    if trace:
        per_pass = [
            metrics.per_layer(traces, sum(r.wall_s for r in results), wall)
            for (results, traces), wall in zip(traced, plain_walls)
        ]
        values = {name: statistics.median_low(p[name] for p in per_pass) for name, _, _ in metrics.PER_LAYER}
    else:
        values = metrics.end_to_end(setup_times, plain)
    attempted = len(runner.records)
    values["failed_frac"] = len(runner.failures) / attempted
    gated = [n for n, _, _ in metrics.PER_LAYER] if trace else [n for n, _ in metrics.END_TO_END]

    def as_metrics(names):
        return {name: {"value": values[name], "unit": metrics.UNITS[name]} for name in names}

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment_record(ROOT),
        "jobs": [job.as_json() for job in runner.jobs],
        "passes": len(plain), "setup_times_s": setup_times,
        "attempted": attempted, "failed": len(runner.failures),
        "failures": runner.failures, "job_runs": runner.records,
        "metrics": as_metrics(gated),
        "informational": as_metrics(n for n, _ in metrics.INFORMATIONAL if n in values),
    }


def report(record: dict) -> None:
    jobs = record["jobs"]
    kind = "plain+traced pass pairs" if record["trace"] else "passes"
    print(f"# workload {record['workload']}  seed {record['seed']}  {len(jobs)} jobs, "
          f"{record['passes']} {kind}, {record['attempted']} job runs, one client, closed loop")
    for name, m in (record["metrics"] | record["informational"]).items():
        print(f"{record['workload']:<9} {name:<46} {m['value']:>14.6g} {m['unit']}")
    for f in record["failures"]:
        print(f"FAILED  modforms {' '.join(f['argv'])}: {f['problem']}")


def main() -> int:
    parser = argparse.ArgumentParser(description="modforms CLI benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=OUT_DIR / "runs.jsonl",
                        help="JSON-lines file the run records are appended to")
    args = parser.parse_args()
    if not (ROOT / "src" / "modforms" / "cli.py").is_file():
        print(f"error: no modforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    for record in records:
        report(record)
    summary = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": records[0]["metrics"] if len(records) == 1 else {
            f"{r['workload']}.{name}": m for r in records for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
