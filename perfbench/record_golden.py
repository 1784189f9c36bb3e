"""Record the golden outputs the benchmark checks every job against.

Runs every job each workload can draw (for q-expansion families, only the
largest precision, whose coefficients cover every smaller one) and writes
perfbench/golden/<workload>.json. Run it from the repository root, on the
code whose outputs are to become the reference:

    python3 perfbench/record_golden.py [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from mfbench.env import environment_record
from mfbench.golden import check_output, golden_entry, golden_key, write_golden
from mfbench.jobs import FAMILIES, FAMILY_BY_NAME, Job, golden_jobs
from mfbench.proc import child_env, cli_argv, run_process

ROOT = Path(__file__).resolve().parent.parent


def record(workload: str) -> None:
    env = child_env(ROOT)
    entries = {}
    for job in golden_jobs(FAMILIES[workload]):
        res = run_process(cli_argv(job.argv), env, ROOT)
        if res.returncode == 2:
            sys.exit(f"{' '.join(job.argv)}: the CLI rejects this input: {res.stderr.strip()}")
        payload = json.loads(res.stdout)
        key = golden_key(job)
        if FAMILY_BY_NAME[job.family].golden == "prefix":
            entries[key] = {"exit": res.returncode, "payload": payload}
        else:
            entries[key] = golden_entry(res.returncode, payload)
        print(f"{res.wall_s:7.3f}s exit {res.returncode}  {' '.join(job.argv)}", flush=True)
    # the prefix rule must hold: a lower precision reproduces the stored prefix
    for fam in FAMILIES[workload]:
        if fam.golden == "prefix":
            for param in (fam.domain[0], fam.domain[len(fam.domain) // 2]):
                job = Job(fam.name, param)
                res = run_process(cli_argv(job.argv), env, ROOT)
                problem = check_output(entries, job, res.returncode, res.stdout)
                if problem:
                    sys.exit(f"{' '.join(job.argv)}: prefix rule fails: {problem}")
    write_golden(workload, {"recorded_from": environment_record(ROOT), "jobs": entries})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(FAMILIES), action="append")
    args = parser.parse_args()
    for workload in args.workload or sorted(FAMILIES):
        record(workload)


if __name__ == "__main__":
    main()
