"""The benchmark's command-line contract and its comparison mode."""

import json
import shutil
import subprocess
import sys

from conftest import BENCH_DIR, ROOT
from mfbench import metrics

import compare

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_the_metrics_the_harness_reports():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_prints_checked_metrics_and_records_the_draw(tmp_path):
    results = tmp_path / "runs.jsonl"
    res = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "hecke", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--results", str(results)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == dict(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    printed = {line.split()[1] for line in lines[:-1] if not line.startswith("#")}
    assert {"failed_frac", metrics.TAIL} | set(summary["metrics"]) <= printed
    record = json.loads(results.read_text().splitlines()[-1])
    assert record["jobs"] and all(j["argv"][-2:] == ["--output", "json"] for j in record["jobs"])
    assert {"git_sha", "python", "nproc", "gmpy2", "python_flint"} <= set(record["environment"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_verdicts_follow_bounds_and_spread():
    old = {s: 10.0 + 0.01 * s for s in range(10)}
    assert compare.verdict(old, {s: v * 1.3 for s, v in old.items()}, "lower", 0.1)[0] == "worse"
    assert compare.verdict(old, {s: v * 0.7 for s, v in old.items()}, "lower", 0.1)[0] == "better"
    assert compare.verdict(old, {s: v * 1.05 for s, v in old.items()}, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(old, {s: v * 1.3 for s, v in old.items()}, "higher", None)[0] == "better"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}  # spread wider than the change
    assert compare.verdict(noisy, {s: v * 1.3 for s, v in noisy.items()}, "lower", 0.1)[0] == "unresolved"


def test_compare_prints_a_row_per_workload_and_metric(tmp_path, capsys):
    for name, scale in (("old", 1.0), ("new", 2.0)):
        with open(tmp_path / f"{name}.jsonl", "w") as fh:
            for seed in range(5):
                fh.write(json.dumps({"workload": "series", "seed": seed, "metrics": {
                    "wall_s": {"value": scale * (5 + 0.01 * seed), "unit": "s"},
                    "peak_rss_mb": {"value": 30.0, "unit": "MB"}}}) + "\n")
    assert compare.main([str(tmp_path / "old.jsonl"), str(tmp_path / "new.jsonl")]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    verdicts = {row.split()[1]: row.split()[-1] for row in rows}
    assert verdicts == {"wall_s": "worse", "peak_rss_mb": "unresolved"}
