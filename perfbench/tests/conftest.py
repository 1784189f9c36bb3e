"""Shared set-up for the benchmark's own tests: run them from the repository
root with ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
