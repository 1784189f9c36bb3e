"""Seeded draws: reproducible, valid for the CLI and covered by golden files."""

import pytest

from mfbench.golden import golden_key, load_golden
from mfbench.jobs import FAMILIES, WORKLOAD_NAMES, cusp_weights, dim_cusp, draw_jobs


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_seed_same_list(workload):
    assert draw_jobs(workload, 7) == draw_jobs(workload, 7)
    assert [j.argv for j in draw_jobs(workload, 7)] != [j.argv for j in draw_jobs(workload, 8)]


def test_dim_cusp_matches_known_dimensions():
    known = {12: 1, 14: 0, 16: 1, 24: 2, 26: 1, 36: 3, 38: 2, 100: 8}
    assert {k: dim_cusp(k) for k in known} == known


def test_cusp_weights_exclude_spaces_without_cusp_forms():
    weights = cusp_weights(12, 44)
    assert 14 not in weights and 12 in weights and 26 in weights
    assert all(k % 2 == 0 and dim_cusp(k) >= 1 for k in cusp_weights(12, 100))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_draw_has_a_passing_golden_entry(workload):
    """A drawn job never lacks a golden output, and no golden output is a
    rejection (exit 2) or a failed check (exit 1)."""
    golden = load_golden(workload)
    for seed in range(40):
        for job in draw_jobs(workload, seed):
            assert golden[golden_key(job)]["exit"] == 0, job.argv


def test_family_mix_is_fixed_per_workload():
    for workload in WORKLOAD_NAMES:
        counts = {f.name: f.count for f in FAMILIES[workload]}
        for seed in (1, 2, 3):
            drawn = {}
            for job in draw_jobs(workload, seed):
                drawn[job.family] = drawn.get(job.family, 0) + 1
            assert drawn == counts
