"""Tracer coverage: every per-layer metric sees calls on the workload its
layer is meant for, layers a workload bypasses stay at zero, the wrapped
functions are reached through every namespace, and tracing leaves the CLI's
output unchanged."""

import json
import subprocess
import sys

import pytest

import run
from conftest import ROOT
from mfbench import metrics
from mfbench.jobs import WORKLOAD_NAMES, draw_jobs
from mfbench.proc import child_env, cli_argv, run_process
from mfbench.tracer import TRACED

# the workload on which each span must be reached
SPAN_WORKLOAD = {
    "cli.main": "series",
    "qseries.QSeries.__mul__": "series", "qseries.QSeries.inverse": "series",
    "qseries.QSeries.__pow__": "series",
    "forms.delta": "series", "forms.eisenstein_level1": "series", "forms.miller_basis": "hecke",
    "hecke.hecke_matrix": "hecke", "hecke.hecke_action": "hecke", "hecke.charpoly": "hecke",
    "hecke.eigenbasis": "hecke",
    "linalg.charpoly_rational": "hecke", "linalg.kernel_vector": "hecke",
    "linalg.invert_rational": "hecke",
    "polys.poly_irreducible": "hecke", "polys.discriminant": "hecke",
    "polys.factor_degrees_mod_p": "hecke", "polys.poly_xgcd": "analytic",
    "polys.RatPoly.__mul__": "hecke", "polys.RatPoly.__divmod__": "hecke",
    "arith.factorize": "hecke", "arith.squarefree_kernel": "hecke", "arith.sigma": "series",
    "numfield.NumberFieldElement.__mul__": "hecke", "numfield.NumberFieldElement.inverse": "hecke",
    "numfield.embed_cyclotomic": "analytic",
    "dirichlet.characters_mod": "analytic", "dirichlet.gen_bernoulli": "analytic",
    "dirichlet.bernoulli_number": "analytic",
    "identities.decompose_in_eigenbasis": "hecke", "identities.verify_table1": "hecke",
    "identities.verify_quadratic_identity": "series", "identities.verify_ramanujan": "series",
    "zeros.expand_E12n": "analytic", "zeros.find_arc_zeros": "analytic",
    "zeros.arc_function": "analytic", "zeros.jvalue_at": "analytic",
    "zeros.jvalue_algebraicity_check": "analytic",
    "roots.aberth_roots": "analytic",
    "scans.maeda_check": "hecke", "scans.finiteness_scan": "analytic", "scans.alpha_beta": "analytic",
    "scans.bernoulli_bound_check": "analytic", "scans.zeta_direct": "analytic",
}
COUNTER_WORKLOAD = {
    "qseries.QSeries.__mul__.coeff_ops": "series",
    "forms.miller_basis.distinct_frac": "hecke",
    "hecke.eigenbasis.distinct_frac": "hecke",
    "polys.poly_irreducible.witness_prime_frac": "hecke",
    "zeros.arc_evals": "analytic",
    "zeros.match_margin": "analytic",
}
SHARE_GROUPS = {
    "series": ("qseries.", "forms."),
    "hecke": ("hecke.", "polys.", "arith.", "linalg."),
    "analytic": ("zeros.", "roots.", "dirichlet."),
}


@pytest.fixture(scope="module")
def traced():
    """One traced pass over each workload's seed-1 list."""
    out = {}
    for workload in WORKLOAD_NAMES:
        runner = run.Runner(workload, draw_jobs(workload, 1))
        results, traces = runner.traced_pass()
        assert runner.failures == []
        spans = {}
        for t in traces:
            for name, s in t["spans"].items():
                acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
                acc["calls"] += s["calls"]
                acc["self_s"] += s["self_s"]
        layer = metrics.per_layer(traces, sum(r.wall_s for r in results), sum(r.wall_s for r in results))
        out[workload] = (spans, layer)
    return out


def test_every_traced_span_has_a_home_workload():
    assert set(SPAN_WORKLOAD) == set(TRACED)


@pytest.mark.parametrize("span", sorted(SPAN_WORKLOAD))
def test_span_sees_calls_on_its_workload(traced, span):
    spans, _ = traced[SPAN_WORKLOAD[span]]
    assert spans.get(span, {"calls": 0})["calls"] > 0


@pytest.mark.parametrize("metric", sorted(COUNTER_WORKLOAD))
def test_derived_metric_is_nonzero_on_its_workload(traced, metric):
    _, layer = traced[COUNTER_WORKLOAD[metric]]
    assert layer[metric] > 0


def test_per_layer_metrics_are_complete(traced):
    for _, layer in traced.values():
        assert list(layer) == [name for name, _, _ in metrics.PER_LAYER]


def test_series_bypasses_certificates_and_zero_search(traced):
    spans, layer = traced["series"]
    assert layer["polys.poly_irreducible.calls"] == 0
    assert spans.get("zeros.find_arc_zeros", {"calls": 0})["calls"] == 0


def test_self_time_shares_peak_on_their_workloads(traced):
    """qseries+forms weigh most on series, hecke+polys+arith+linalg on hecke,
    zeros+roots+dirichlet on analytic, as shares of time inside cli.main."""
    def share(workload, prefixes):
        spans, _ = traced[workload]
        inside = spans["cli.main"]["self_s"] + sum(
            s["self_s"] for n, s in spans.items() if n != "cli.main"
        )
        return sum(s["self_s"] for n, s in spans.items() if n.startswith(prefixes)) / inside

    for home, prefixes in SHARE_GROUPS.items():
        shares = {w: share(w, prefixes) for w in WORKLOAD_NAMES}
        assert max(shares, key=shares.get) == home, shares


def test_wrappers_replace_every_binding():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from mfbench.tracer import Tracer, install; install(Tracer());"
        "import modforms, modforms.forms as f, modforms.identities as i, modforms.zeros as z;"
        "assert f.delta is i.delta is z.delta is modforms.delta;"
        "assert f.delta.__wrapped__.__module__ == 'modforms.forms';"
        "import modforms.hecke as h, modforms.scans as s;"
        "assert s.hecke_matrix is h.hecke_matrix and hasattr(s.hecke_matrix, '__wrapped__')"
    )
    res = subprocess.run([sys.executable, "-c", code, str(run.TRACER.parent.parent)],
                         env=child_env(ROOT), cwd=ROOT, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_stdout_equals_untraced(workload, tmp_path):
    env = child_env(ROOT)
    for job in draw_jobs(workload, 2)[:3]:
        plain = run_process(cli_argv(job.argv), env, ROOT)
        trace = tmp_path / "t.json"
        traced = run_process([sys.executable, str(run.TRACER), str(trace), *job.argv], env, ROOT)
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout), job.argv
        assert json.loads(trace.read_text())["spans"]["cli.main"]["calls"] == 1
