"""Turn one run's job measurements into the end-to-end and per-layer metrics."""

from __future__ import annotations

import statistics

TAIL_PERCENTILE = 75  # job_p75_s: at least 10 job runs lie beyond it at 40+ samples
TAIL = f"job_p{TAIL_PERCENTILE}_s"

# the metrics BENCHMARK.json gates, each with its regression bound
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)
# printed and recorded but not gated: the tail did not repeat within a tenth
# from run to run, and failed_frac is 0 whenever the program is correct
INFORMATIONAL = ((TAIL, "s"), ("failed_frac", "ratio"))

# (metric, unit, better); <span>.calls and <span>.self_s read the tracer's spans
PER_LAYER = (
    ("cli.main.s", "s", "lower"),
    ("cli.outside_main_s", "s", "lower"),
    ("qseries.QSeries.__mul__.calls", "count", "lower"),
    ("qseries.QSeries.__mul__.self_s", "s", "lower"),
    ("qseries.QSeries.__mul__.coeff_ops", "count_computed", "lower"),
    ("qseries.QSeries.inverse.self_s", "s", "lower"),
    ("qseries.QSeries.__pow__.calls", "count", "lower"),
    ("forms.delta.self_s", "s", "lower"),
    ("forms.eisenstein_level1.self_s", "s", "lower"),
    ("forms.miller_basis.calls", "count", "lower"),
    ("forms.miller_basis.self_s", "s", "lower"),
    ("forms.miller_basis.distinct_frac", "ratio", "higher"),
    ("hecke.hecke_matrix.calls", "count", "lower"),
    ("hecke.hecke_matrix.self_s", "s", "lower"),
    ("hecke.hecke_action.self_s", "s", "lower"),
    ("hecke.charpoly.self_s", "s", "lower"),
    ("hecke.eigenbasis.calls", "count", "lower"),
    ("hecke.eigenbasis.self_s", "s", "lower"),
    ("hecke.eigenbasis.distinct_frac", "ratio", "higher"),
    ("linalg.charpoly_rational.self_s", "s", "lower"),
    ("linalg.kernel_vector.self_s", "s", "lower"),
    ("linalg.invert_rational.self_s", "s", "lower"),
    ("polys.poly_irreducible.calls", "count", "lower"),
    ("polys.poly_irreducible.self_s", "s", "lower"),
    ("polys.poly_irreducible.witness_prime_frac", "ratio", "higher"),
    ("polys.poly_irreducible.unknown_frac", "ratio", "lower"),
    ("polys.discriminant.self_s", "s", "lower"),
    ("polys.factor_degrees_mod_p.calls", "count", "lower"),
    ("polys.factor_degrees_mod_p.self_s", "s", "lower"),
    ("polys.poly_xgcd.self_s", "s", "lower"),
    ("polys.RatPoly.__mul__.self_s", "s", "lower"),
    ("polys.RatPoly.__divmod__.self_s", "s", "lower"),
    ("arith.factorize.calls", "count", "lower"),
    ("arith.factorize.self_s", "s", "lower"),
    ("arith.factorize.incomplete_frac", "ratio", "lower"),
    ("arith.squarefree_kernel.self_s", "s", "lower"),
    ("arith.sigma.self_s", "s", "lower"),
    ("numfield.NumberFieldElement.__mul__.calls", "count", "lower"),
    ("numfield.NumberFieldElement.__mul__.self_s", "s", "lower"),
    ("numfield.NumberFieldElement.inverse.calls", "count", "lower"),
    ("numfield.NumberFieldElement.inverse.self_s", "s", "lower"),
    ("numfield.embed_cyclotomic.self_s", "s", "lower"),
    ("dirichlet.characters_mod.self_s", "s", "lower"),
    ("dirichlet.gen_bernoulli.calls", "count", "lower"),
    ("dirichlet.gen_bernoulli.self_s", "s", "lower"),
    ("dirichlet.bernoulli_number.self_s", "s", "lower"),
    ("identities.decompose_in_eigenbasis.self_s", "s", "lower"),
    ("identities.verify_table1.self_s", "s", "lower"),
    ("identities.verify_quadratic_identity.self_s", "s", "lower"),
    ("identities.verify_ramanujan.self_s", "s", "lower"),
    ("zeros.expand_E12n.self_s", "s", "lower"),
    ("zeros.find_arc_zeros.self_s", "s", "lower"),
    ("zeros.arc_evals", "count", "lower"),
    ("zeros.jvalue_at.self_s", "s", "lower"),
    ("zeros.jvalue_algebraicity_check.self_s", "s", "lower"),
    ("zeros.match_margin", "ratio", "lower"),
    ("roots.aberth_roots.self_s", "s", "lower"),
    ("scans.maeda_check.self_s", "s", "lower"),
    ("scans.finiteness_scan.self_s", "s", "lower"),
    ("scans.alpha_beta.calls", "count", "lower"),
    ("scans.bernoulli_bound_check.self_s", "s", "lower"),
    ("scans.zeta_direct.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
UNITS = dict(END_TO_END) | dict(INFORMATIONAL) | {n: u for n, u, _ in PER_LAYER}


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile by Python's exclusive quantile method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def list_total(passes: list[list], field: str) -> float:
    """The job list's total of one measurement, each job counted at its
    median over the passes, so one disturbed job run does not move it."""
    return sum(statistics.median(getattr(p[i], field) for p in passes) for i in range(len(passes[0])))


def end_to_end(setup_times: list[float], passes: list[list]) -> dict:
    """passes: one list of ProcResult per complete pass over the job list."""
    runs = [r for p in passes for r in p]
    times = [r.wall_s for r in runs]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": list_total(passes, "wall_s"),
        "cpu_s": list_total(passes, "cpu_s"),
        "job_p50_s": statistics.median(times),
        TAIL: percentile(times, TAIL_PERCENTILE),
        "peak_rss_mb": max(r.maxrss_mb for r in runs),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traces: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """traces: the tracer's per-job records of one traced pass."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    distinct: dict[str, int] = {}
    margin = 0.0
    for t in traces:
        for name, s in t["spans"].items():
            calls[name] = calls.get(name, 0) + s["calls"]
            self_s[name] = self_s.get(name, 0.0) + s["self_s"]
            total_s[name] = total_s.get(name, 0.0) + s["total_s"]
        for name, v in t["counters"].items():
            if name == "zeros.match_margin":
                margin = max(margin, v)
            else:
                counters[name] = counters.get(name, 0) + v
        for name, n in t["distinct"].items():
            distinct[name] = distinct.get(name, 0) + n
    derived = {
        "cli.main.s": total_s.get("cli.main", 0.0),
        "cli.outside_main_s": traced_wall - total_s.get("cli.main", 0.0),
        "qseries.QSeries.__mul__.coeff_ops": counters.get("qseries.QSeries.__mul__.coeff_ops", 0),
        "zeros.arc_evals": counters.get("zeros.arc_evals", 0),
        "zeros.match_margin": margin,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    for span in ("forms.miller_basis", "hecke.eigenbasis"):
        derived[f"{span}.distinct_frac"] = _ratio(distinct.get(span, 0), calls.get(span, 0))
    irr = calls.get("polys.poly_irreducible", 0)
    derived["polys.poly_irreducible.witness_prime_frac"] = _ratio(
        counters.get("polys.poly_irreducible.witness_prime", 0), irr
    )
    derived["polys.poly_irreducible.unknown_frac"] = _ratio(
        counters.get("polys.poly_irreducible.unknown", 0), irr
    )
    derived["arith.factorize.incomplete_frac"] = _ratio(
        counters.get("arith.factorize.incomplete", 0), calls.get("arith.factorize", 0)
    )
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return out
