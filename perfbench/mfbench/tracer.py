"""Run one modforms CLI command with spans around each layer's public
functions, recorded from outside the program.

    python tracer.py OUT.json <modforms arguments...>

Each listed function is replaced, in every ``modforms.*`` namespace that
binds it, by a wrapper that counts calls and records its span. A span's self
time is its duration minus the time covered by traced child spans. Methods
are wrapped once on their class. The CLI's stdout and exit code are left
untouched; the span totals go to OUT.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from time import perf_counter

# <module>.<function or Class.method> for every span the per-layer metrics read
TRACED = (
    "cli.main",
    "qseries.QSeries.__mul__", "qseries.QSeries.inverse", "qseries.QSeries.__pow__",
    "forms.delta", "forms.eisenstein_level1", "forms.miller_basis",
    "hecke.hecke_matrix", "hecke.hecke_action", "hecke.charpoly", "hecke.eigenbasis",
    "linalg.charpoly_rational", "linalg.kernel_vector", "linalg.invert_rational",
    "polys.poly_irreducible", "polys.discriminant", "polys.factor_degrees_mod_p",
    "polys.poly_xgcd", "polys.RatPoly.__mul__", "polys.RatPoly.__divmod__",
    "arith.factorize", "arith.squarefree_kernel", "arith.sigma",
    "numfield.NumberFieldElement.__mul__", "numfield.NumberFieldElement.inverse",
    "numfield.embed_cyclotomic",
    "dirichlet.characters_mod", "dirichlet.gen_bernoulli", "dirichlet.bernoulli_number",
    "identities.decompose_in_eigenbasis", "identities.verify_table1",
    "identities.verify_quadratic_identity", "identities.verify_ramanujan",
    "zeros.expand_E12n", "zeros.find_arc_zeros", "zeros.arc_function", "zeros.jvalue_at",
    "zeros.jvalue_algebraicity_check",
    "roots.aberth_roots",
    "scans.maeda_check", "scans.finiteness_scan", "scans.alpha_beta",
    "scans.bernoulli_bound_check", "scans.zeta_direct",
)


class Tracer:
    """Span totals for one process: calls, total and self seconds per name,
    plus the counters the per-layer metrics derive from returned values."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self._open: list[float] = []  # child time accumulated per open span

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
            return after(args, kwargs, result) if after else result

        return traced

    def as_json(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.spans.items()
            },
            "counters": self.counters,
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }


def _hooks(tracer: Tracer) -> dict:
    """Per-span readers of arguments and returned values."""
    from modforms.qseries import QSeries

    def coeff_ops(args, kwargs, result):
        a, b = args[0], args[1]
        if isinstance(b, QSeries):
            p = min(a.prec, b.prec)
            tracer.count("qseries.QSeries.__mul__.coeff_ops", p * (p + 1) // 2)
        return result

    def distinct(name, fn):
        sig = inspect.signature(fn)

        def record(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.keys.setdefault(name, set()).add(repr(tuple(bound.arguments.items())))
            return result

        return record

    def certificate(args, kwargs, cert):
        if cert.witness_prime is not None:
            tracer.count("polys.poly_irreducible.witness_prime")
        if cert.status == "unknown":
            tracer.count("polys.poly_irreducible.unknown")
        return cert

    def factorization(args, kwargs, result):
        if not result.complete:
            tracer.count("arith.factorize.incomplete")
        return result

    def arc_evals(args, kwargs, f):
        def counted(theta):
            tracer.count("zeros.arc_evals")
            return f(theta)

        counted.tail_bound = f.tail_bound
        return counted

    def match_margin(args, kwargs, report):
        margin = report.max_pair_distance / report.tol
        if math.isfinite(margin):
            tracer.counters["zeros.match_margin"] = max(
                tracer.counters.get("zeros.match_margin", 0.0), margin
            )
        return report

    import modforms.forms
    import modforms.hecke

    return {
        "qseries.QSeries.__mul__": coeff_ops,
        "forms.miller_basis": distinct("forms.miller_basis", modforms.forms.miller_basis),
        "hecke.eigenbasis": distinct("hecke.eigenbasis", modforms.hecke.eigenbasis),
        "polys.poly_irreducible": certificate,
        "arith.factorize": factorization,
        "zeros.arc_function": arc_evals,
        "zeros.jvalue_algebraicity_check": match_margin,
    }


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function wherever a modforms namespace binds it."""
    import modforms.cli  # noqa: F401  (imports every layer)

    namespaces = [m for n, m in sys.modules.items() if n == "modforms" or n.startswith("modforms.")]
    hooks = _hooks(tracer)
    for name in TRACED:
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"modforms.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), hooks.get(name)))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, hooks.get(name))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import modforms.cli

    try:
        code = modforms.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.as_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
