"""Command-line front end: every verification and scan as a subcommand with
machine-readable output.

Exit codes: 0 when every requested check verifies, 1 when a check fails,
2 on usage or precision errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import identities, scans, zeros
from .dirichlet import characters_mod, galois_orbits
from .forms import delta, dim_Mk, dim_Sk, eisenstein_level1, eisenstein_levelN, jfunction, miller_basis
from .hecke import eigenbasis, galois_conjugate, hecke_matrix

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


def _resolve_prec(args, k: int) -> int:
    """--prec when given, else ten terms per dimension of M_k plus ten."""
    return args.prec if args.prec is not None else 10 * dim_Mk(k) + 10


def _parse_rational(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{flag} must be a rational number such as 3 or -1/7, got {text!r}") from None


def _parse_conductors(text: str) -> list[int]:
    try:
        conductors = [int(x) for x in text.split(",")]
    except ValueError:
        raise CliError(
            f"conductors must be a comma-separated integer list such as 1,3,4, got {text!r}"
        ) from None
    if repeated := [n for i, n in enumerate(conductors) if n in conductors[:i]]:
        raise CliError(f"conductor {repeated[0]} is listed more than once in {text!r}")
    return conductors


def _parse_character(spec: str):
    """Character spec "N:index" against the characters_mod(N) enumeration."""
    try:
        modulus, index = spec.split(":")
        modulus, index = int(modulus), int(index)
    except ValueError:
        raise CliError(f"character spec must look like N:index, got {spec!r}")
    chars = characters_mod(modulus)
    if not 0 <= index < len(chars):
        raise CliError(f"character index out of range: {modulus} has {len(chars)} characters")
    return chars[index]


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _emit(args, payload: dict) -> None:
    """Render the payload in the --output format (text through the
    subcommand's render default) to stdout or --out."""
    fmt = args.output
    if fmt == "json":
        out = _render_json(payload)
    elif fmt == "csv":
        rows = payload.get("csv")
        if rows is None:
            raise CliError("this subcommand has no CSV rendering; use --output json")
        out = "\n".join(",".join(str(x) for x in row) for row in rows)
    else:
        out = args.render(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.out!r}: {exc.strerror}")
    else:
        print(out)


# ---------------------------------------------------------------------------
# Subcommands: each returns its payload and whether every check it ran
# verified; main renders the payload and maps the verdict to the exit code.
# ---------------------------------------------------------------------------


def cmd_qexp(args) -> tuple[dict, bool]:
    name = args.form
    if name.startswith("EisNk:"):
        try:
            psi_spec, phi_spec, t, k = name[len("EisNk:") :].split(",")
            t, k = int(t), int(k)
        except ValueError:
            raise CliError(f"form must look like EisNk:psi,phi,t,k, got {name!r}")
        prec = _resolve_prec(args, k)
        form = eisenstein_levelN(
            _parse_character(psi_spec), _parse_character(phi_spec), t, k, prec
        )
        return form.as_json(), True
    if name == "Delta":
        return delta(_resolve_prec(args, 12)).as_json(), True
    if name == "j":
        payload = jfunction(_resolve_prec(args, 12)).as_json()
        payload["note"] = "series of j*q; shift the exponent down by one"
        return payload, True
    if name.startswith("Ek:"):
        try:
            k = int(name[3:])
        except ValueError:
            raise CliError(f"form must look like Ek:k with an integer k, got {name!r}") from None
    elif name.startswith("E") and name[1:].isdigit():
        k = int(name[1:])
    else:
        raise CliError(f"unknown form {name!r}")
    return eisenstein_level1(k, _resolve_prec(args, k)).as_json(), True


def cmd_basis(args) -> tuple[dict, bool]:
    k = args.weight
    basis = miller_basis(k, _resolve_prec(args, k), cusp_only=args.cusp)
    forms = [f.as_json() for f in basis.forms]
    return {"weight": k, "cusp_only": args.cusp, "dim": basis.dim, "forms": forms}, True


def cmd_hecke(args) -> tuple[dict, bool]:
    return hecke_matrix(args.index, args.weight).as_json(), True


def cmd_eigen(args) -> tuple[dict, bool]:
    k = args.weight
    forms = eigenbasis(k, prec=args.prec)
    payload = {"weight": k, "dim": dim_Sk(k), "forms": [f.as_json() for f in forms]}
    if forms[0].field.degree == 2:
        payload["conjugate"] = galois_conjugate(forms[0]).as_json()
    return payload, True


def cmd_decompose(args) -> tuple[dict, bool]:
    k = args.weight
    report = identities.nonvanishing_report(k, prec=args.prec)
    return report.as_json(), report.all_nonzero


def _render_reports(payload: dict) -> str:
    lines = []
    for rep in payload["reports"]:
        status = rep["status"].upper()
        extra = f" ({rep['detail']})" if rep.get("detail") else ""
        lines.append(f"{rep['name']:<12} {status}{extra}")
        for d in rep.get("discrepancies", []):
            entry = ", ".join(f"{key}={val}" for key, val in d.items())
            lines.append(f"    discrepancy: {entry}")
    return "\n".join(lines)


def cmd_verify(args) -> tuple[dict, bool]:
    prec = args.prec if args.prec is not None else 100
    if args.target == "all":
        reports = identities.verify_all(prec)
    else:
        reports = [identities.VERIFY_TARGETS[args.target](prec)]
    return {"reports": [r.as_json() for r in reports]}, all(r.verified for r in reports)


def cmd_zeros(args) -> tuple[dict, bool]:
    report = zeros.jvalue_algebraicity_check(
        args.n,
        tol_match=args.tol_match,
        tol_zero=args.tol_zero,
    )
    return report.as_json(), report.verified


def cmd_maeda(args) -> tuple[dict, bool]:
    if args.range and args.weight is not None:
        raise CliError("give a weight or --range, not both")
    if args.range:
        try:
            lo, hi = (int(x) for x in args.range.split(".."))
        except ValueError:
            raise CliError("range must look like k1..k2")
        ks = [k for k in range(lo, hi + 1) if dim_Sk(k) >= 1]
        if not ks:
            raise CliError(f"range {args.range} holds no weight with cusp forms")
    elif args.weight is not None:
        ks = [args.weight]
    else:
        raise CliError("give a weight or --range")
    reports = [scans.maeda_check(k) for k in ks]
    return {"reports": [r.as_json() for r in reports]}, all(r.irreducible for r in reports)


def cmd_finiteness(args) -> tuple[dict, bool]:
    a, b = _parse_rational("--a", args.a), _parse_rational("--b", args.b)
    for flag, value in (("--kmax", args.kmax), ("--lmax", args.lmax)):
        if value < 1:
            raise CliError(f"{flag} must be at least 1, got {value}")
    report = scans.finiteness_scan(a, b, k_max=args.kmax, l_max=args.lmax)
    payload = report.as_json()
    payload["csv"] = [["k", "conductor", "alpha_abs", "beta_abs", "excluded_by"]] + [
        [c.k, c.conductor, f"{c.alpha_abs:.6e}", f"{c.beta_abs:.6e}", c.excluded_by or "enumerated"]
        for c in report.cells
    ]
    return payload, True


def cmd_bounds(args) -> tuple[dict, bool]:
    k = args.weight
    chars = [
        chi
        for modulus in _parse_conductors(args.conductors)
        for chi in characters_mod(modulus)
        if chi.is_primitive() and chi.parity() == (-1) ** k
    ]
    checks = [scans.bernoulli_bound_check(k, rep, a) for _, rep, a in galois_orbits(chars)]
    if not checks:
        raise CliError(
            f"weight {k}: no primitive character mod {args.conductors} has parity (-1)^{k}"
        )
    payload = {
        "weight": k,
        "checks": [c.as_json() for c in checks],
        "all_hold": all(c.holds for c in checks),
    }
    payload["csv"] = [["k", "conductor", "lower", "actual", "upper", "holds"]] + [
        [c.k, c.conductor, f"{c.lower:.6e}", f"{c.actual:.6e}", f"{c.upper:.6e}", c.holds]
        for c in checks
    ]
    return payload, payload["all_hold"]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out", help="write output to a file instead of stdout")
    common.set_defaults(render=_render_json)
    precision = argparse.ArgumentParser(add_help=False, parents=[common])
    precision.add_argument("--prec", type=int, help="q-expansion precision override")
    tolerances = argparse.ArgumentParser(add_help=False, parents=[common])
    tolerances.add_argument("--tol-zero", dest="tol_zero", type=float, default=1e-12)
    tolerances.add_argument("--tol-match", dest="tol_match", type=float, default=1e-8)

    parser = argparse.ArgumentParser(
        prog="modforms",
        description="Exact q-expansions, Hecke eigenbases and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qexp", parents=[precision], help="print a q-expansion")
    p.add_argument("form", help="E4, E6, Ek:k, Delta, j, or EisNk:psi,phi,t,k")
    p.set_defaults(func=cmd_qexp)

    p = sub.add_parser("basis", parents=[precision], help="echelon basis of a weight")
    p.add_argument("weight", type=int)
    p.add_argument("--cusp", action="store_true")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("hecke", parents=[common], help="Hecke matrix and charpoly")
    p.add_argument("index", type=int)
    p.add_argument("weight", type=int)
    p.set_defaults(func=cmd_hecke)

    p = sub.add_parser("eigen", parents=[precision], help="normalized eigenbasis")
    p.add_argument("weight", type=int)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser(
        "decompose", parents=[precision], help="decompose the weight-k eigenform square"
    )
    p.add_argument("weight", type=int)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", parents=[precision], help="identity verification reports")
    p.add_argument("target", choices=(*identities.VERIFY_TARGETS, "all"))
    p.set_defaults(func=cmd_verify, render=_render_reports)

    p = sub.add_parser("zeros", parents=[tolerances], help="j-algebraicity report for weight 12n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser(
        "maeda", parents=[common], help="irreducibility and cycle-type evidence"
    )
    p.add_argument("weight", type=int, nargs="?")
    p.add_argument("--range", help="k1..k2")
    p.set_defaults(func=cmd_maeda)

    p = sub.add_parser(
        "finiteness", parents=[common], help="scan the coefficient equation region"
    )
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--kmax", type=int, default=60)
    p.add_argument("--lmax", type=int, default=10)
    p.set_defaults(func=cmd_finiteness)

    p = sub.add_parser(
        "bounds", parents=[common], help="Bernoulli-magnitude sandwich table"
    )
    p.add_argument("weight", type=int)
    p.add_argument("conductors", help="comma-separated conductor list")
    p.set_defaults(func=cmd_bounds)

    return parser


def _join_rational_values(argv: list[str]) -> list[str]:
    """Read `--a -1/7` as `--a=-1/7`: argparse takes a token such as -1/7,
    which is no negative number to it, for an option string."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--a", "--b") and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_rational_values(sys.argv[1:] if argv is None else argv))
    if hasattr(sys, "set_int_max_str_digits"):  # print our own exact integers in full
        sys.set_int_max_str_digits(0)
    try:
        prec = getattr(args, "prec", None)
        if prec is not None and prec <= 0:
            raise CliError("--prec must be positive")
        payload, verified = args.func(args)
        _emit(args, payload)
    except (CliError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if verified else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
