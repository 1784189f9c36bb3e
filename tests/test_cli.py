import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from modforms import dirichlet, hecke, identities, numfield, polys, scans
from modforms.arith import SquarefreeSplit
from modforms.cli import _render_reports, build_parser, main
from modforms.dirichlet import characters_mod, gen_bernoulli
from modforms.numfield import coeff_json
from modforms.polys import RatPoly, discriminant, poly_irreducible


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qexp_json(capsys):
    code, out, _ = run_cli(capsys, "qexp", "E4", "--prec", "4", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"]["coeffs"] == ["1", "240", "2160", "6720"]


def test_qexp_delta_and_j(capsys):
    code, out, _ = run_cli(capsys, "qexp", "Delta", "--prec", "5", "--output", "json")
    assert code == 0
    assert json.loads(out)["series"]["coeffs"] == ["0", "1", "-24", "252", "-1472"]
    code, out, _ = run_cli(capsys, "qexp", "j", "--prec", "3", "--output", "json")
    assert code == 0
    assert json.loads(out)["coeffs"][:2] == ["1", "744"]


def test_qexp_level_n(capsys):
    code, out, _ = run_cli(
        capsys, "qexp", "EisNk:1:0,4:1,1,3", "--prec", "6", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == 4 and payload["weight"] == 3


def test_basis_and_hecke(capsys):
    code, out, _ = run_cli(capsys, "basis", "12", "--cusp", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 1
    code, out, _ = run_cli(capsys, "hecke", "2", "24", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["charpoly"]["coeffs"] == [-20468736, -1080, 1]
    assert payload["charpoly"]["denominator"] == 1


def test_eigen_and_decompose(capsys):
    code, out, _ = run_cli(capsys, "eigen", "24", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    code, out, _ = run_cli(capsys, "decompose", "12", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_nonzero"] is True
    pair = identities.nonvanishing_report(12).decomposition.conjugate_pair()
    assert [e["value"] for e in payload["entries"]] == [coeff_json(c) for c in pair]


def test_verify_all_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    assert "VERIFIED" in out
    assert "discrepancy" in out  # the reference-table discrepancies are surfaced


def test_verify_exits_one_when_the_reference_constants_are_not_reproduced(capsys, monkeypatch):
    series, (a, b) = identities.PRODUCT_IDENTITIES["e24"]
    monkeypatch.setitem(identities.PRODUCT_IDENTITIES, "e24", (series, (a, b + 1)))
    code, out, _ = run_cli(capsys, "verify", "e24", "--prec", "20", "--output", "json")
    assert code == 1
    [report] = json.loads(out)["reports"]
    assert (report["status"], report["first_failure"]) == ("failed", None)
    assert report["detail"] == f"a = {a}, b = {b} (reference constants not reproduced)"


def test_zeros_subcommand(capsys):
    code, out, _ = run_cli(capsys, "zeros", "1", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "verified"
    assert payload["n"] == 1


def test_maeda_subcommand(capsys):
    code, out, _ = run_cli(capsys, "maeda", "24", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["status"] == "irreducible"
    code, out, _ = run_cli(capsys, "maeda", "--range", "12..16", "--output", "json")
    assert code == 0


def test_maeda_prints_a_discriminant_past_the_digit_limit(capsys, monkeypatch):
    """The weight-172 T_2 discriminant has about 4,700 digits, past the 4,300
    that Python converts to str by default. The factorization is stubbed out: it
    takes most of a minute and does not decide the printed discriminant."""
    monkeypatch.setattr(scans, "squarefree_kernel", lambda n, **_: SquarefreeSplit(n, 1, False))
    code, out, err = run_cli(capsys, "maeda", "172", "--output", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)["reports"][0]
    charpoly = RatPoly([Fraction(c) for c in report["charpoly"]])
    disc = discriminant(charpoly)
    assert len(str(disc.numerator)) > 4300
    assert report["poly_disc"] == str(disc)


def test_maeda_certifies_t2_at_weight_240(capsys, monkeypatch):
    """T_2 decides here from 38 primes; the factorization is stubbed as above."""
    monkeypatch.setattr(scans, "squarefree_kernel", lambda n, **_: SquarefreeSplit(n, 1, False))
    code, out, err = run_cli(capsys, "maeda", "240", "--output", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)["reports"][0]
    assert (report["hecke_index"], report["status"]) == (2, "irreducible")
    assert len(report["patterns"]) == 38


def test_finiteness_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "finiteness", "--a", "1", "--b", "1", "--kmax", "40", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["survivors"] == []
    assert payload["complete"] is True


def test_finiteness_reads_a_negative_rational_as_its_own_token(capsys):
    """argparse takes -1/7 for an option string; `--b -1/7` must run as `--b=-1/7`."""
    base = ["finiteness", "--kmax", "10", "--lmax", "6", "--output", "json"]
    joined = run_cli(capsys, *base, "--a", "3", "--b=-1/7")
    assert joined[0] == 0 and joined[2] == ""
    assert run_cli(capsys, *base, "--a", "3", "--b", "-1/7") == joined
    assert json.loads(joined[1])["b"] == "-1/7"
    assert run_cli(capsys, *base, "--a", "-2/3", "--b", "-1/7")[0] == 0


# one run per subcommand, with the exit code main maps its verdict to
SUBCOMMAND_RUNS = [
    (["qexp", "E4", "--prec", "4"], 0),
    (["basis", "24", "--cusp"], 0),
    (["hecke", "2", "24"], 0),
    (["eigen", "24"], 0),
    (["decompose", "12"], 0),
    (["verify", "ramanujan", "--prec", "20"], 0),
    (["zeros", "2", "--tol-match", "1e-30"], 1),
    (["maeda", "24"], 0),
    (["finiteness", "--a", "1", "--b", "1", "--kmax", "10", "--lmax", "6"], 0),
    (["bounds", "12", "1,3,4"], 0),
]


def test_subcommand_runs_cover_every_subcommand():
    [sub] = [a for a in build_parser()._actions if a.dest == "command"]
    assert sorted(argv[0] for argv, _ in SUBCOMMAND_RUNS) == sorted(sub.choices)


@pytest.mark.parametrize("argv, code", SUBCOMMAND_RUNS, ids=[r[0][0] for r in SUBCOMMAND_RUNS])
def test_main_renders_every_subcommand(capsys, argv, code):
    """Text output is the JSON payload, except verify's report lines."""
    text = run_cli(capsys, *argv, "--output", "text")
    as_json = run_cli(capsys, *argv, "--output", "json")
    assert (text[0], as_json[0], text[2], as_json[2]) == (code, code, "", "")
    if argv[0] == "verify":
        assert text[1] == _render_reports(json.loads(as_json[1])) + "\n"
        assert text[1].startswith("ramanujan    VERIFIED")
    else:
        assert text[1] == as_json[1]


def test_bounds_subcommand_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "12", "1,3,4", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k,conductor")
    assert all(line.endswith("True") for line in lines[1:])


@pytest.mark.parametrize(
    "weight, conductors, distinct, orbits",
    [(20, "1,3,4,5,7,8,11,12,13", 10, 9), (12, "1009", 246, 23)],
    ids=["conductors-to-13", "conductor-1009"],
)
def test_bounds_computes_each_galois_orbit_once(capsys, weight, conductors, distinct, orbits):
    """B_{k,chi^a} = sigma_a(B_{k,chi}): one exact sum per Galois orbit, and
    a character and its conjugate share one row. Mod 11 at k = 20 the four
    primitive even characters form one orbit of two pairs; mod 1009 at
    k = 12, 503 characters form 252 pairs (six of them share their 12-digit
    row with another pair) and 23 orbits."""
    chars = [
        chi
        for N in map(int, conductors.split(","))
        for chi in characters_mod(N)
        if chi.is_primitive() and chi.parity() == (-1) ** weight
    ]
    gen_bernoulli.cache_clear()
    code, out, _ = run_cli(capsys, "bounds", str(weight), conductors, "--output", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == len(chars)
    row = dict(zip(chars, checks))
    assert all(row[chi] == row[chi**-1] for chi in chars)
    assert len({json.dumps(c) for c in checks}) == distinct
    assert gen_bernoulli.cache_info().misses == orbits


@pytest.mark.parametrize("conductor, orbits", [(11, 1), (1009, 23)])
def test_bounds_reads_each_orbit_value_as_stored(capsys, monkeypatch, conductor, orbits):
    """abs_embed reads sigma_a(B_{12,rep}) for every character of rep's orbit,
    from the value's integers over its denominator as stored: its coordinates
    never reach clear_denominators. Mod 11 the four primitive even characters
    form one orbit."""
    embedded, cleared = [], []
    real_abs_embed, real_clear = scans.abs_embed, polys.clear_denominators

    def abs_embed(x, a=1):
        embedded.append(x)
        return real_abs_embed(x, a)

    def clear_denominators(a):
        cleared.append(tuple(a))
        return real_clear(a)

    monkeypatch.setattr(scans, "abs_embed", abs_embed)
    for module in (numfield, dirichlet, polys):
        monkeypatch.setattr(module, "clear_denominators", clear_denominators)
    gen_bernoulli.cache_clear()  # values cached by earlier tests were built there
    code, _, _ = run_cli(capsys, "bounds", "12", str(conductor), "--output", "json")
    assert code == 0
    values = list({id(x): x for x in embedded}.values())
    assert len(values) == orbits < len(embedded)
    assert [sum(a == x.coords for a in cleared) for x in values] == [0] * orbits


def test_deterministic_output(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "zeros", "2", "--output", "json"
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_failed_check_exit_code(capsys):
    # an absurd matching tolerance turns the verified report into a failure
    code, out, _ = run_cli(
        capsys, "zeros", "2", "--tol-match", "1e-30", "--output", "json"
    )
    assert code == 1
    assert json.loads(out)["status"] == "failed"


def test_error_exit_codes(capsys):
    code, _, err = run_cli(capsys, "qexp", "Nope")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run_cli(capsys, "eigen", "10")
    assert code == 2
    code, _, err = run_cli(capsys, "qexp", "E5")
    assert code == 2
    for form in ("EisNk:1:0", "EisNk:1:0,4:1,1", "EisNk:1:0,4:1,x,3"):
        code, out, err = run_cli(capsys, "qexp", form, "--output", "json")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "EisNk:psi,phi,t,k" in err
    # parse errors name the form or the flag they come from
    code, out, err = run_cli(capsys, "qexp", "Ek:abc")
    assert (code, out) == (2, "")
    assert err == "error: form must look like Ek:k with an integer k, got 'Ek:abc'\n"
    for flag, value in (("--a", "1/0"), ("--b", "x")):
        argv = {"--a": "1", "--b": "1", flag: value}
        code, out, err = run_cli(capsys, "finiteness", *[t for kv in argv.items() for t in kv])
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be a rational number such as 3 or -1/7, got {value!r}\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "ramanujan", "--output", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["reports"][0]["status"] == "verified"


def test_unwritable_out_file_is_a_usage_error(tmp_path, capsys):
    # exit 1 is kept for a failed check; a file that cannot be written is usage
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "qexp", "E4", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert not target.exists()


def test_env_prec_is_ignored(capsys, monkeypatch):
    # --prec is the one precision setting; weight 4 defaults to 10 dim M_4 + 10
    monkeypatch.setenv("MODFORMS_PREC", "3")
    code, out, _ = run_cli(capsys, "qexp", "E4", "--output", "json")
    assert code == 0
    assert json.loads(out)["series"]["prec"] == 20


def test_nonpositive_prec_is_a_usage_error(capsys):
    for prec in ("0", "-3"):
        for argv in (("qexp", "E4"), ("eigen", "24"), ("verify", "e24"), ("decompose", "12")):
            code, out, err = run_cli(capsys, *argv, "--prec", prec, "--output", "json")
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error:")


@pytest.mark.parametrize("prec", ["1", "2"])
@pytest.mark.parametrize("target", ["e24", "e32", "all"])
def test_verify_below_the_solve_precision_is_a_usage_error(capsys, target, prec):
    # the product identities solve for (a, b) from the q^1 and q^2 rows
    code, out, err = run_cli(capsys, "verify", target, "--prec", prec, "--output", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "q^2" in err and "Traceback" not in err


@pytest.mark.parametrize("prec", ["1", "2"])
@pytest.mark.parametrize("target", ["ramanujan", "table1"])
def test_verify_targets_without_a_solve_run_at_low_precision(capsys, target, prec):
    code, out, _ = run_cli(capsys, "verify", target, "--prec", prec, "--output", "json")
    assert code == 0
    assert [r["status"] for r in json.loads(out)["reports"]] == ["verified"]


def test_seed_option_is_gone(capsys):
    # the root finder starts from one fixed circle; --seed is no longer an option
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "2", "--seed", "7", "--output", "json"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_empty_maeda_range_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "maeda", "--range", "40..12", "--output", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_maeda_weight_with_range_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "maeda", "12", "--range", "12..14", "--output", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("weight, conductors", [("3", "1"), ("4", "3")])
def test_bounds_without_a_matching_character_is_a_usage_error(capsys, weight, conductors):
    code, out, err = run_cli(capsys, "bounds", weight, conductors, "--output", "json")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: weight {weight}:") and f" mod {conductors} " in err


@pytest.mark.parametrize("weight, conductors", [("260", "1"), ("261", "3"), ("200", "13")])
def test_bounds_past_the_double_range_is_a_usage_error(capsys, weight, conductors):
    code, out, err = run_cli(capsys, "bounds", weight, conductors, "--output", "json")
    assert code == 2
    assert out == ""
    assert f"weight {weight}" in err and "exceed the double range" in err


@pytest.mark.parametrize("conductors", ["1,x", "3,,4", "1.5"])
def test_bounds_with_a_malformed_conductor_list_is_a_usage_error(capsys, conductors):
    code, out, err = run_cli(capsys, "bounds", "20", conductors, "--output", "json")
    assert (code, out) == (2, "")
    assert err == (
        "error: conductors must be a comma-separated integer list such as 1,3,4,"
        f" got {conductors!r}\n"
    )


@pytest.mark.parametrize("weight, conductors, repeated", [("12", "1,1", 1), ("13", "3,4,3", 3)])
def test_bounds_with_a_repeated_conductor_is_a_usage_error(capsys, weight, conductors, repeated):
    """A repeated conductor would list each of its checks twice."""
    code, out, err = run_cli(capsys, "bounds", weight, conductors, "--output", "json")
    assert (code, out) == (2, "")
    assert err == f"error: conductor {repeated} is listed more than once in {conductors!r}\n"


@pytest.mark.parametrize("flag, value", [("--kmax", "-5"), ("--kmax", "0"), ("--lmax", "-2")])
def test_finiteness_below_one_is_a_usage_error(capsys, flag, value):
    argv = {"--a": "1", "--b": "1", flag: value}
    code, out, err = run_cli(capsys, "finiteness", *[t for kv in argv.items() for t in kv])
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be at least 1, got {value}\n"


def run_python(*args, timeout=60):
    """A fresh interpreter on this checkout's sources; a hang fails the test."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_cli_import_does_not_load_numpy():
    result = run_python("-c", "import sys, modforms.cli; print('numpy' in sys.modules)")
    assert result.returncode == 0
    assert result.stdout.strip() == "False"


def test_cli_import_loads_every_layer_but_not_mpmath_or_dataclasses():
    """Importing the CLI binds every layer, which the benchmark tracer relies
    on; mpmath waits for the arc-zero search, and the records are
    NamedTuples, so neither mpmath nor dataclasses is loaded."""
    package = Path(__file__).resolve().parent.parent / "src" / "modforms"
    layers = sorted(f"modforms.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    result = run_python(
        "-c",
        "import json, sys, modforms.cli; "
        "print(json.dumps([sorted(sys.modules), 'mpmath' in sys.modules, 'dataclasses' in sys.modules]))",
    )
    assert result.returncode == 0, result.stderr
    loaded, mpmath_loaded, dataclasses_loaded = json.loads(result.stdout)
    assert [name for name in layers if name not in loaded] == []
    assert (mpmath_loaded, dataclasses_loaded) == (False, False)


@pytest.mark.parametrize(
    "argv, loads_mpmath",
    [
        (["bounds", "12", "1,3,4,5"], False),
        (["finiteness", "--a", "1", "--b", "1", "--kmax", "30", "--lmax", "6"], False),
        (["zeros", "2"], True),
        (["qexp", "Delta", "--prec", "10"], False),
        (["basis", "24"], False),
        (["hecke", "2", "24"], False),
        (["eigen", "24"], False),
        (["decompose", "12"], False),
        (["verify", "all"], False),
        (["maeda", "24"], False),
    ],
)
def test_only_zeros_loads_mpmath(argv, loads_mpmath):
    """Every subcommand but zeros runs in exact or integer arithmetic; only
    the arc-zero search evaluates in mpmath."""
    result = run_python(
        "-c",
        "import contextlib, io, json, sys\n"
        "from modforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:] + ['--output', 'json'])\n"
        "print(json.dumps([code, 'mpmath' in sys.modules]))",
        *argv,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [0, loads_mpmath]


def test_zero_tolerance_below_the_working_precision_finishes():
    result = run_python(
        "-m", "modforms.cli", "zeros", "1", "--tol-zero", "1e-60", "--output", "json"
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["status"] == "verified"


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_nonpositive_zero_tolerance_is_a_usage_error(tol):
    result = run_python("-m", "modforms.cli", "zeros", "1", "--tol-zero", tol, "--output", "json")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_nonpositive_or_infinite_match_tolerance_is_a_usage_error(capsys, tol):
    code, out, err = run_cli(capsys, "zeros", "1", "--tol-match", tol, "--output", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: match tolerance")


def test_uncertified_hecke_field_is_an_error_exit(capsys, monkeypatch):
    cp = RatPoly([1, 0, 0, 0, 1])  # x^4 + 1 splits mod every prime: no certificate
    cert = poly_irreducible(cp)
    assert cert.status == "unknown"
    monkeypatch.setattr(hecke, "certified_charpoly", lambda k, basis=None: (None, cp, cert))
    code, out, err = run_cli(capsys, "eigen", "24", "--output", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: no irreducibility certificate")


def test_options_only_on_subcommands_that_read_them(capsys):
    for argv in (("maeda", "24", "--prec", "5"), ("qexp", "E4", "--tol-match", "1e-3")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_eigen_precision_below_the_hecke_index_is_a_usage_error(capsys):
    # the weight-24 field is presented by a_2, so prec must hold q^2
    for prec in ("1", "2"):
        code, out, err = run_cli(capsys, "eigen", "24", "--prec", prec, "--output", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: prec must exceed 2")
    code, out, _ = run_cli(capsys, "eigen", "24", "--prec", "3", "--output", "json")
    assert code == 0
    assert json.loads(out)["forms"][0]["series"]["prec"] == 3


def test_nonpositive_hecke_index_is_a_usage_error(capsys):
    for index in ("0", "-2"):
        code, out, err = run_cli(capsys, "hecke", index, "24", "--output", "json")
        assert code == 2
        assert out == ""
        assert err == "error: operator index must be positive\n"
