"""The output check: exact fields must match, floats only within tolerance."""

import json

from mfbench.golden import check_output, golden_entry, split_fields
from mfbench.jobs import Job

ZEROS = {
    "n": 1,
    "coeffs": ["1", "-432000/691"],
    "zeros": [{"theta": "1.570796326794897", "residual": "1.000e-13"}],
    "j_values": ["1.728000000000e+03+1.000e-40j"],
    "poly_roots_shifted": ["1.728000000000e+03+0.000e+00j"],
    "max_pair_distance": "1.000e-10",
    "status": "verified",
    "tol": "1.0e-08",
}


def _golden(payload, code=0):
    return {"zeros 1": golden_entry(code, payload)}


def _check(golden, payload, code=0):
    return check_output(golden, Job("zeros", 1), code, json.dumps(payload))


def test_identical_output_passes():
    assert _check(_golden(ZEROS), ZEROS) is None


def test_exact_field_change_fails():
    bad = dict(ZEROS, coeffs=["1", "-432001/691"])
    assert "exact" in _check(_golden(ZEROS), bad)


def test_vanishing_count_change_fails():
    bad = dict(ZEROS, zeros=ZEROS["zeros"] * 2)
    assert _check(_golden(ZEROS), bad) is not None


def test_exit_code_mismatch_fails():
    assert "exit code" in _check(_golden(ZEROS), ZEROS, code=1)


def test_floats_within_stated_tolerance_pass():
    moved = dict(
        ZEROS,
        zeros=[{"theta": "1.570796326795197", "residual": "9.000e-12"}],  # 3e-13 < tol_zero
        j_values=["1.728000000004e+03-2.000e-30j"],  # 4e-9 < tol
        max_pair_distance="4.000e-09",
    )
    assert _check(_golden(ZEROS), moved) is None


def test_floats_outside_tolerance_fail():
    far_theta = dict(ZEROS, zeros=[{"theta": "1.570796326804897", "residual": "1.0e-13"}])
    assert "theta" in _check(_golden(ZEROS), far_theta)
    far_j = dict(ZEROS, j_values=["1.728000000100e+03+0.000e+00j"])
    assert "j_values" in _check(_golden(ZEROS), far_j)
    complex_j = dict(ZEROS, j_values=["1.728000000000e+03+2.000e-01j"])
    assert "j_values" in _check(_golden(ZEROS), complex_j)


def test_csv_floats_compare_numerically():
    payload = {"checks": [{"lower": "2.529890384795e-01"}], "csv": [["k", "lower"], [12, "2.529890e-01"]]}
    exact, floats = split_fields(payload)
    assert exact == {"checks": [{"lower": None}], "csv": [["k", "lower"], [12, None]]}
    assert [f[2] for f in floats] == ["2.529890384795e-01", "2.529890e-01"]
    golden = {"bounds 12 1,3,4,5,7,8": golden_entry(0, payload)}
    job = Job("bounds", 12)
    rerendered = {"checks": [{"lower": "2.529890384796e-01"}], "csv": [["k", "lower"], [12, "2.529891e-01"]]}
    assert check_output(golden, job, 0, json.dumps(rerendered)) is None
    wrong = {"checks": [{"lower": "2.600000000000e-01"}], "csv": [["k", "lower"], [12, "2.529890e-01"]]}
    assert check_output(golden, job, 0, json.dumps(wrong)) is not None


def test_prefix_family_truncates_the_stored_series():
    full = {"label": "Delta", "series": {"prec": 6, "field": "Q", "coeffs": ["0", "1", "-24", "252", "-1472", "4830"]}}
    golden = {"qexp_delta": {"exit": 0, "payload": full}}
    short = {"label": "Delta", "series": {"prec": 4, "field": "Q", "coeffs": ["0", "1", "-24", "252"]}}
    assert check_output(golden, Job("qexp_delta", 4), 0, json.dumps(short)) is None
    wrong = {"label": "Delta", "series": {"prec": 4, "field": "Q", "coeffs": ["0", "1", "-24", "253"]}}
    assert check_output(golden, Job("qexp_delta", 4), 0, json.dumps(wrong)) is not None
