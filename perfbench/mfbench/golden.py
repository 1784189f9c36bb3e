"""Golden outputs and the check of one job's output against them.

A job's JSON output splits into exact fields (rational strings, integer
charpolys, certificate status, coordinates, counts, the structure itself),
which must equal the golden file, and float-rendered analytic fields, which
are compared only within the tolerance the job states. Large exact parts are
stored as a sha256 of their canonical JSON.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from .jobs import FAMILY_BY_NAME, Job

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
# Tolerances every job runs with: the CLI defaults of --tol-zero and --tol-match.
TOL_ZERO = 1e-12
TOL_MATCH = 1e-8
INLINE_LIMIT = 4096  # exact parts longer than this many characters are hashed

_ABS_ZERO = "abs_zero"  # arc angle, located to --tol-zero
_ABS_MATCH = "abs_match"  # j-values and shifted roots, matched to --tol-match
_REL = "rel"  # magnitudes and bounds, relative --tol-match
_IGNORED = "ignored"  # residuals and distances: any value within the verdict
_CSV = "csv"
FIELD_MODES = {
    "theta": _ABS_ZERO,
    "j_values": _ABS_MATCH,
    "poly_roots_shifted": _ABS_MATCH,
    "alpha_abs": _REL,
    "beta_abs": _REL,
    "lower": _REL,
    "upper": _REL,
    "actual": _REL,
    "residual": _IGNORED,
    "max_pair_distance": _IGNORED,
    "csv": _CSV,
}
_CSV_FLOAT = re.compile(r"^[+-]?\d\.\d+e[+-]\d+$")
_NUMBER = re.compile(r"[+-]?\d+(?:\.(\d*))?(?:e([+-]?\d+))?")


def golden_key(job: Job) -> str:
    fam = FAMILY_BY_NAME[job.family]
    return fam.name if fam.golden == "prefix" else " ".join(fam.argv(job.param))


def split_fields(payload) -> tuple[object, list[list]]:
    """(exact part with float leaves masked to None, [[path, mode, value]...])."""
    floats: list[list] = []

    def walk(node, path: str, mode: str | None):
        if isinstance(node, dict):
            return {k: walk(v, f"{path}/{k}", FIELD_MODES.get(k, mode)) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v, f"{path}/{i}", mode) for i, v in enumerate(node)]
        if mode == _IGNORED:
            return None
        if mode in (_ABS_ZERO, _ABS_MATCH, _REL) or (
            mode == _CSV and isinstance(node, str) and _CSV_FLOAT.match(node)
        ):
            floats.append([path, _REL if mode == _CSV else mode, node])
            return None
        return node

    return walk(payload, "", None), floats


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def golden_entry(returncode: int, payload) -> dict:
    exact, floats = split_fields(payload)
    entry: dict = {"exit": returncode}
    if len(canonical(exact)) > INLINE_LIMIT:
        entry["exact_sha256"] = digest(exact)
    else:
        entry["exact"] = exact
    entry["floats"] = [value for _, _, value in floats]
    return entry


def _components(text: str) -> list[tuple[float, float]]:
    """(value, one unit in the last printed digit) for the real part and, in
    a complex rendering, the imaginary part."""
    z = complex(text)
    units = [10.0 ** (int(m.group(2) or 0) - len(m.group(1) or "")) for m in _NUMBER.finditer(text)]
    if not text.endswith("j"):
        return [(z.real, units[0]), (0.0, 0.0)]
    return [(z.real, units[0] if len(units) == 2 else 0.0), (z.imag, units[-1])]


def floats_close(got: str, want: str, mode: str, tol_match: float) -> bool:
    try:
        g, w = _components(str(got)), _components(want)
    except (ValueError, IndexError):
        return False
    if mode == _ABS_ZERO:
        tol = TOL_ZERO
    elif mode == _ABS_MATCH:
        tol = tol_match
    else:
        tol = tol_match * abs(complex(want))
    return all(abs(gv - wv) <= tol + gu + wu for (gv, gu), (wv, wu) in zip(g, w))


def expected_entry(golden: dict, job: Job) -> dict:
    """The golden entry for this job; prefix families truncate the stored
    largest-precision q-expansion to the job's precision."""
    entry = golden[golden_key(job)]
    if "payload" not in entry:
        return entry
    payload = json.loads(json.dumps(entry["payload"]))
    series = payload.get("series", payload)  # Delta is a form wrapping its series
    series["prec"] = job.param
    series["coeffs"] = series["coeffs"][: job.param]
    return golden_entry(entry["exit"], payload)


def check_output(golden: dict, job: Job, returncode: int, stdout: str) -> str | None:
    """None when the job's exit code and output match the golden entry,
    otherwise a one-line reason."""
    want = expected_entry(golden, job)
    if returncode != want["exit"]:
        return f"exit code {returncode}, expected {want['exit']}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    exact, floats = split_fields(payload)
    if "exact" in want:
        if exact != want["exact"]:
            return "exact fields differ from the golden output"
    elif digest(exact) != want["exact_sha256"]:
        return "exact fields differ from the golden output (sha256)"
    tol_match = float(payload.get("tol", TOL_MATCH)) if isinstance(payload, dict) else TOL_MATCH
    # equal exact parts put the float fields at the same paths
    for (path, mode, got), ref in zip(floats, want["floats"]):
        if not floats_close(got, ref, mode, tol_match):
            return f"{path} = {got}, golden {ref}, outside the job's tolerance"
    return None


def write_golden(workload: str, record: dict) -> None:
    """One line per job, so that a re-recording diffs job by job."""
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(record["jobs"].items())]
    with open(GOLDEN_DIR / f"{workload}.json", "w") as fh:
        fh.write('{"recorded_from": ' + json.dumps(record["recorded_from"], sort_keys=True))
        fh.write(',\n "jobs": {\n' + ",\n".join(lines) + "\n}}\n")


def load_golden(workload: str) -> dict:
    with open(GOLDEN_DIR / f"{workload}.json") as fh:
        return json.load(fh)["jobs"]
