"""Reference outputs and the comparisons that decide ``failed``.

A seed with files in ``reference/`` is checked against them; any other seed
against ``oracle.py``. Headers and labels must match exactly, numbers within
a tolerance:

* sweep CSV values: |got - ref| <= 1e-11 * max(1, |ref|). A value is a mean
  over the draws, so one mis-solved draw out of 10,000 that is off by more
  than 1e-7 fails, while the <= 1.5e-13 drift of a closed-form tau solver
  passes with room to spare.
* per-call results: value within 1e-11 * max(1, |ref|), tau within 1e-9
  (a flat optimum pins the value far better than its argument), regime and
  feasible flag equal. The two NJ case-b candidates coincide when tau2 is
  P/K nudged by an ulp, so their labels may swap when value and tau agree.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import oracle
from inputs import SIR_START_DB, SIR_STOP_DB, POINT_SIRS_DB, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CSV_TOL = 1e-11
VALUE_TOL = 1e-11
TAU_TOL = 1e-9
POINT_COLUMNS = ("index", "solver", "sir_db", "value", "tau", "regime", "feasible")
_CASE_B = {"NJ-case-b-candidate1", "NJ-case-b-candidate2"}


def reference_path(name: str, seed: int) -> Path:
    """Committed reference of a workload's sweep, or of the point_solves
    calls when name is "point_solves"."""
    return REFERENCE_DIR / f"{name}-seed{seed}.csv"


def sweep_reference(workload: Workload, seed: int) -> tuple[str, str]:
    """(CSV text, source) of the expected sweep output."""
    path = reference_path(workload.name, seed)
    if path.is_file():
        return path.read_text(encoding="ascii"), f"committed:{path.name}"
    return (oracle.sweep_csv(seed, workload.draws, SIR_START_DB, SIR_STOP_DB,
                             workload.sir_step_db), "oracle")


def point_reference(seed: int, pairs: int):
    """([(index, solver, sir_db, value, tau, regime, feasible)], source) of
    the point_solves calls on the first `pairs` draws."""
    path = reference_path("point_solves", seed)
    if path.is_file():
        with path.open(encoding="ascii", newline="") as fh:
            rows = [(int(r["index"]), r["solver"], float(r["sir_db"]),
                     float(r["value"]), float(r["tau"]), r["regime"],
                     r["feasible"] == "true") for r in csv.DictReader(fh)]
        if len(rows) >= 2 * pairs:
            return rows[:2 * pairs], f"committed:{path.name}"
    return oracle.point_results(seed, pairs, POINT_SIRS_DB), "oracle"


def format_point_rows(rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(POINT_COLUMNS) + "\n")
    for i, solver, sir, value, tau, regime, feasible in rows:
        buf.write(f"{i},{solver},{format(sir, 'g')},{format(value, '.17g')},"
                  f"{format(tau, '.17g')},{regime},{'true' if feasible else 'false'}\n")
    return buf.getvalue()


def _close(got: float, ref: float, tol: float) -> bool:
    return abs(got - ref) <= tol * max(1.0, abs(ref))


def compare_csv(got: str, ref: str) -> list[str]:
    """Problems found comparing sweep CSV text with its reference."""
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    got_head = [ln for ln in got_lines if ln.startswith("#")]
    ref_head = [ln for ln in ref_lines if ln.startswith("#")]
    got_body = [ln for ln in got_lines if not ln.startswith("#")]
    ref_body = [ln for ln in ref_lines if not ln.startswith("#")]
    problems = []
    if got_head != ref_head:
        problems.append("comment header differs")
    if not got_body or not ref_body or got_body[0] != ref_body[0]:
        return problems + ["column header differs"]
    if len(got_body) != len(ref_body):
        return problems + [f"{len(got_body) - 1} rows, expected {len(ref_body) - 1}"]
    columns = ref_body[0].split(",")
    for got_row, ref_row in zip(got_body[1:], ref_body[1:]):
        g, r = got_row.split(","), ref_row.split(",")
        if len(g) != len(r):
            problems.append(f"row {ref_row.split(',')[0]}: field count differs")
            continue
        for name, gv, rv in zip(columns, g, r):
            try:
                ok = _close(float(gv), float(rv), CSV_TOL)
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"sir_db={r[0]} {name}: {gv} vs {rv}")
    return problems


def point_ok(got, ref) -> bool:
    """got is (value, tau, regime, feasible); ref is a reference row."""
    if got is None:
        return False
    value, tau, regime, feasible = got
    _, _, _, r_value, r_tau, r_regime, r_feasible = ref
    if feasible != r_feasible:
        return False
    if not (_close(value, r_value, VALUE_TOL) and abs(tau - r_tau) <= TAU_TOL):
        return False
    return regime == r_regime or {regime, r_regime} <= _CASE_B
