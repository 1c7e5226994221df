"""Output gate: is a finished study's output correct?

A study passes when the CLI exited with 0, wrote every expected file,
and its result table matches the reference committed under
``reference/<workload>/`` to 1e-12 relative with a 1e-14 absolute floor
(the tolerance the ROADMAP sets for refactors). A seed-dependent
workload run with a seed that has no reference is held to invariants
that hold for every seed instead; see `check_invariants`.
"""

import csv
import io
import json
import math
from pathlib import Path

from workloads import WORKLOADS, has_reference

RTOL = 1e-12
ATOL = 1e-14
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EXPECTED_FILES = {
    "convergence": ["convergence.csv", "convergence.txt", "manifest.json"],
    "drobust": ["drobust.csv", "manifest.json"],
    "wells": ["minmax.csv", "mesh.txt", "mesh.vtk", "darcy.vtk", "concentration_0000.vtk",
              "concentration_0001.vtk", "concentration_0002.vtk",
              "concentration_series.json", "manifest.json"],
}
ERROR_COLUMNS = ["l2_final", "l2h1", "err", "h1_final"]


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_tables(actual, reference):
    """Differences between two CSV texts; an empty list means they match."""
    got, ref = _rows(actual), _rows(reference)
    if len(got) != len(ref) or (got and got[0] != ref[0]):
        return [f"table shape or header differs: {len(got)} rows vs {len(ref)} in reference"]
    problems = []
    for i, (row_g, row_r) in enumerate(zip(got, ref)):
        if len(row_g) != len(row_r):
            problems.append(f"row {i}: {len(row_g)} cells vs {len(row_r)}")
            continue
        for j, (g, r) in enumerate(zip(row_g, row_r)):
            a, b = _number(g), _number(r)
            if a is None or b is None:
                ok = g == r
            else:
                ok = abs(a - b) <= RTOL * abs(b) + ATOL
            if not ok:
                problems.append(f"row {i} column {ref[0][j]!r}: {g} vs reference {r}")
    return problems


def check_invariants(actual, reference):
    """Seed-independent checks of a convergence table.

    The header and the level and dt columns equal the reference's; every
    error is finite and positive; h and every error column strictly
    decrease from one level to the next.
    """
    got, ref = _rows(actual), _rows(reference)
    if len(got) != len(ref) or (got and got[0] != ref[0]):
        return ["table shape or header differs from the reference"]
    header = ref[0]
    problems = []
    for name in ["level", "dt"]:
        j = header.index(name)
        for row_g, row_r in zip(got[1:], ref[1:]):
            a, b = _number(row_g[j]), float(row_r[j])
            if a is None or abs(a - b) > RTOL * abs(b):
                problems.append(f"{name} column differs: {row_g[j]} vs {row_r[j]}")
    for name in ["h"] + ERROR_COLUMNS:
        j = header.index(name)
        values = [_number(row[j]) for row in got[1:]]
        if not all(v is not None and math.isfinite(v) and v > 0 for v in values):
            problems.append(f"{name} not finite and positive: {values}")
        elif any(b >= a for a, b in zip(values, values[1:])):
            problems.append(f"{name} does not decrease under refinement: {values}")
    return problems


def check_study(workload, seed, out_dir, exit_code):
    """Problems found in one study's output; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    kind, _, table = WORKLOADS[workload]
    out_dir = Path(out_dir)
    missing = [name for name in EXPECTED_FILES[kind] if not (out_dir / name).is_file()]
    if missing:
        return [f"missing outputs: {missing}"]
    try:
        json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"manifest.json unreadable: {exc}"]
    actual = (out_dir / table).read_text(encoding="utf-8")
    reference = (REFERENCE_DIR / workload / table).read_text(encoding="utf-8")
    if has_reference(workload, seed):
        return compare_tables(actual, reference)
    return check_invariants(actual, reference)
