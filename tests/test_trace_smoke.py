"""A traced study runs end to end and keeps every span and size record.

test_trace_targets.py checks that the tracer finds its names at install
time. A hook whose signature drifted (a positional argument it reads,
or the type of a returned object) is only found when the hook runs: the
tracer then lists "<span> (size record)" as missing and goes on. This
test runs a tiny study through `cli.main` with `perfbench/tracer.py`
installed, in a fresh interpreter, and checks what the tracer recorded.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

#: counter targets the tracer still patches although their modules no
#: longer import `polygon_rule` (a known stale entry of the tracer)
STALE_COUNTERS = {"vemtransport.element:polygon_rule", "vemtransport.darcy:polygon_rule"}

SCRIPT = """
import collections, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from vemtransport import cli
code = cli.main(["convergence", "--config", sys.argv[3]])
spans = collections.Counter(span[0] for span in tracer.spans)
print(json.dumps({"code": code, "missing": tracer.missing, "spans": spans,
                  "sizes": [fields for _, fields in tracer.sizes]}))
"""


@pytest.mark.skipif(not (PERFBENCH / "tracer.py").is_file(), reason="perfbench/ is absent")
def test_traced_study_loses_no_span_or_size_record(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "convergence", "mesh_family": "quad", "levels": [1], "steps_per_level": [3],
        "k": 1, "q": 1, "velocity_backend": "analytic", "out_dir": str(tmp_path / "out"),
    }))
    done = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "src"), str(PERFBENCH), str(config)],
        capture_output=True, text=True, check=True, timeout=300, cwd=tmp_path,
    )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert record["code"] == 0
    assert set(record["missing"]) <= STALE_COUNTERS, record["missing"]
    spans = record["spans"]
    assert spans["cli.level"] == 1
    assert spans["timestepping.slab_matrix"] == 1
    assert spans["timestepping.factor"] == 1
    assert spans["timestepping.slab_solve"] == 3
    level = next(fields for fields in record["sizes"] if "level" in fields)
    assert level == {"cells": level["cells"], "level": 1, "D": 1.0}
