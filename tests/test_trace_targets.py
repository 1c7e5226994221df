"""The benchmark tracer still finds every name it wraps.

perfbench/tracer.py patches vemtransport names from outside the
package; a name a refactor removes reads 0 in the per-layer metrics
instead of failing. This test installs the tracer in a fresh interpreter
(without writing bytecode next to it) and checks that no span or
callback target is missing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

#: functions the tracer only counts, under several module names; each
#: count stays live while the quadrature module still has the name
COUNTED = ("roots_legendre", "roots_jacobi", "polygon_rule", "edge_rule")

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""


@pytest.mark.skipif(not (PERFBENCH / "tracer.py").is_file(), reason="perfbench/ is absent")
def test_tracer_finds_every_span_and_callback_target():
    done = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "src"), str(PERFBENCH)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    missing = json.loads(done.stdout.strip().splitlines()[-1])
    assert [t for t in missing if t.rsplit(":", 1)[1] not in COUNTED] == []
    for name in COUNTED:
        assert f"vemtransport.quadrature:{name}" not in missing
