"""Every named function in the package is reached by a study.

The paper's results come out of the CLI studies, so a function that no
study reaches is either a test tool (it belongs in tests/helpers.py) or
an option nothing uses. This test runs eight small studies, covering
every study kind, all four mesh families, both velocity backends and
the wells example, plus ``--list-presets``, in-process under
``sys.setprofile``, and compares the named functions (``def``; lambdas
and comprehensions are left out) that were never called with an
explicit allowlist.
"""

import inspect
import json
import sys
import types
from pathlib import Path

import pytest

import vemtransport
from vemtransport import cli

PACKAGE = Path(vemtransport.__file__).parent

#: functions no study reaches, and why they stay in the package
UNREACHED = {
    "quadrature.polygon_rule": "the benchmark tracer counts calls to it",
    "config.load_preset": "the full presets are too large for tier-1",
}

STUDIES = [
    {"kind": "convergence", "mesh_family": "quad", "levels": [1, 2], "steps_per_level": [1, 2],
     "k": 1},
    {"kind": "convergence", "mesh_family": "hexa", "levels": [1], "steps_per_level": [1],
     "k": 2, "velocity_backend": "analytic"},
    {"kind": "convergence", "mesh_family": "voro", "levels": [1], "steps_per_level": [1],
     "k": 1},
    {"kind": "convergence", "mesh_family": "rand", "levels": [1], "steps_per_level": [1], "k": 1,
     "velocity_backend": "analytic"},
    {"kind": "kconv", "mesh_family": "quad", "levels": [1], "steps_per_level": [1],
     "k_range": [1, 2]},
    {"kind": "drobust", "mesh_family": "quad", "levels": [1], "steps_per_level": [1],
     "d_values": [1.0, 1e-3]},
    {"kind": "drobust", "mesh_family": "voro", "levels": [1], "steps_per_level": [1],
     "velocity_backend": "analytic", "d_values": [1e-2]},
    {"kind": "wells", "wells_level": 1, "k": 1},
]


def named_functions():
    """(file, first line, qualified name) -> "module.qualname" of every
    named function and method defined in the package's modules."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                key = (code.co_filename, code.co_firstlineno, code.co_qualname)
                out[key] = f"{path.stem}.{code.co_qualname}"
    return out


def clear_caches():
    """Empty the package's lru caches, so that a cached function is called
    again whatever earlier tests computed."""
    for name in vemtransport.__dict__:
        module = getattr(vemtransport, name)
        if isinstance(module, types.ModuleType):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")
def test_studies_reach_every_function_but_the_allowlist(tmp_path, monkeypatch):
    # at least two lanes, so that the forking code runs on any machine;
    # a forked lane's calls are not seen here, so every lane runs its
    # solves through the function that runs this process's lane
    real_count = cli.lane_count
    monkeypatch.setattr(cli, "lane_count", lambda: max(2, real_count()))
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    codes = []
    clear_caches()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i, study in enumerate(STUDIES):
            path = tmp_path / f"study_{i}.json"
            path.write_text(json.dumps({**study, "out_dir": str(tmp_path / f"out_{i}")}))
            codes.append(cli.main([study["kind"], "--config", str(path)]))
        codes.append(cli.main(["--list-presets"]))
    finally:
        sys.setprofile(previous)
    assert codes == [0] * (len(STUDIES) + 1)
    functions = named_functions()
    unreached = {name for key, name in functions.items() if key not in reached}
    # (functions no study reaches, allowlist entries a study now reaches)
    assert (sorted(unreached - set(UNREACHED)), sorted(set(UNREACHED) - unreached)) == ([], [])
