import io
import json
import logging
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vemtransport import cli, linalg
from vemtransport.config import (
    FIELDS, KINDS, ConfigError, ExperimentConfig, list_presets, load_preset,
)
from vemtransport.darcy import DarcyError
from vemtransport.geometry import MeshError, generate_family
from vemtransport.timestepping import TimeSteppingError

ROOT = Path(__file__).resolve().parents[1]
WELLS_REFERENCE = ROOT / "perfbench" / "reference" / "wells-homo"


def failing_at(monkeypatch, **solve):
    """Let every manufactured solve run but the one with the given level,
    k or D, which raises. The solve is named rather than counted, because
    a count cannot cross into a forked lane."""
    real = cli.run_manufactured_level

    def flaky(mesh, steps, k, q, D, backend, level=0):
        if {"level": level, "k": k, "D": D}.items() >= solve.items():
            raise TimeSteppingError("synthetic failure")
        return real(mesh, steps, k, q, D, backend, level=level)

    monkeypatch.setattr(cli, "run_manufactured_level", flaky)


class TestConfig:
    def test_defaults_resolve(self):
        cfg = ExperimentConfig()
        assert cfg.q == cfg.k
        assert len(cfg.steps_per_level) == len(cfg.levels)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "convergence", "mesh": "quad"})

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "nope"},
            {"mesh_family": "tri"},
            {"k": 0},
            {"D": 0.0},
            {"D": float("inf")},
            {"levels": [0]},
            {"velocity_backend": "teleport"},
            {"kind": "wells", "problem": "mystery"},
            {"kind": "drobust", "d_values": [1.0, -2.0]},
            {"solver_method": "cholesky"},
            {"levels": [5]},
            {"kind": "kconv", "levels": []},
            {"kind": "wells", "wells_level": 0},
            {"mesh_family": "voro", "rng_seed": -1},
            {"solver_tol": -1},
            {"solver_tol": 0.0},
            {"q": 11},
            {"steps_per_level": [0, 6, 12, 24]},
            {"kind": "kconv", "k_range": []},
            {"kind": "kconv", "k_range": [1, 11]},
            {"kind": "drobust", "d_values": []},
            {"levels": ["1"]},
            {"levels": 2},
            {"k": 1.5},
            {"k": True},
            {"q": 1.5},
            {"levels": [1], "steps_per_level": [2.5]},
            {"kind": "kconv", "k_range": [2.0]},
            {"kind": "wells", "wells_level": 2.5},
            {"mesh_family": "voro", "rng_seed": 1.5},
            {"D": True},
            {"kind": "drobust", "d_values": [True]},
            {"solver_tol": "1e-10"},
            {"solver_tol": True},
            {"kind": "wells", "problem": 3},
            {"out_dir": 3},
            {"kind": "convergence", "problem": "wells:vert"},
            {"kind": "custom"},
            {"kind": "drobust", "levels": [1, 3], "steps_per_level": [3, 12]},
            {"kind": "drobust", "levels": [1, 2], "steps_per_level": [1, 4]},
            {"kind": "drobust", "levels": [3, 2, 1], "steps_per_level": [9, 7, 8]},
            {"kind": "kconv", "levels": [1, 2], "steps_per_level": [3, 6]},
            {"kind": "wells", "mesh_family": "voro"},
            {"kind": "wells", "problem": "manufactured"},
            {"kind": ["wells"]},
            [1, 2],
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize(
        "key, values",
        [("levels", [1, 1]), ("levels", [2, 1, 2]), ("k_range", [2, 2]),
         ("d_values", [1e-3, 1e-3]), ("d_values", [1e-3, 1.0000001e-3])],
    )
    def test_repeated_entries_rejected(self, key, values):
        # a repeat runs one solve twice under one label; two D that print
        # alike at %.3e share a label and a drobust.csv key
        kind = {"levels": "convergence", "k_range": "kconv", "d_values": "drobust"}[key]
        with pytest.raises(ConfigError, match="repeat"):
            ExperimentConfig.from_dict({"kind": kind, key: values})

    def test_each_kind_reads_exactly_its_fields(self):
        sweep = ["mesh_family", "levels", "steps_per_level", "velocity_backend", "rng_seed"]
        reads = {
            "convergence": sweep + ["k", "q", "D"],
            "kconv": sweep + ["k_range", "D"],
            "drobust": sweep + ["k", "q", "d_values"],
            "wells": ["mesh_family", "problem", "k", "q", "D", "wells_level"],
        }
        assert sum(map(len, reads.values())) == 29
        for kind, names in reads.items():
            # rng_seed draws the Voronoi meshes only
            cfg = ExperimentConfig(kind=kind, mesh_family="hexa" if kind == "wells" else "voro")
            data = cfg.to_dict()
            assert sorted(data) == sorted(["kind", "out_dir", *names])
            assert ExperimentConfig.from_dict(data) == cfg

    @pytest.mark.parametrize("kind", ["convergence", "kconv", "drobust"])
    @pytest.mark.parametrize("family", ["quad", "hexa", None])
    def test_quad_and_hexa_studies_take_no_seed(self, kind, family):
        data = {"kind": kind, **({"mesh_family": family} if family else {})}
        cfg = ExperimentConfig.from_dict(data)
        assert "rng_seed" not in cfg.to_dict()
        for seed in (2024, 7):
            with pytest.raises(ConfigError, match="does not read.*rng_seed"):
                ExperimentConfig.from_dict({**data, "rng_seed": seed})
        with pytest.raises(ConfigError, match="does not read rng_seed"):
            ExperimentConfig(kind=kind, mesh_family=family, rng_seed=7)
        seeded = ExperimentConfig.from_dict({"kind": kind, "mesh_family": "rand", "rng_seed": 7})
        assert seeded.to_dict()["rng_seed"] == 7

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("convergence", "k_range", [1]), ("convergence", "d_values", [1.0]),
            ("convergence", "problem", "wells:homo"), ("convergence", "wells_level", 1),
            ("kconv", "k", 1), ("kconv", "q", 1), ("kconv", "d_values", [1.0]),
            ("kconv", "problem", "wells:homo"), ("kconv", "wells_level", 1),
            ("drobust", "D", 1.0), ("drobust", "k_range", [1]),
            ("drobust", "problem", "wells:homo"), ("drobust", "wells_level", 1),
            ("wells", "levels", [1]), ("wells", "steps_per_level", [1]),
            ("wells", "k_range", [1]), ("wells", "d_values", [1.0]),
            ("wells", "velocity_backend", "darcy"), ("wells", "rng_seed", 1),
        ],
    )
    def test_a_field_the_kind_does_not_read_is_rejected(self, kind, key, value):
        with pytest.raises(ConfigError, match="does not read"):
            ExperimentConfig.from_dict({"kind": kind, key: value})

    @pytest.mark.parametrize(
        "kind, key, value",
        [("kconv", "k", 3), ("kconv", "q", 2), ("drobust", "D", 0.5),
         ("convergence", "wells_level", 1), ("wells", "levels", [1])],
    )
    def test_a_direct_config_holds_unread_fields_at_their_defaults(self, kind, key, value):
        with pytest.raises(ConfigError, match=f"does not read {key}"):
            ExperimentConfig(kind=kind, **{key: value})

    def test_an_out_override_keeps_every_config_valid(self):
        # the CLI's --out rebuilds a config with dataclasses.replace
        configs = [ExperimentConfig(kind=kind) for kind in KINDS]
        for cfg in configs + [load_preset(name) for name in list_presets()]:
            moved = replace(cfg, out_dir="elsewhere")
            assert moved.to_dict() == {**cfg.to_dict(), "out_dir": "elsewhere"}

    def test_kind_dependent_defaults(self):
        assert ExperimentConfig(kind="convergence").levels == [1, 2, 3, 4]
        assert ExperimentConfig(kind="kconv").levels == [1]
        drobust = ExperimentConfig(kind="drobust")
        assert (drobust.levels, drobust.steps_per_level) == ([2], [6])
        wells = ExperimentConfig(kind="wells")
        assert (wells.mesh_family, wells.problem) == ("hexa", "wells:homo")

    def test_hash_is_canonical_and_stable(self):
        a = ExperimentConfig.from_dict({"kind": "kconv", "D": 2.0})
        b = ExperimentConfig.from_dict({"D": 2.0, "kind": "kconv"})
        assert a.config_hash() == b.config_hash()
        c = ExperimentConfig.from_dict({"kind": "kconv", "D": 3.0})
        assert a.config_hash() != c.config_hash()

    def test_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig(kind="drobust", mesh_family="voro", k=1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = ExperimentConfig.from_json(path)
        assert back.config_hash() == cfg.config_hash()

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_presets_ship_and_load(self):
        names = list_presets()
        assert "convergence-quad-k1" in names
        assert "wells-homo" in names
        for name in names:
            cfg = load_preset(name)
            assert cfg.config_hash()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("does-not-exist")

    def test_readme_table_lists_the_config_fields(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        table = text.split("### Configuration schema")[1].split("\n#")[0]
        rows = dict(re.findall(r"^\| `(\w+)` *\|[^|]*\|([^|]*)\|", table, flags=re.MULTILINE))
        assert sorted(rows) == sorted(ExperimentConfig.__dataclass_fields__)
        # the "read by" column names the kinds whose run reads the field
        for name, column in rows.items():
            readers = set(re.findall(r"`(\w+)`", column)) if column.strip() != "all" else set(KINDS)
            assert readers == {kind for kind in KINDS if name in ("kind", "out_dir", *FIELDS[kind])}, name


def test_benchmark_configs_validate_with_their_kind():
    # every config the benchmark passes to the CLI must validate, or every
    # study of its workload exits 2; read in a fresh interpreter that
    # writes no bytecode next to the benchmark scripts
    script = (
        "import json, sys; sys.path[:0] = [sys.argv[1]]\n"
        "import selfcheck, workloads\n"
        "configs = [(command, workloads.config_for(name, seed, 'out'))\n"
        "           for name, (command, _, _) in workloads.WORKLOADS.items() for seed in (2024, 1)]\n"
        "print(json.dumps(configs + list(selfcheck.SMALL.items())))\n"
    )
    done = subprocess.run([sys.executable, "-B", "-c", script, str(ROOT / "perfbench")],
                          capture_output=True, text=True, check=True, timeout=120)
    configs = json.loads(done.stdout)
    assert len(configs) == 2 * 4 + 2
    for command, data in configs:
        assert ExperimentConfig.from_dict(data).kind == command


def test_import_leaves_scipy_optimize_unloaded():
    # the package needs no optimizer; importing one costs setup time and memory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, vemtransport.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


class TestCliDispatch:
    def test_list_presets_flag(self, capsys):
        assert cli.main(["--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "wells-homo" in out

    def test_no_command_is_config_error(self):
        assert cli.main([]) == 2

    def test_bad_config_file_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "convergence", "k": 0}))
        assert cli.main(["convergence", "--config", str(path)]) == 2

    def test_kind_mismatch_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "kconv"}))
        assert cli.main(["convergence", "--config", str(path)]) == 2

    def test_preset_of_another_kind_exit_2(self, tmp_path):
        assert cli.main(["convergence", "--preset", "kconv-quad", "--out", str(tmp_path)]) == 2
        assert not any(tmp_path.iterdir())

    def test_preset_with_config_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a study ran"))
        argv = ["kconv", "--preset", "kconv-quad", "--config", "/nonexistent.json",
                "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_custom_kind_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["custom", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "levels, steps, expected",
        [([2], [5], (2, 5)), ([4], [1], (4, 1)), ([1], [4], (1, 4)),
         ([3], [7], (3, 7)), (None, None, (2, 6))],
    )
    def test_drobust_sweeps_a_listed_level_with_its_steps(self, levels, steps, expected):
        # a drobust config lists one level; the default is level 2 with 6 steps
        given = {} if levels is None else {"levels": levels, "steps_per_level": steps}
        cfg = ExperimentConfig.from_dict({"kind": "drobust", "d_values": [1.0, 1e-3], **given})
        assert {(s.level, s.steps) for s in cli.manufactured_solves(cfg)} == {expected}

    def test_drobust_presets_sweep_level_2_with_6_steps(self):
        for name in list_presets():
            cfg = load_preset(name)
            if cfg.kind == "drobust":
                solves = cli.manufactured_solves(cfg)
                assert [(s.level, s.steps) for s in solves] == [(2, 6)] * len(cfg.d_values)

    def test_run_writes_outputs_and_is_deterministic(self, tmp_path):
        cfg = {
            "kind": "convergence",
            "mesh_family": "quad",
            "levels": [1],
            "steps_per_level": [2],
            "k": 1,
            "q": 1,
            "velocity_backend": "analytic",
            "out_dir": str(tmp_path / "run1"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["convergence", "--config", str(path)]) == 0
        csv1 = (tmp_path / "run1" / "convergence.csv").read_bytes()
        manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
        assert manifest["config_hash"]
        assert manifest["version"]

        cfg["out_dir"] = str(tmp_path / "run2")
        path.write_text(json.dumps(cfg))
        assert cli.main(["convergence", "--config", str(path)]) == 0
        csv2 = (tmp_path / "run2" / "convergence.csv").read_bytes()
        assert csv1 == csv2  # byte-identical reruns

    def test_out_override(self, tmp_path):
        cfg = {
            "kind": "convergence",
            "mesh_family": "quad",
            "levels": [1],
            "steps_per_level": [1],
            "k": 1,
            "velocity_backend": "analytic",
            "out_dir": "ignored",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "overridden"
        assert cli.main(["convergence", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == ExperimentConfig.from_dict({**cfg, "out_dir": str(out)}).to_dict()
        assert manifest["failure"] is None
        timings = sorted(manifest["timings_seconds"])
        assert timings == ["geometry.generate.level_1", "level_1", "total"]
        assert (out / "convergence.csv").is_file()

    def test_manifest_records_every_darcy_solve(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "kind": "convergence", "mesh_family": "quad", "levels": [1, 2],
            "steps_per_level": [1, 2], "k": 1, "velocity_backend": "darcy",
            "out_dir": str(tmp_path),
        })
        assert cli.run(cfg) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        solves = manifest["darcy_solves"]
        assert sorted(solves) == ["level_1", "level_2"]
        for level in (1, 2):
            record = solves[f"level_{level}"]
            assert 0.0 <= record["residual"] <= 1e-10
            assert record["seconds"] >= 0.0
            # the condensed system: one multiplier per interior edge dof
            mesh = generate_family("quad", level)
            interior = mesh.num_edges - len(mesh.boundary_edges)
            assert record["unknowns"] == 2 * interior
            assert 0 < record["nnz"] <= record["lu_nnz"]

    def test_manifest_records_every_slab_residual(self, tmp_path):
        # the evidence that the pivot-free slab LU stayed accurate
        cfg = ExperimentConfig.from_dict({
            "kind": "kconv", "k_range": [1, 2], "velocity_backend": "analytic",
            "out_dir": str(tmp_path),
        })
        assert cli.run(cfg) == 0
        residuals = json.loads((tmp_path / "manifest.json").read_text())["slab_residuals"]
        assert sorted(residuals) == ["k_1", "k_2"]
        assert all(0.0 < r <= 1e-12 for r in residuals.values())

    def test_analytic_velocity_records_no_darcy_solve(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "kind": "convergence", "mesh_family": "quad", "levels": [1], "steps_per_level": [1],
            "k": 1, "velocity_backend": "analytic", "out_dir": str(tmp_path),
        })
        assert cli.run(cfg) == 0
        assert "darcy_solves" not in json.loads((tmp_path / "manifest.json").read_text())

    def test_log_level_warning_hides_the_per_level_lines(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "convergence", "mesh_family": "quad", "levels": [1], "steps_per_level": [1],
            "k": 1, "velocity_backend": "analytic", "out_dir": str(tmp_path / "out"),
        }))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        logs = {}
        for level in ["INFO", "WARNING"]:
            argv = [sys.executable, "-m", "vemtransport.cli", "--log-level", level,
                    "convergence", "--config", str(path)]
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            logs[level] = done.stderr
        assert "INFO level_1: h=" in logs["INFO"]
        assert "INFO" not in logs["WARNING"]

    def test_log_level_holds_in_process_after_logging_is_configured(self, tmp_path):
        # a program that configured logging first makes basicConfig a no-op
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "convergence", "mesh_family": "quad", "levels": [1], "steps_per_level": [1],
            "k": 1, "velocity_backend": "analytic", "out_dir": str(tmp_path / "out"),
        }))
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        root, package = logging.getLogger(), logging.getLogger("vemtransport")
        saved = package.level
        package.setLevel(logging.NOTSET)
        root.addHandler(handler)
        try:
            assert cli.main(["--log-level", "DEBUG", "convergence", "--config", str(path)]) == 0
        finally:
            root.removeHandler(handler)
            package.setLevel(saved)
        assert "level_1: h=" in stream.getvalue()

    def test_unknown_log_level_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--log-level", "LOUD", "convergence"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key, value", [("threads", 1), ("t_final", 1.0), ("n_steps", 4)])
    def test_removed_config_keys_exit_2(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "convergence", key: value, "out_dir": str(tmp_path)}))
        assert cli.main(["convergence", "--config", str(path)]) == 2

    def test_threads_flag_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["convergence", "--out", str(tmp_path), "--threads", "2"])
        assert exc.value.code == 2

    def test_solver_failure_exit_3_with_partial_table(self, tmp_path, monkeypatch):
        failing_at(monkeypatch, level=2)
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "convergence",
                "mesh_family": "quad",
                "levels": [1, 2],
                "steps_per_level": [1, 2],
                "k": 1,
                "velocity_backend": "analytic",
                "out_dir": str(tmp_path),
            }
        )
        assert cli.run(cfg) == 3
        text = (tmp_path / "convergence.csv").read_text()
        assert len(text.strip().split("\n")) == 2  # header plus the level that ran
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failure"] == {"solve": "level_2", "error": "synthetic failure"}

    @pytest.mark.parametrize(
        "kind, sweep, table, first_row, failed, at",
        [
            ("kconv", {"k_range": [1, 2]}, "kconv.csv", "1,", "k_2", {"k": 2}),
            ("drobust", {"d_values": [1.0, 1e-2]}, "drobust.csv", "1.000e+00,", "D_1.000e-02",
             {"D": 1e-2}),
        ],
        ids=["kconv", "drobust"],
    )
    def test_sweep_failure_keeps_finished_rows(
        self, tmp_path, monkeypatch, kind, sweep, table, first_row, failed, at
    ):
        failing_at(monkeypatch, **at)
        cfg = ExperimentConfig.from_dict(
            {
                "kind": kind,
                "mesh_family": "quad",
                "levels": [1],
                "steps_per_level": [1],
                "velocity_backend": "analytic",
                "out_dir": str(tmp_path),
                **sweep,
            }
        )
        assert cli.run(cfg) == 3
        lines = (tmp_path / table).read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith(first_row)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failure"]["solve"] == failed

    def test_out_of_memory_factorization_exit_3_names_the_solve(self, tmp_path, monkeypatch):
        # SuperLU raises MemoryError when it cannot allocate its factors
        # (a kconv study on voro meshes at k = 10); nothing is allocated here
        def no_memory(*args, **kwargs):
            raise MemoryError("Not enough memory to perform factorization.")

        monkeypatch.setattr(linalg, "splu", no_memory)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "kconv", "mesh_family": "quad", "levels": [1], "steps_per_level": [1],
            "k_range": [1], "velocity_backend": "analytic", "out_dir": str(tmp_path),
        }))
        assert cli.main(["kconv", "--config", str(path)]) == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failure"] == {
            "solve": "k_1",
            "error": "solver failure on slab 1: sparse LU failed: Not enough memory to perform"
                     " factorization.",
        }

    def test_mesh_failure_exit_3_names_the_cell(self, tmp_path, monkeypatch, caplog):
        def broken(*args, **kwargs):
            raise MeshError("cell 3 is not convex")

        monkeypatch.setattr(cli, "generate_family", broken)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "convergence", "mesh_family": "quad", "levels": [1],
            "steps_per_level": [1], "k": 1, "out_dir": str(tmp_path / "out"),
        }))
        with caplog.at_level(logging.ERROR, logger="vemtransport"):
            assert cli.main(["convergence", "--config", str(path)]) == 3
        assert "cell 3 is not convex" in caplog.text

    def test_mesh_failure_keeps_finished_rows(self, tmp_path, monkeypatch):
        real = cli.generate_family

        def broken_at_level_2(family, level, **kwargs):
            if level == 2:
                raise MeshError("cell 5 is not convex")
            return real(family, level, **kwargs)

        monkeypatch.setattr(cli, "generate_family", broken_at_level_2)
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "convergence",
                "mesh_family": "quad",
                "levels": [1, 2],
                "steps_per_level": [1, 2],
                "k": 1,
                "velocity_backend": "analytic",
                "out_dir": str(tmp_path),
            }
        )
        assert cli.run(cfg) == 3
        lines = (tmp_path / "convergence.csv").read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("1,")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failure"] == {
            "solve": "geometry.generate.level_2", "error": "cell 5 is not convex",
        }


#: small studies of every manufactured kind, each with two or more solves
LANE_STUDIES = {
    "convergence-quad": {"kind": "convergence", "mesh_family": "quad", "levels": [1, 2],
                         "steps_per_level": [1, 2], "k": 1, "velocity_backend": "darcy"},
    "convergence-voro": {"kind": "convergence", "mesh_family": "voro", "levels": [1, 2],
                         "steps_per_level": [1, 2], "k": 1},
    "kconv": {"kind": "kconv", "mesh_family": "quad", "levels": [1], "steps_per_level": [1],
              "k_range": [1, 2, 3], "velocity_backend": "analytic"},
    "drobust": {"kind": "drobust", "mesh_family": "quad", "levels": [1], "steps_per_level": [1],
                "d_values": [1.0, 1e-2, 1e-4], "velocity_backend": "analytic"},
}


def lane_study(tmp_path, name, **changes):
    return ExperimentConfig.from_dict({**LANE_STUDIES[name], "out_dir": str(tmp_path), **changes})


class TestLanes:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        """Fail a test that hangs for a minute, and one that leaves a
        child process behind."""
        def hung(signum, frame):
            raise TimeoutError("the study hung")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def lanes(monkeypatch, n):
        monkeypatch.setattr(cli, "lane_count", lambda: n)

    def test_split_is_longest_first_with_the_costliest_lane_last(self):
        def labels(data, n):
            solves = cli.manufactured_solves(ExperimentConfig.from_dict(data))
            return [[s.label for s in lane] for lane in cli.split_lanes(solves, n)]

        assert labels({"kind": "convergence"}, 2) == [
            ["level_1", "level_2", "level_3"], ["level_4"]]
        assert labels({"kind": "convergence"}, 1) == [
            ["level_1", "level_2", "level_3", "level_4"]]
        assert labels({"kind": "kconv", "k_range": [1, 2, 3, 4]}, 2) == [
            ["k_1", "k_2", "k_3"], ["k_4"]]
        d_values = [10.0 ** -e for e in range(8)]
        lanes = labels({"kind": "drobust", "d_values": d_values}, 2)
        assert [len(lane) for lane in lanes] == [4, 4]
        assert sorted(sum(lanes, [])) == sorted(f"D_{d:.3e}" for d in d_values)

    @pytest.mark.parametrize("name", LANE_STUDIES)
    def test_tables_do_not_depend_on_the_lane_count(self, tmp_path, monkeypatch, name):
        tables = []
        for n in (1, 2, 3):
            self.lanes(monkeypatch, n)
            out = tmp_path / f"lanes_{n}"
            assert cli.run(lane_study(out, name)) == 0
            files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            tables.append({f: (out / f).read_bytes() for f in files})
            manifest = json.loads((out / "manifest.json").read_text())
            labels = [s.label for s in cli.manufactured_solves(lane_study(out, name))]
            lanes = manifest["lanes"]
            assert len(lanes) == min(n, len(labels))
            assert sorted(sum((lane["solves"] for lane in lanes), [])) == sorted(labels)
            assert all(lane["peak_rss_mb"] > 0 for lane in lanes)
            assert sorted(manifest["slab_residuals"]) == sorted(labels)
            assert set(manifest["timings_seconds"]) >= set(labels)
        assert tables[0] and tables[1] == tables[0] and tables[2] == tables[0]

    def test_solver_failure_in_a_child_lane(self, tmp_path, monkeypatch):
        # the child runs D = 1 and D = 1e-4, this process D = 1e-2
        self.lanes(monkeypatch, 2)
        failing_at(monkeypatch, D=1e-4)
        cfg = lane_study(tmp_path, "drobust")
        child = cli.split_lanes(cli.manufactured_solves(cfg), 2)[1]
        assert [s.D for s in child] == [1.0, 1e-4]
        assert cli.run(cfg) == 3
        lines = (tmp_path / "drobust.csv").read_text().strip().split("\n")
        assert [line.split(",")[0] for line in lines] == ["D", "1.000e+00", "1.000e-02"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failure"] == {"solve": "D_1.000e-04", "error": "synthetic failure"}

    @pytest.mark.parametrize("how", ["exit", "kill"])
    def test_a_crashed_child_fails_its_solve(self, tmp_path, monkeypatch, caplog, how):
        self.lanes(monkeypatch, 2)
        real = cli.run_manufactured_level

        def crash(mesh, steps, k, q, D, backend, level=0):
            if level == 2:  # in the child
                if how == "exit":
                    os._exit(1)
                os.kill(os.getpid(), signal.SIGKILL)
            return real(mesh, steps, k, q, D, backend, level=level)

        monkeypatch.setattr(cli, "run_manufactured_level", crash)
        cfg = lane_study(tmp_path, "convergence-quad", velocity_backend="analytic")
        assert [s.label for s in cli.split_lanes(cli.manufactured_solves(cfg), 2)[1]] == ["level_2"]
        with caplog.at_level(logging.ERROR, logger="vemtransport"):
            assert cli.run(cfg) == 3
        lines = (tmp_path / "convergence.csv").read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("1,")
        failure = json.loads((tmp_path / "manifest.json").read_text())["failure"]
        assert failure["solve"] == "level_2"
        assert ("exited with status 1" if how == "exit" else "killed by signal 9") in failure["error"]
        assert "level_2 failed" in caplog.text

    def test_an_error_in_this_process_kills_the_children(self, tmp_path, monkeypatch):
        self.lanes(monkeypatch, 2)

        def stuck_or_broken(mesh, steps, k, q, D, backend, level=0):
            if level == 2:  # in the child, which only the kill ends
                time.sleep(300)
            raise RuntimeError("not a solver error")

        monkeypatch.setattr(cli, "run_manufactured_level", stuck_or_broken)
        cfg = lane_study(tmp_path, "convergence-quad", velocity_backend="analytic")
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="not a solver error"):
            cli.run(cfg)
        assert time.monotonic() - started < 30


class TestWells:
    def test_darcy_failure_exit_3_with_manifest(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise DarcyError("synthetic flow failure")

        monkeypatch.setattr(cli, "solve_darcy_mixed", broken)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "wells", "wells_level": 1, "out_dir": str(tmp_path)}))
        assert cli.main(["wells", "--config", str(path)]) == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failure"] == {"solve": "darcy", "error": "synthetic flow failure"}

    def test_transport_runs_at_the_config_d(self, tmp_path, monkeypatch):
        seen = []

        def stop(mesh, k, problem):
            seen.append(problem.D)
            raise TimeSteppingError("stop before the transport solve")

        monkeypatch.setattr(cli, "TransportSystem", stop)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"kind": "wells", "wells_level": 1, "D": 0.25, "out_dir": str(tmp_path)}
        ))
        assert cli.main(["wells", "--config", str(path)]) == 3
        assert seen == [0.25]

    def test_unknown_problem_exit_2_names_the_variants(self, tmp_path, caplog):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"kind": "wells", "problem": "wells:bogus", "out_dir": str(tmp_path / "out")}
        ))
        with caplog.at_level(logging.ERROR, logger="vemtransport"):
            assert cli.main(["wells", "--config", str(path)]) == 2
        for name in ["wells:homo", "wells:vert", "wells:diag"]:
            assert name in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("level, k", [(1, 1), (2, 1), (1, 2)])
    def test_runs_at_coarse_levels(self, tmp_path, level, k):
        # the pure-Neumann flow solves at every level and degree, with the
        # source mean it removed recorded
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"kind": "wells", "wells_level": level, "k": k, "out_dir": str(tmp_path)}
        ))
        assert cli.main(["wells", "--config", str(path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failure"] is None
        assert 0.0 <= manifest["darcy_solve"]["residual"] <= 1e-10
        assert manifest["f_mean_removed"] != 0.0
        assert 0.0 < manifest["slab_residual"] <= 1e-12

    def test_preset_run_matches_reference(self, tmp_path):
        assert cli.main(["wells", "--preset", "wells-homo", "--out", str(tmp_path)]) == 0
        # the file list the benchmark's output gate expects
        expected = ["minmax.csv", "mesh.txt", "mesh.vtk", "darcy.vtk", "concentration_0000.vtk",
                    "concentration_0001.vtk", "concentration_0002.vtk",
                    "concentration_series.json", "manifest.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
        series = json.loads((tmp_path / "concentration_series.json").read_text())["series"]
        assert [entry["time"] for entry in series] == [1.0, 2.0, 4.0]
        got = np.loadtxt(tmp_path / "minmax.csv", delimiter=",", skiprows=1)
        ref = np.loadtxt(WELLS_REFERENCE / "minmax.csv", delimiter=",", skiprows=1)
        assert got.shape == ref.shape
        # the gate's tolerance: 1e-12 relative with a 1e-14 absolute floor
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-14)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failure"] is None
        assert "geometry.generate.level_3" in manifest["timings_seconds"]
        assert 0.0 <= manifest["darcy_solve"]["residual"] <= 1e-10
        assert manifest["darcy_solve"]["seconds"] >= 0.0
