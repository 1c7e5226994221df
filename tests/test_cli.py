import json

import pytest

from vemtransport import cli
from vemtransport.config import ConfigError, ExperimentConfig, list_presets, load_preset
from vemtransport.timestepping import TimeSteppingError


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
            {"threads": 0},
            {"problem": "mystery"},
            {"d_values": [1.0, -2.0]},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_hash_is_canonical_and_stable(self):
        a = ExperimentConfig.from_dict({"kind": "kconv", "k": 2})
        b = ExperimentConfig.from_dict({"k": 2, "kind": "kconv"})
        assert a.config_hash() == b.config_hash()
        c = ExperimentConfig.from_dict({"kind": "kconv", "k": 3})
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

    def test_custom_run_writes_outputs_and_is_deterministic(self, tmp_path):
        cfg = {
            "kind": "custom",
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
        assert cli.main(["custom", "--config", str(path)]) == 0
        csv1 = (tmp_path / "run1" / "errors.csv").read_bytes()
        manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
        assert manifest["config_hash"]
        assert manifest["version"]

        cfg["out_dir"] = str(tmp_path / "run2")
        path.write_text(json.dumps(cfg))
        assert cli.main(["custom", "--config", str(path)]) == 0
        csv2 = (tmp_path / "run2" / "errors.csv").read_bytes()
        assert csv1 == csv2  # byte-identical reruns

    def test_out_and_threads_overrides(self, tmp_path):
        cfg = {
            "kind": "custom",
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
        assert cli.main(["custom", "--config", str(path), "--out", str(out), "--threads", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["threads"] == 2

    def test_custom_run_passes_solver_method(self, tmp_path, monkeypatch):
        seen = {}
        real = cli.run_manufactured_level

        def recording(*args, **kwargs):
            seen.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "run_manufactured_level", recording)
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "custom",
                "mesh_family": "quad",
                "levels": [1],
                "steps_per_level": [1],
                "k": 1,
                "velocity_backend": "darcy",
                "solver_method": "iterative",
                "out_dir": str(tmp_path),
            }
        )
        assert cli.run_custom(cfg) == 0
        assert seen["solver_method"] == "iterative"

    def test_solver_failure_exit_3_with_partial_table(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = cli.run_manufactured_level

        def flaky(mesh, steps, k, q, D, backend, tol, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise TimeSteppingError("synthetic failure")
            return real(mesh, steps, k, q, D, backend, tol, **kwargs)

        monkeypatch.setattr(cli, "run_manufactured_level", flaky)
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
        assert cli.run_convergence(cfg) == 3
        text = (tmp_path / "convergence.csv").read_text()
        assert len(text.strip().split("\n")) == 2  # header plus the level that ran
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failed_level"][0] == 2


class TestDrobustThreads:
    def test_threaded_sweep_matches_serial(self, tmp_path):
        base = {
            "kind": "drobust",
            "mesh_family": "quad",
            "levels": [1],
            "steps_per_level": [1],
            "k": 1,
            "velocity_backend": "analytic",
            "d_values": [1.0, 1e-2],
        }
        cfg1 = ExperimentConfig.from_dict({**base, "out_dir": str(tmp_path / "serial")})
        cfg2 = ExperimentConfig.from_dict(
            {**base, "out_dir": str(tmp_path / "threaded"), "threads": 2}
        )
        assert cli.run_drobust(cfg1) == 0
        assert cli.run_drobust(cfg2) == 0
        a = (tmp_path / "serial" / "drobust.csv").read_text()
        b = (tmp_path / "threaded" / "drobust.csv").read_text()
        assert a == b
