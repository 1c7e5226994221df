"""Declarative experiment configuration.

A config is a flat JSON document; unknown keys are rejected. Presets for
the shipped studies live in the package's presets/ directory and can be
loaded by name.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from importlib import resources


class ConfigError(ValueError):
    pass


KINDS = ("convergence", "kconv", "drobust", "wells", "custom")
FAMILIES = ("quad", "hexa", "voro", "rand")
BACKENDS = ("darcy", "analytic")
DEFAULT_STEPS = [3, 6, 12, 24]
DEFAULT_D_VALUES = [1e0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7]


def _has_type(value, typ):
    """JSON value against a field annotation: no bool is a number."""
    if getattr(typ, "__origin__", None) is list:
        return isinstance(value, list) and all(_has_type(v, typ.__args__[0]) for v in value)
    return not isinstance(value, bool) and isinstance(value, (int, float) if typ is float else typ)


@dataclass
class ExperimentConfig:
    """One experiment run: meshes, degrees, coefficients, data, outputs."""

    kind: str = "convergence"
    mesh_family: str = "quad"
    levels: list[int] = field(default_factory=lambda: [1, 2, 3, 4])
    k: int = 1
    q: int = None
    D: float = 1.0
    velocity_backend: str = "darcy"
    problem: str = "manufactured"
    steps_per_level: list[int] = None
    k_range: list[int] = field(default_factory=lambda: [1, 2, 3, 4])
    d_values: list[float] = field(default_factory=lambda: list(DEFAULT_D_VALUES))
    wells_level: int = 3
    out_dir: str = "out"
    rng_seed: int = 2024

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # a None default (q, steps_per_level) is derived below
            if not (_has_type(value, f.type) or (value is None and f.default is None)):
                kind = f.type.__name__ if isinstance(f.type, type) else f.type
                raise ConfigError(f"{f.name} must be of type {kind}, got {value!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.mesh_family not in FAMILIES:
            raise ConfigError(f"unknown mesh family {self.mesh_family!r}")
        if self.velocity_backend not in BACKENDS:
            raise ConfigError(f"unknown velocity backend {self.velocity_backend!r}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.q is None:
            self.q = self.k
        if not 0 <= self.q <= 10:
            raise ConfigError("q must lie in 0..10")
        if not 0.0 < self.D < float("inf"):
            raise ConfigError("D must be a positive finite number")
        if not self.levels or any(lv < 1 or lv > 4 for lv in self.levels):
            raise ConfigError("levels must be a non-empty list of levels in 1..4")
        if self.steps_per_level is None:
            self.steps_per_level = [DEFAULT_STEPS[lv - 1] for lv in self.levels]
        if len(self.steps_per_level) != len(self.levels):
            raise ConfigError("steps_per_level must align with levels")
        if any(n < 1 for n in self.steps_per_level):
            raise ConfigError("steps_per_level entries must be >= 1")
        if self.kind == "drobust" and len(self.levels) > 1 and 2 not in self.levels:
            raise ConfigError("a multi-level drobust config sweeps at level 2, so levels must list 2")
        if not self.d_values or any(not (0.0 < d < float("inf")) for d in self.d_values):
            raise ConfigError("d_values must be a non-empty list of positive finite numbers")
        # kconv runs q = k, and the Radau rules stop at q = 10
        if not self.k_range or any(not 1 <= kk <= 10 for kk in self.k_range):
            raise ConfigError("k_range must be a non-empty list of degrees in 1..10")
        if self.wells_level < 1:
            raise ConfigError("wells_level must be >= 1")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")
        if self.problem != "manufactured" and not self.problem.startswith("wells:"):
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.kind != "wells" and self.problem != "manufactured":
            raise ConfigError(
                f"a {self.kind} study runs the manufactured problem, not {self.problem!r}"
            )
        if self.kind == "wells" and not self.problem.startswith("wells:"):
            self.problem = "wells:homo"

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def load_preset(name):
    """Load a shipped preset by name (see `list_presets`)."""
    try:
        text = resources.files("vemtransport.presets").joinpath(f"{name}.json").read_text()
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise ConfigError(f"unknown preset {name!r}; available: {list_presets()}") from exc
    return ExperimentConfig.from_dict(json.loads(text))


def list_presets():
    out = []
    for item in resources.files("vemtransport.presets").iterdir():
        if item.name.endswith(".json"):
            out.append(item.name[: -len(".json")])
    return sorted(out)
