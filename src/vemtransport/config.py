"""Declarative experiment configuration.

A config is a flat JSON document holding `kind`, `out_dir` and the fields
its kind reads (`FIELDS`); any other key is rejected. Presets for the
shipped studies live in the package's presets/ directory and can be
loaded by name.
"""

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from importlib import resources

from .problems import WellsProblem


class ConfigError(ValueError):
    pass


#: fields every manufactured study reads: the meshes, time steps and flow
MANUFACTURED = ("mesh_family", "levels", "steps_per_level", "velocity_backend", "rng_seed")
#: kind -> the fields its run reads; a config holds kind, out_dir and these
FIELDS = {
    "convergence": (*MANUFACTURED, "k", "q", "D"),
    "kconv": (*MANUFACTURED, "k_range", "D"),
    "drobust": (*MANUFACTURED, "k", "q", "d_values"),
    "wells": ("mesh_family", "problem", "k", "q", "D", "wells_level"),
}
KINDS = tuple(FIELDS)
FAMILIES = ("quad", "hexa", "voro", "rand")
BACKENDS = ("darcy", "analytic")
PROBLEMS = tuple(f"wells:{variant}" for variant in WellsProblem.VARIANTS)
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
    mesh_family: str = None
    levels: list[int] = None
    k: int = 1
    q: int = None
    D: float = 1.0
    velocity_backend: str = "darcy"
    problem: str = "wells:homo"
    steps_per_level: list[int] = None
    k_range: list[int] = field(default_factory=lambda: [1, 2, 3, 4])
    d_values: list[float] = field(default_factory=lambda: list(DEFAULT_D_VALUES))
    wells_level: int = 3
    out_dir: str = "out"
    rng_seed: int = 2024

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # a None default is derived below
            if not (_has_type(value, f.type) or (value is None and f.default is None)):
                kind = f.type.__name__ if isinstance(f.type, type) else f.type
                raise ConfigError(f"{f.name} must be of type {kind}, got {value!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        read = FIELDS[self.kind]
        for f in fields(self):
            default = f.default_factory() if f.default is MISSING else f.default
            if f.name not in ("kind", "out_dir", *read) and getattr(self, f.name) != default:
                raise ConfigError(f"a {self.kind} study does not read {f.name}; "
                                  f"leave it at its default {default!r}")
        # the None defaults of the fields the kind reads are derived here
        if self.mesh_family is None:
            self.mesh_family = "hexa" if self.kind == "wells" else "quad"
        if self.mesh_family not in (("hexa",) if self.kind == "wells" else FAMILIES):
            raise ConfigError(f"a {self.kind} study has no mesh family {self.mesh_family!r}")
        if self.velocity_backend not in BACKENDS:
            raise ConfigError(f"unknown velocity backend {self.velocity_backend!r}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if "q" in read:
            self.q = self.k if self.q is None else self.q
            if not 0 <= self.q <= 10:
                raise ConfigError("q must lie in 0..10")
        if not 0.0 < self.D < float("inf"):
            raise ConfigError("D must be a positive finite number")
        if "levels" in read:
            if self.levels is None:
                self.levels = {"kconv": [1], "drobust": [2]}.get(self.kind, [1, 2, 3, 4])
            if not self.levels or any(lv < 1 or lv > 4 for lv in self.levels):
                raise ConfigError("levels must be a non-empty list of levels in 1..4")
            if self.kind in ("kconv", "drobust") and len(self.levels) != 1:
                raise ConfigError(f"a {self.kind} study sweeps at one level, "
                                  "so levels must list one")
            if self.steps_per_level is None:
                self.steps_per_level = [DEFAULT_STEPS[lv - 1] for lv in self.levels]
            if len(self.steps_per_level) != len(self.levels):
                raise ConfigError("steps_per_level must align with levels")
            if any(n < 1 for n in self.steps_per_level):
                raise ConfigError("steps_per_level entries must be >= 1")
        if not self.d_values or any(not (0.0 < d < float("inf")) for d in self.d_values):
            raise ConfigError("d_values must be a non-empty list of positive finite numbers")
        # kconv runs q = k, and the Radau rules stop at q = 10
        if not self.k_range or any(not 1 <= kk <= 10 for kk in self.k_range):
            raise ConfigError("k_range must be a non-empty list of degrees in 1..10")
        if self.wells_level < 1:
            raise ConfigError("wells_level must be >= 1")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")
        # a repeat runs one solve twice; a D's %.3e string is its label and drobust.csv key
        for name, keys in [("levels", self.levels or []), ("k_range", self.k_range),
                           ("d_values", [f"{d:.3e}" for d in self.d_values])]:
            if len(set(keys)) != len(keys):
                raise ConfigError(f"{name} must not repeat, got {keys}")
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; available: {list(PROBLEMS)}")

    def to_dict(self):
        """kind, out_dir and the fields the kind reads."""
        data = asdict(self)
        return {name: data[name] for name in ("kind", "out_dir", *FIELDS[self.kind])}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError(f"a config is a JSON object, got {data!r}")
        kind = data.get("kind", cls.kind)
        if kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        unread = set(data) - {"kind", "out_dir", *FIELDS[kind]}
        if unread:
            raise ConfigError(f"keys a {kind} config does not read: {sorted(unread)}")
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
