"""Run configuration: strict JSON schema, defaults, and serialization.

Config units are human-scale (nm, kW/cm^2, us, atomic units) with the
unit embedded in the key name; conversion to internal SI happens once, in
:mod:`screwclock.pipeline`. Unknown keys are rejected and every
diagnostic carries the dotted field path.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError
from .lattice import ROLES
from .register import BACKENDS

MAX_TRAJECTORIES = 2**63 - 1   # numpy draws binomial counts in int64
MAX_ATOMS = 2**53   # the largest N that every float expression of N holds exactly

KW_CM2_TO_W_M2 = 1e7


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(path, message)


def _as_number(value, path: str) -> float:
    _require(value is not None, path, "must be a number, not null")
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, f"must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    _require(math.isfinite(number), path, f"must be finite, got {number}")
    return number


def _as_optional_number(value, path: str) -> float | None:
    return None if value is None else _as_number(value, path)


def _as_int(value, path: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             path, f"must be an integer, got {type(value).__name__}")
    return int(value)


def _as_str(value, path: str) -> str:
    _require(isinstance(value, str), path, f"must be a string, got {type(value).__name__}")
    return value


def _leaf(parse, *checks, default=MISSING):
    """Declare a config leaf: its type parser, its range checks and its default.

    Each check is a ``(predicate, message)`` pair; the message is a
    ``str.format`` template of the offending value. Checks skip a null
    value. A leaf without a default is a required key.
    """
    return field(default=default, metadata={"parse": parse, "checks": checks})


def _at_least(low):
    return (lambda x: x >= low, f"must be >= {low}")


def _one_of(choices):
    return (lambda x: x in choices, f"must be one of {choices}")


_POSITIVE = (lambda x: x > 0.0, "must be positive")
_AT_MOST_MAX_ATOMS = (lambda n: n <= MAX_ATOMS, f"must be <= 2^53 = {MAX_ATOMS}, got {{}}")


@dataclass(frozen=True)
class SpeciesEntry:
    name: str = _leaf(_as_str)
    mass_amu: float = _leaf(_as_number, _POSITIVE)
    alpha_scalar_au: float = _leaf(_as_number)
    rho: float = _leaf(_as_number)
    role: str = _leaf(_as_str, _one_of(ROLES))


@dataclass(frozen=True)
class LatticeSection:
    lambda_m_nm: float = _leaf(_as_number, _POSITIVE, default=389.9)
    # None: use the computed minimum
    intensity_kW_cm2: float | None = _leaf(_as_optional_number, _POSITIVE, default=None)
    # 0 < delta <= 1: the transport criteria are defined for a positive misbalance only.
    delta: float = _leaf(_as_number, (lambda d: abs(d) <= 1.0, "|delta| <= 1 required"),
                         _POSITIVE, default=0.25)
    # None: same as transport lattice
    transverse_intensity_kW_cm2: float | None = _leaf(_as_optional_number, _POSITIVE, default=None)


@dataclass(frozen=True)
class ProtocolSection:
    n_atoms: int = _leaf(_as_int, _at_least(1), _AT_MOST_MAX_ATOMS, default=100)
    ramsey_time_s: float = _leaf(_as_number, _at_least(0), default=0.01)
    a_scatt_au: float = _leaf(_as_number, default=100.0)
    transport_time_us: float = _leaf(_as_number, _at_least(0), default=10.0)
    # None: pi hbar / dE from the trap physics
    gate_time_us: float | None = _leaf(_as_optional_number, _at_least(0), default=None)
    pulse_time_us: float = _leaf(_as_number, _at_least(0), default=0.0)
    depth_factor: float = _leaf(_as_number, _at_least(0), default=5.0)


@dataclass(frozen=True)
class NoiseSection:
    # None: computed from photon scattering
    tau_scatter_clock_s: float | None = _leaf(_as_optional_number, _POSITIVE, default=None)
    tau_scatter_head_s: float | None = _leaf(_as_optional_number, _POSITIVE, default=None)
    extra_loss_rate_per_s: float = _leaf(_as_number, _at_least(0), default=0.0)


@dataclass(frozen=True)
class RunSection:
    backend: str = _leaf(_as_str, _one_of(BACKENDS), default="branch")
    # 0: noiseless exact scan
    trajectories: int = _leaf(_as_int, _at_least(0), (
        lambda n: n <= MAX_TRAJECTORIES, f"must be <= 2^63 - 1 = {MAX_TRAJECTORIES}, got {{}}",
    ), default=0)
    seed: int = _leaf(_as_int, _at_least(0), default=12345)
    # None: auto grid over two fringes
    detuning_min_rad_s: float | None = _leaf(_as_optional_number, default=None)
    detuning_max_rad_s: float | None = _leaf(_as_optional_number, default=None)
    detuning_points: int = _leaf(_as_int, _at_least(2), default=101)
    # None: half-fringe point (chi = pi/2)
    delta_omega_rad_s: float | None = _leaf(_as_optional_number, default=None)
    delta_omega_head_rad_s: float = _leaf(_as_number, default=0.0)

    def __post_init__(self):
        dmin, dmax = self.detuning_min_rad_s, self.detuning_max_rad_s
        _require((dmin is None) == (dmax is None), "run.detuning_min_rad_s",
                 "detuning_min_rad_s and detuning_max_rad_s must be given together")
        if dmin is not None:
            _require(dmax > dmin, "run.detuning_max_rad_s", "must exceed detuning_min_rad_s")


@dataclass(frozen=True)
class OptimizeSection:
    n_min: int = _leaf(_as_int, _at_least(1), _AT_MOST_MAX_ATOMS, default=1)
    n_max: int = _leaf(_as_int, _AT_MOST_MAX_ATOMS, default=10000)
    n_points: int = _leaf(_as_int, _at_least(1), default=60)

    def __post_init__(self):
        _require(self.n_max >= self.n_min, "optimize.n_max", "must be >= n_min")


def _default_species() -> tuple[SpeciesEntry, ...]:
    return (
        SpeciesEntry("Sr", 87.9056, -470.0, 0.0, "clock"),
        SpeciesEntry("Al_up", 26.9815385, -340.0, -1.25, "head_up"),
        SpeciesEntry("Al_down", 26.9815385, -340.0, 0.84, "head_down"),
    )


@dataclass(frozen=True)
class RunConfig:
    species: tuple[SpeciesEntry, ...] = field(default_factory=_default_species)
    lattice: LatticeSection = field(default_factory=LatticeSection)
    protocol: ProtocolSection = field(default_factory=ProtocolSection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    run: RunSection = field(default_factory=RunSection)
    optimize: OptimizeSection = field(default_factory=OptimizeSection)
    sweep: dict[str, tuple] = field(default_factory=dict)

    def species_by_role(self, role: str) -> SpeciesEntry:
        for entry in self.species:
            if entry.role == role:
                return entry
        raise ConfigError("species", f"no species with role {role!r}")


# The object sections of a config, in document order.
_SECTIONS = {
    "lattice": LatticeSection,
    "protocol": ProtocolSection,
    "noise": NoiseSection,
    "run": RunSection,
    "optimize": OptimizeSection,
}

# Leaves a sweep may vary: the physics sections, the seed and the trajectory count.
_SWEEPABLE = {
    f"{name}.{leaf.name}" for name in ("lattice", "protocol", "noise")
    for leaf in fields(_SECTIONS[name])
} | {"run.seed", "run.trajectories"}


def _check_keys(mapping: dict, allowed, path: str):
    _require(isinstance(mapping, dict), path, "must be an object")
    for key in mapping:
        _require(key in allowed, f"{path}.{key}" if path else key, "unknown key")


def _parse_section(cls, data, path: str):
    """Build a section dataclass from its JSON object, leaf by declared leaf."""
    leaves = fields(cls)
    _check_keys(data, {leaf.name for leaf in leaves}, path)
    for leaf in leaves:
        _require(leaf.name in data or leaf.default is not MISSING, path,
                 f"missing required key '{leaf.name}'")
    values = {}
    for leaf in leaves:
        p = f"{path}.{leaf.name}"
        value = leaf.metadata["parse"](data.get(leaf.name, leaf.default), p)
        if value is not None:
            for predicate, message in leaf.metadata["checks"]:
                _require(predicate(value), p, message.format(value))
        values[leaf.name] = value
    return cls(**values)


def _parse_species(items, path: str) -> tuple[SpeciesEntry, ...]:
    _require(isinstance(items, list), path, "must be an array of species objects")
    specs = []
    for i, item in enumerate(items):
        p = f"{path}[{i}]"
        entry = _parse_section(SpeciesEntry, item, p)
        if entry.role == "clock":
            _require(entry.rho == 0.0, f"{p}.rho", "clock states are scalar, rho must be exactly 0")
        specs.append(entry)

    for role in ROLES:
        count = sum(1 for s in specs if s.role == role)
        _require(count == 1, path, f"exactly one species with role {role!r} required, got {count}")
    return tuple(specs)


def _parse_sweep(data: dict, path: str) -> dict[str, tuple]:
    _require(isinstance(data, dict), path, "must be an object mapping parameter paths to arrays")
    sweep: dict[str, tuple] = {}
    for key, values in data.items():
        p = f"{path}.{key}"
        _require(key in _SWEEPABLE, p, f"not a sweepable parameter (choose from {sorted(_SWEEPABLE)})")
        _require(isinstance(values, list) and len(values) > 0, p, "must be a non-empty array")
        sweep[key] = tuple(values)
    return sweep


def parse_config(source: str | Path | dict | None = None) -> RunConfig:
    """Parse and validate a config from JSON text, a path, a dict, or nothing.

    An empty document (or ``None``) yields the full default configuration:
    Sr clock atoms with an Al head at the 389.9 nm lattice, delta = 1/4.
    """
    if source is None:
        data: dict = {}
    elif isinstance(source, dict):
        data = source
    elif not isinstance(source, (str, Path)):
        raise ConfigError("<document>", f"must be text, a path or an object, not {type(source).__name__}")
    else:
        if isinstance(source, Path):
            text = source.read_text()
        elif "\n" not in source and source.strip().endswith(".json"):
            text = Path(source).read_text()  # a bare *.json string is a path
        else:
            text = source
        try:
            data = json.loads(text) if text.strip() else {}
        except ValueError as exc:  # malformed, or an integer past Python's digit limit
            raise ConfigError("<document>", f"malformed JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("<document>", "top level must be a JSON object")

    _check_keys(data, {"species", *_SECTIONS, "sweep"}, "")
    species = (_parse_species(data["species"], "species")
               if "species" in data else _default_species())
    sections = {name: _parse_section(cls, data.get(name, {}), name)
                for name, cls in _SECTIONS.items()}
    cfg = RunConfig(species=species, **sections,
                    sweep=_parse_sweep(data.get("sweep", {}), "sweep"))
    # Re-validate each sweep value by applying it to the base config.
    for key, values in cfg.sweep.items():
        for value in values:
            apply_override(cfg, key, value)
    return cfg


def serialize_config(cfg: RunConfig) -> dict:
    """Config as a JSON-ready dict; parse(serialize(cfg)) == cfg."""
    return {
        "species": [asdict(s) for s in cfg.species],
        **{name: asdict(getattr(cfg, name)) for name in _SECTIONS},
        "sweep": {k: list(v) for k, v in cfg.sweep.items()},
    }


def serialized_hash(data: dict) -> str:
    """SHA-256 of a serialized config's canonical JSON."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def apply_override(cfg: RunConfig, dotted_key: str, value) -> RunConfig:
    """Return a new config with one dotted-path leaf replaced and revalidated."""
    section, _, leaf = dotted_key.partition(".")
    cls = _SECTIONS.get(section)
    if cls is None or leaf not in cls.__dataclass_fields__:
        raise ConfigError(dotted_key, "unknown parameter path")
    data = asdict(getattr(cfg, section))
    data[leaf] = value
    return replace(cfg, **{section: _parse_section(cls, data, section)})
