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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .errors import ConfigError

BACKENDS = ("dense", "branch")
ROLES = ("clock", "head_up", "head_down")
MAX_TRAJECTORIES = 2**63 - 1   # numpy draws binomial counts in int64

KW_CM2_TO_W_M2 = 1e7


@dataclass(frozen=True)
class SpeciesEntry:
    name: str
    mass_amu: float
    alpha_scalar_au: float
    rho: float
    role: str
    f: float | None = None
    m_f: float | None = None


@dataclass(frozen=True)
class LatticeSection:
    lambda_m_nm: float = 389.9
    intensity_kW_cm2: float | None = None          # None: use the computed minimum
    delta: float = 0.25
    phi_rad: float = 0.0
    transverse_intensity_kW_cm2: float | None = None  # None: same as transport lattice


@dataclass(frozen=True)
class ProtocolSection:
    n_atoms: int = 100
    ramsey_time_s: float = 0.01
    a_scatt_au: float = 100.0
    transport_time_us: float = 10.0
    gate_time_us: float | None = None              # None: pi hbar / dE from the trap physics
    pulse_time_us: float = 0.0
    depth_factor: float = 5.0


@dataclass(frozen=True)
class NoiseSection:
    tau_scatter_clock_s: float | None = None       # None: computed from photon scattering
    tau_scatter_head_s: float | None = None
    extra_loss_rate_per_s: float = 0.0


@dataclass(frozen=True)
class RunSection:
    backend: str = "branch"
    trajectories: int = 0                          # 0: noiseless exact scan
    seed: int = 12345
    detuning_min_rad_s: float | None = None        # None: auto grid over two fringes
    detuning_max_rad_s: float | None = None
    detuning_points: int = 101
    delta_omega_rad_s: float | None = None         # None: half-fringe point (chi = pi/2)
    delta_omega_head_rad_s: float = 0.0


@dataclass(frozen=True)
class OptimizeSection:
    n_min: int = 1
    n_max: int = 10000
    n_points: int = 60


def _default_species() -> tuple[SpeciesEntry, ...]:
    return (
        SpeciesEntry("Sr", 87.9056, -470.0, 0.0, "clock"),
        SpeciesEntry("Al_up", 26.9815385, -340.0, -1.25, "head_up", f=3.0, m_f=-3.0),
        SpeciesEntry("Al_down", 26.9815385, -340.0, 0.84, "head_down", f=2.0, m_f=-2.0),
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


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(path, message)


def _as_number(value, path: str, *, allow_none=False) -> float | None:
    if value is None:
        _require(allow_none, path, "must be a number, not null")
        return None
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, f"must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    _require(math.isfinite(number), path, f"must be finite, got {number}")
    return number


def _as_int(value, path: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             path, f"must be an integer, got {type(value).__name__}")
    return int(value)


def _as_str(value, path: str) -> str:
    _require(isinstance(value, str), path, f"must be a string, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed, path: str):
    _require(isinstance(mapping, dict), path, "must be an object")
    for key in mapping:
        _require(key in allowed, f"{path}.{key}" if path else key, "unknown key")


def _parse_species(items, path: str) -> tuple[SpeciesEntry, ...]:
    _require(isinstance(items, list), path, "must be an array of species objects")
    specs = []
    for i, item in enumerate(items):
        p = f"{path}[{i}]"
        _check_keys(item, {"name", "mass_amu", "alpha_scalar_au", "rho", "role", "f", "m_f"}, p)
        _require("name" in item, p, "missing required key 'name'")
        for key in ("mass_amu", "alpha_scalar_au", "rho", "role"):
            _require(key in item, p, f"missing required key '{key}'")
        name = _as_str(item["name"], f"{p}.name")
        mass = _as_number(item["mass_amu"], f"{p}.mass_amu")
        _require(mass > 0.0, f"{p}.mass_amu", "must be positive")
        alpha = _as_number(item["alpha_scalar_au"], f"{p}.alpha_scalar_au")
        rho = _as_number(item["rho"], f"{p}.rho")
        role = _as_str(item["role"], f"{p}.role")
        _require(role in ROLES, f"{p}.role", f"must be one of {ROLES}")
        if role == "clock":
            _require(rho == 0.0, f"{p}.rho", "clock states are scalar, rho must be exactly 0")
        f_val = _as_number(item.get("f"), f"{p}.f", allow_none=True)
        m_f = _as_number(item.get("m_f"), f"{p}.m_f", allow_none=True)
        if f_val is not None and m_f is not None:
            _require(abs(m_f) <= f_val, f"{p}.m_f", "|m_f| <= f required")
        specs.append(SpeciesEntry(name, mass, alpha, rho, role, f=f_val, m_f=m_f))

    for role in ROLES:
        count = sum(1 for s in specs if s.role == role)
        _require(count == 1, path, f"exactly one species with role {role!r} required, got {count}")
    return tuple(specs)


def _parse_lattice(data: dict, path: str) -> LatticeSection:
    defaults = LatticeSection()
    _check_keys(data, {"lambda_m_nm", "intensity_kW_cm2", "delta", "phi_rad",
                       "transverse_intensity_kW_cm2"}, path)
    lam = _as_number(data.get("lambda_m_nm", defaults.lambda_m_nm), f"{path}.lambda_m_nm")
    _require(lam > 0.0, f"{path}.lambda_m_nm", "must be positive")
    intensity = _as_number(data.get("intensity_kW_cm2", defaults.intensity_kW_cm2),
                           f"{path}.intensity_kW_cm2", allow_none=True)
    if intensity is not None:
        _require(intensity > 0.0, f"{path}.intensity_kW_cm2", "must be positive")
    delta = _as_number(data.get("delta", defaults.delta), f"{path}.delta")
    _require(abs(delta) <= 1.0, f"{path}.delta", "|delta| <= 1 required")
    phi = _as_number(data.get("phi_rad", defaults.phi_rad), f"{path}.phi_rad")
    trans = _as_number(data.get("transverse_intensity_kW_cm2", defaults.transverse_intensity_kW_cm2),
                       f"{path}.transverse_intensity_kW_cm2", allow_none=True)
    if trans is not None:
        _require(trans > 0.0, f"{path}.transverse_intensity_kW_cm2", "must be positive")
    return LatticeSection(lam, intensity, delta, phi, trans)


def _parse_protocol(data: dict, path: str) -> ProtocolSection:
    d = ProtocolSection()
    _check_keys(data, {"n_atoms", "ramsey_time_s", "a_scatt_au", "transport_time_us",
                       "gate_time_us", "pulse_time_us", "depth_factor"}, path)
    n_atoms = _as_int(data.get("n_atoms", d.n_atoms), f"{path}.n_atoms")
    _require(n_atoms >= 1, f"{path}.n_atoms", "must be >= 1")
    ramsey = _as_number(data.get("ramsey_time_s", d.ramsey_time_s), f"{path}.ramsey_time_s")
    _require(ramsey >= 0.0, f"{path}.ramsey_time_s", "must be >= 0")
    a_scatt = _as_number(data.get("a_scatt_au", d.a_scatt_au), f"{path}.a_scatt_au")
    transport = _as_number(data.get("transport_time_us", d.transport_time_us),
                           f"{path}.transport_time_us")
    _require(transport >= 0.0, f"{path}.transport_time_us", "must be >= 0")
    gate = _as_number(data.get("gate_time_us", d.gate_time_us), f"{path}.gate_time_us",
                      allow_none=True)
    if gate is not None:
        _require(gate >= 0.0, f"{path}.gate_time_us", "must be >= 0")
    pulse = _as_number(data.get("pulse_time_us", d.pulse_time_us), f"{path}.pulse_time_us")
    _require(pulse >= 0.0, f"{path}.pulse_time_us", "must be >= 0")
    depth_factor = _as_number(data.get("depth_factor", d.depth_factor), f"{path}.depth_factor")
    _require(depth_factor >= 0.0, f"{path}.depth_factor", "must be >= 0")
    return ProtocolSection(n_atoms, ramsey, a_scatt, transport, gate, pulse, depth_factor)


def _parse_noise(data: dict, path: str) -> NoiseSection:
    d = NoiseSection()
    _check_keys(data, {"tau_scatter_clock_s", "tau_scatter_head_s", "extra_loss_rate_per_s"}, path)
    tau_c = _as_number(data.get("tau_scatter_clock_s", d.tau_scatter_clock_s),
                       f"{path}.tau_scatter_clock_s", allow_none=True)
    if tau_c is not None:
        _require(tau_c > 0.0, f"{path}.tau_scatter_clock_s", "must be positive")
    tau_h = _as_number(data.get("tau_scatter_head_s", d.tau_scatter_head_s),
                       f"{path}.tau_scatter_head_s", allow_none=True)
    if tau_h is not None:
        _require(tau_h > 0.0, f"{path}.tau_scatter_head_s", "must be positive")
    extra = _as_number(data.get("extra_loss_rate_per_s", d.extra_loss_rate_per_s),
                       f"{path}.extra_loss_rate_per_s")
    _require(extra >= 0.0, f"{path}.extra_loss_rate_per_s", "must be >= 0")
    return NoiseSection(tau_c, tau_h, extra)


def _parse_run(data: dict, path: str) -> RunSection:
    d = RunSection()
    _check_keys(data, {"backend", "trajectories", "seed", "detuning_min_rad_s",
                       "detuning_max_rad_s", "detuning_points", "delta_omega_rad_s",
                       "delta_omega_head_rad_s"}, path)
    backend = _as_str(data.get("backend", d.backend), f"{path}.backend")
    _require(backend in BACKENDS, f"{path}.backend", f"must be one of {BACKENDS}")
    trajectories = _as_int(data.get("trajectories", d.trajectories), f"{path}.trajectories")
    _require(trajectories >= 0, f"{path}.trajectories", "must be >= 0")
    _require(trajectories <= MAX_TRAJECTORIES, f"{path}.trajectories",
             f"must be <= 2^63 - 1 = {MAX_TRAJECTORIES}, got {trajectories}")
    seed = _as_int(data.get("seed", d.seed), f"{path}.seed")
    _require(seed >= 0, f"{path}.seed", "must be >= 0")
    dmin = _as_number(data.get("detuning_min_rad_s", d.detuning_min_rad_s),
                      f"{path}.detuning_min_rad_s", allow_none=True)
    dmax = _as_number(data.get("detuning_max_rad_s", d.detuning_max_rad_s),
                      f"{path}.detuning_max_rad_s", allow_none=True)
    _require((dmin is None) == (dmax is None), f"{path}.detuning_min_rad_s",
             "detuning_min_rad_s and detuning_max_rad_s must be given together")
    if dmin is not None and dmax is not None:
        _require(dmax > dmin, f"{path}.detuning_max_rad_s", "must exceed detuning_min_rad_s")
    points = _as_int(data.get("detuning_points", d.detuning_points), f"{path}.detuning_points")
    _require(points >= 2, f"{path}.detuning_points", "must be >= 2")
    dw = _as_number(data.get("delta_omega_rad_s", d.delta_omega_rad_s),
                    f"{path}.delta_omega_rad_s", allow_none=True)
    dwh = _as_number(data.get("delta_omega_head_rad_s", d.delta_omega_head_rad_s),
                     f"{path}.delta_omega_head_rad_s")
    return RunSection(backend, trajectories, seed, dmin, dmax, points, dw, dwh)


def _parse_optimize(data: dict, path: str) -> OptimizeSection:
    d = OptimizeSection()
    _check_keys(data, {"n_min", "n_max", "n_points"}, path)
    n_min = _as_int(data.get("n_min", d.n_min), f"{path}.n_min")
    _require(n_min >= 1, f"{path}.n_min", "must be >= 1")
    n_max = _as_int(data.get("n_max", d.n_max), f"{path}.n_max")
    _require(n_max >= n_min, f"{path}.n_max", "must be >= n_min")
    n_points = _as_int(data.get("n_points", d.n_points), f"{path}.n_points")
    _require(n_points >= 1, f"{path}.n_points", "must be >= 1")
    return OptimizeSection(n_min, n_max, n_points)


# Sweepable leaves: dotted path -> section attribute. Kept in schema order
# so sweep output columns are stable.
_SWEEPABLE = {
    "lattice.lambda_m_nm", "lattice.intensity_kW_cm2", "lattice.delta", "lattice.phi_rad",
    "lattice.transverse_intensity_kW_cm2",
    "protocol.n_atoms", "protocol.ramsey_time_s", "protocol.a_scatt_au",
    "protocol.transport_time_us", "protocol.gate_time_us", "protocol.pulse_time_us",
    "protocol.depth_factor",
    "noise.tau_scatter_clock_s", "noise.tau_scatter_head_s", "noise.extra_loss_rate_per_s",
    "run.seed", "run.trajectories",
}


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
    else:
        if isinstance(source, Path):
            text = source.read_text()
        elif "\n" not in source and source.strip().endswith(".json"):
            text = Path(source).read_text()  # a bare *.json string is a path
        else:
            text = source
        try:
            data = json.loads(text) if text.strip() else {}
        except json.JSONDecodeError as exc:
            raise ConfigError("<document>", f"malformed JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("<document>", "top level must be a JSON object")

    _check_keys(data, {"species", "lattice", "protocol", "noise", "run", "optimize", "sweep"}, "")
    species = (_parse_species(data["species"], "species")
               if "species" in data else _default_species())
    cfg = RunConfig(
        species=species,
        lattice=_parse_lattice(data.get("lattice", {}), "lattice"),
        protocol=_parse_protocol(data.get("protocol", {}), "protocol"),
        noise=_parse_noise(data.get("noise", {}), "noise"),
        run=_parse_run(data.get("run", {}), "run"),
        optimize=_parse_optimize(data.get("optimize", {}), "optimize"),
        sweep=_parse_sweep(data.get("sweep", {}), "sweep"),
    )
    # Re-validate each sweep value by applying it to the base config.
    for key, values in cfg.sweep.items():
        for value in values:
            apply_override(cfg, key, value)
    return cfg


def serialize_config(cfg: RunConfig) -> dict:
    """Config as a JSON-ready dict; parse(serialize(cfg)) == cfg."""
    out = {
        "species": [asdict(s) for s in cfg.species],
        "lattice": asdict(cfg.lattice),
        "protocol": asdict(cfg.protocol),
        "noise": asdict(cfg.noise),
        "run": asdict(cfg.run),
        "optimize": asdict(cfg.optimize),
        "sweep": {k: list(v) for k, v in cfg.sweep.items()},
    }
    return out


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(serialize_config(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def apply_override(cfg: RunConfig, dotted_key: str, value) -> RunConfig:
    """Return a new config with one dotted-path leaf replaced and revalidated."""
    section, _, leaf = dotted_key.partition(".")
    data = serialize_config(cfg)
    if section not in data or not isinstance(data[section], dict) or leaf not in data[section]:
        raise ConfigError(dotted_key, "unknown parameter path")
    data[section][leaf] = value
    data.pop("sweep", None)  # avoid re-walking sweep values recursively
    new = parse_config(data)
    return replace(new, sweep=cfg.sweep)
