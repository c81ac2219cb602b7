"""Command line interface: feasibility, schedule, simulate, scan, optimize, sweep.

Every command reads one JSON config (defaults apply where keys are
omitted), writes one CSV table plus its JSON metadata sidecar into the
output directory, prints one summary line, and exits nonzero with a
machine-readable error blob on any failure. Identical (config, seed) pairs
produce byte-identical CSV bodies.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
import sys
from pathlib import Path

# The dense gates' small matrix products stall on a BLAS thread pool whenever
# another process holds a core: one thread each, unless the caller set its own,
# capped before numpy is imported, which reads them.
for _threads in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_threads, "1")

import numpy as np

from . import __version__
from .config import (
    BACKENDS,
    KW_CM2_TO_W_M2,
    RunConfig,
    apply_override,
    parse_config,
    serialize_config,
    serialized_hash,
)
from .errors import ClockSimError, ConfigError
from .estimator import (
    analyze_fringe, fringe_scan, optimize_atom_number, phase_sensitivity, sql_baseline,
)
from .lattice import overlap_depth, recoil_energy, trap_frequencies, worst_case_depth
from .pipeline import PhysicsBundle, detuning_grid, probe_detuning, resolve_physics
from .rates import (
    SCHEDULE_COLUMNS,
    photon_scattering_time,
    scatter_probability,
    schedule_rows,
    schedule_table_bytes,
    survival_probability,
)
from .register import (
    RegisterState, evolve_and_disentangle, init_register, prepare_ghz, protocol_references,
    state_fidelity,
)
from .output import TableText, write_table

# Each command's largest structure gets one memory budget. A memory bound below is
# that budget over the peak-RSS growth per unit, measured between two sizes
# (CPython 3.11, numpy 2.4, 64-bit Linux); larger inputs are rejected with
# exit 2 and their field path before anything is built.
MEMORY_BUDGET_BYTES = 128 * 2**20

# `schedule` streams its 4N + 8 rows from the pattern as bytes, a block of
# at least 64 KiB of whole runs at a time, so its memory does not grow with
# N; its file does. The bound is the largest N whose table fits a 22.61 MB
# file by the closed-form byte count, even with every duration at the
# longest float text: N = 119408.
SCHEDULE_MAX_BYTES = 22_610_000
SCHEDULE_MAX_ATOMS = bisect.bisect_right(range(1, 2**53), SCHEDULE_MAX_BYTES, key=schedule_table_bytes)

# `scan` keeps the grid, the probabilities, the fit's zero-padded periodogram
# and the table's text per point: 364 B per point, measured between 10^4 and
# 5 * 10^4 points.
SCAN_POINT_BYTES = 364
SCAN_MAX_POINTS = MEMORY_BUDGET_BYTES // SCAN_POINT_BYTES

# `optimize` keeps the geometric grid, its rounded set, the curve's lists and
# tuples, and the table's text per point: 141-158 B per point at n_max = 2^53
# (every point a distinct N), measured at 10^5, 4 * 10^5 and 706409 points.
OPTIMIZE_POINT_BYTES = 190
OPTIMIZE_MAX_POINTS = MEMORY_BUDGET_BYTES // OPTIMIZE_POINT_BYTES

# `sweep` keeps each point's row and, once per distinct trap input, the trap
# physics and its key: 1435-1500 B per point with every trap input distinct,
# the worst case, measured from 1 to 10^4, 2 * 10^4 and 5 * 10^4 points. The
# bound keeps 1830 B, from 1784-1820 B measured while the key still held the
# noise section and the gate time.
SWEEP_POINT_BYTES = 1830
SWEEP_MAX_POINTS = MEMORY_BUDGET_BYTES // SWEEP_POINT_BYTES


def _bound(value: int, limit: int, field: str, what: str) -> None:
    if value > limit:
        raise ConfigError(field, f"at most {limit} {what}, got {value}")


def _species_columns(bundle: PhysicsBundle) -> dict[str, list]:
    lattice, table = bundle.lattice, bundle.table
    species = (bundle.clock, bundle.head_up, bundle.head_down)
    depth_overlap = [overlap_depth(lattice, s, table) for s in species]
    depth_worst = [worst_case_depth(lattice, s, table) for s in species]
    recoil = [recoil_energy(s.mass, lattice.lambda_m, table) for s in species]
    omegas = [trap_frequencies(lattice, s, table) for s in species]
    return {
        "species": [s.name for s in species],
        "role": [s.role for s in species],
        "rho": [s.rho for s in species],
        "recoil_energy_j": recoil,
        "depth_overlap_j": depth_overlap,
        "depth_worst_j": depth_worst,
        "depth_worst_over_recoil": [w / r for w, r in zip(depth_worst, recoil)],
        "omega_axial_rad_s": [w[0] for w in omegas],
        "omega_radial_rad_s": [w[1] for w in omegas],
        "scatter_time_s": [
            photon_scattering_time(s, lattice.intensity, d, lattice.lambda_m, table)
            for s, d in zip(species, depth_overlap)
        ],
        "required_intensity_w_m2": list(bundle.requirement.per_species),  # in the order of species
    }


def _cmd_feasibility(cfg: RunConfig) -> tuple[dict, dict, str]:
    """Transport feasibility, depths, trap frequencies, minimum intensity."""
    bundle = resolve_physics(cfg)
    report = bundle.requirement.feasibility
    meta = {
        "feasible": report.feasible,
        "margin": report.margin,
        "violated_constraints": list(report.violated_constraints),
        "intensity_w_m2": bundle.lattice.intensity,
        "intensity_kw_cm2": bundle.lattice.intensity / KW_CM2_TO_W_M2,
        "min_intensity_w_m2": bundle.requirement.intensity,
        "binding_species": bundle.requirement.binding_species,
        "interaction_energy_j": bundle.interaction,
        "gate_time_s": bundle.schedule.gate_time,
    }
    summary = (f"feasible={meta['feasible']} intensity={meta['intensity_kw_cm2']:.3g} kW/cm^2 "
               f"(binding: {meta['binding_species']})")
    return _species_columns(bundle), meta, summary


def _cmd_schedule(cfg: RunConfig) -> tuple[dict, dict, str]:
    """Timed protocol step table and the no-scattering survival."""
    _bound(cfg.protocol.n_atoms, SCHEDULE_MAX_ATOMS, "protocol.n_atoms",
           "atoms in the schedule table")
    bundle = resolve_physics(cfg)
    schedule = bundle.schedule
    table = TableText(SCHEDULE_COLUMNS, schedule.n_steps, schedule_rows(schedule))
    survival = survival_probability(schedule, bundle.decoherence)
    meta = {
        "n_atoms": schedule.n_atoms,
        "total_duration_s": schedule.total_duration,
        "ramsey_time_s": schedule.ramsey_time,
        "gate_time_s": schedule.gate_time,
        "transport_time_s": schedule.transport_time,
        "tau_scatter_clock_s": bundle.decoherence.tau_scatter_clock,
        "tau_scatter_head_s": bundle.decoherence.tau_scatter_head,
        "extra_loss_rate_per_s": bundle.decoherence.extra_loss_rate,
        "survival": survival,
    }
    summary = f"{table.n_rows} steps, total {meta['total_duration_s']:.6g} s, survival {survival:.4g}"
    return table, meta, summary


def _cmd_simulate(cfg: RunConfig) -> tuple[dict, dict, str]:
    """Run the register protocol once; checkpoint fidelities and p_up."""
    delta_omega = probe_detuning(cfg)
    schedule = resolve_physics(cfg).schedule
    n = schedule.n_atoms
    t = schedule.ramsey_time
    delta_omega_head = cfg.run.delta_omega_head_rad_s
    chi = (n * delta_omega + delta_omega_head) * t

    references = protocol_references(n, delta_omega, delta_omega_head, t)
    fidelities: dict[str, float] = {}

    def check(label: str, state: RegisterState) -> None:
        fidelities[label] = state_fidelity(state, references[label])

    state = prepare_ghz(init_register(n, cfg.run.backend), check)
    evolve_and_disentangle(state, delta_omega, delta_omega_head, t, check)
    columns = {"checkpoint": list(fidelities), "fidelity": list(fidelities.values())}
    meta = {
        "n_atoms": n,
        "backend": cfg.run.backend,
        "ramsey_time_s": t,
        "delta_omega_rad_s": delta_omega,
        "delta_omega_head_rad_s": delta_omega_head,
        "chi_rad": chi,
        "p_up": state.head_readout()[1],
        "p_up_ideal": math.sin(chi / 2.0) ** 2,
    }
    summary = f"p_up={meta['p_up']:.6f} (ideal {meta['p_up_ideal']:.6f}), chi={chi:.4f} rad"
    return columns, meta, summary


def _cmd_scan(cfg: RunConfig) -> tuple[dict, dict, str]:
    """Fringe scan over the detuning grid; CSV of p_up per detuning."""
    _bound(cfg.run.detuning_points, SCAN_MAX_POINTS, "run.detuning_points",
           "detuning points per scan")
    grid = detuning_grid(cfg)
    bundle = resolve_physics(cfg)
    n, t = bundle.schedule.n_atoms, bundle.schedule.ramsey_time
    scan = fringe_scan(
        n,
        t,
        grid,
        delta_omega_head=cfg.run.delta_omega_head_rad_s,
        backend=cfg.run.backend,
        trajectories=cfg.run.trajectories,
        scatter_probability=scatter_probability(bundle.schedule, bundle.decoherence),
        seed=cfg.run.seed,
    )
    fit = analyze_fringe(scan)
    sigma = sql = None
    if fit.contrast > 0.0 and not math.isnan(fit.period):
        # Null, as for a flat fringe, where a figure overflows to inf or underflows to 0.
        sigma, sql = (v if 0.0 < v < math.inf else None
                      for v in (phase_sensitivity(fit.contrast, n, t), sql_baseline(n, t)))
    meta = {
        "n_atoms": n,
        "backend": cfg.run.backend,
        "ramsey_time_s": t,
        "trajectories_per_point": scan.trajectories_per_point,
        "contrast": fit.contrast,
        "fringe_period_rad_s": None if math.isnan(fit.period) else fit.period,
        "sigma_delta_omega_per_shot": sigma,
        "sql_sigma_per_shot": sql,
        "gain_over_sql": None if sigma is None or sql is None else sql / sigma,
    }
    summary = (f"{len(scan.detunings)} points, contrast {fit.contrast:.4f}, "
               f"period {meta['fringe_period_rad_s']}")
    return {"detuning_rad_s": scan.detunings, "p_up": scan.p_up}, meta, summary


def _cmd_optimize(cfg: RunConfig) -> tuple[dict, dict, str]:
    """Survival-weighted gain versus atom number; optimal N."""
    opt = cfg.optimize
    _bound(opt.n_points, OPTIMIZE_MAX_POINTS, "optimize.n_points", "grid points")
    bundle = resolve_physics(cfg)
    schedule = bundle.schedule
    grid = map(round, np.geomspace(opt.n_min, opt.n_max, opt.n_points).tolist())
    n_opt, curve = optimize_atom_number(schedule, bundle.decoherence, grid)
    columns = {
        "n_atoms": curve.n_atoms,
        "survival": curve.survival,
        "figure_of_merit": curve.figure_of_merit,
        "gain_over_sql": curve.gain_over_sql,
    }
    meta = {
        "n_opt": n_opt,
        "ramsey_time_s": schedule.ramsey_time,
        "gate_time_s": schedule.gate_time,
        "transport_time_s": schedule.transport_time,
        "pulse_time_s": schedule.pulse_time,
        "tau_scatter_clock_s": bundle.decoherence.tau_scatter_clock,
        "tau_scatter_head_s": bundle.decoherence.tau_scatter_head,
        "extra_loss_rate_per_s": bundle.decoherence.extra_loss_rate,
    }
    return columns, meta, f"optimal atom number {n_opt} (ramsey time {schedule.ramsey_time} s)"


def _sweep_point(cfg: RunConfig, keys: list[str], values: tuple) -> RunConfig:
    point = cfg
    for key, value in zip(keys, values):
        point = apply_override(point, key, value)
    return point


def _cmd_sweep(cfg: RunConfig) -> tuple[dict, dict, str]:
    """Cartesian sweep over config parameter lists, one row per point."""
    keys = list(cfg.sweep)
    value_lists = [cfg.sweep[k] for k in keys]
    _bound(math.prod(map(len, value_lists)), SWEEP_MAX_POINTS, "sweep", "sweep points")
    points = list(itertools.product(*value_lists))
    traps: dict = {}  # one trap half per distinct trap input, for this sweep only
    names = ("feasible", "margin", "intensity_w_m2", "tau_scatter_clock_s", "tau_scatter_head_s",
             "gate_time_s", "total_duration_s", "survival", "gain_over_sql")
    rows = []
    for values in points:
        bundle = resolve_physics(_sweep_point(cfg, keys, values), traps=traps)
        report, schedule, decoherence = bundle.requirement.feasibility, bundle.schedule, bundle.decoherence
        survival = survival_probability(schedule, decoherence)
        rows.append((report.feasible, report.margin, bundle.lattice.intensity,
                     decoherence.tau_scatter_clock, decoherence.tau_scatter_head, schedule.gate_time,
                     schedule.total_duration, survival, survival * math.sqrt(schedule.n_atoms)))
    columns = {
        "point_index": range(len(points)),
        **{key: [values[i] for values in points] for i, key in enumerate(keys)},
        **dict(zip(names, map(list, zip(*rows)))),
    }
    meta = {"swept_parameters": keys, "points": len(points)}
    return columns, meta, f"swept {len(points)} points over {keys or 'the base configuration'}"


_HANDLERS = {
    "feasibility": _cmd_feasibility,
    "schedule": _cmd_schedule,
    "simulate": _cmd_simulate,
    "scan": _cmd_scan,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
}
COMMANDS = tuple(_HANDLERS)


def run_command(command: str, cfg: RunConfig, out_dir, jobs: int = 1) -> Path:
    """Run one named command against a parsed config; returns the CSV it wrote.

    The handler computes the table, its metadata and a summary line; this
    writes ``<command>.csv`` and its ``<command>.meta.json`` sidecar into
    ``out_dir``, which the writer creates, and prints the summary. A command
    that fails leaves no directory behind. ``jobs`` is accepted for
    compatibility and ignored: every command, sweep included, runs serially.
    """
    if command not in _HANDLERS:
        raise ClockSimError(f"unknown command {command!r}")
    table, metadata, summary = _HANDLERS[command](cfg)
    config = serialize_config(cfg)
    metadata = {"command": command, "tool_version": __version__, "seed": cfg.run.seed,
                "config_hash": serialized_hash(config), "config": config, **metadata}
    path = write_table(table, Path(out_dir) / f"{command}.csv", metadata=metadata)
    print(summary)
    return path


def _parse_argv(argv):
    """The parsed command line, or None once ``--help`` or ``--version`` has printed.

    Every usage error raises ConfigError naming its option, or ``command``
    for the command word.
    """
    import argparse  # here, not at import: callers of run_command never parse argv

    class Parser(argparse.ArgumentParser):
        # argparse prints usage text and exits 2 from here; the error blob replaces both.
        def error(self, message):
            raise ConfigError("argv", message)

    options = {"allow_abbrev": False, "exit_on_error": False}
    parser = Parser(prog="screwclock", **options,
                    description="Entangled-lattice-clock feasibility and simulation toolkit.")
    parser.add_argument("--config", help="JSON config file; omit for the built-in defaults.")
    parser.add_argument("--out", default="out",
                        help="Output directory for CSV tables and metadata sidecars.")
    parser.add_argument("--seed", type=int, help="Override run.seed.")
    parser.add_argument("--backend", choices=BACKENDS, help="Override run.backend.")
    parser.add_argument("--trajectories", type=int, help="Override run.trajectories.")
    parser.add_argument("--version", action="version", version=f"screwclock, version {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="command")
    for name, handler in _HANDLERS.items():
        commands.add_parser(name, help=handler.__doc__, description=handler.__doc__, **options)
    try:
        args, extra = parser.parse_known_args(argv)
    except argparse.ArgumentError as exc:
        if exc.argument_name == "command":  # an unknown option's value is read as the command
            unknown = [w.split("=", 1)[0] for w in (sys.argv[1:] if argv is None else argv)
                       if w.startswith("--") and w.split("=", 1)[0] not in parser._option_string_actions]
            if unknown:
                raise ConfigError(unknown[0], "no such option") from None
        raise ConfigError(exc.argument_name or "argv", exc.message) from None
    except SystemExit:  # argparse exits (with 0) only after --help or --version
        return None

    if extra:
        word = extra[0]
        if word.startswith("-"):
            raise ConfigError(word.split("=", 1)[0], "no such option")
        raise ConfigError("command", f"unexpected extra argument {word!r}")
    if args.command is None:
        raise ConfigError("command", f"missing; expected one of {', '.join(COMMANDS)}")
    if args.config is not None and Path(args.config).is_dir():
        raise ConfigError("--config", f"{args.config!r} is a directory")
    if args.config is not None and not Path(args.config).exists():
        raise ConfigError("--config", f"{args.config!r} does not exist")
    if Path(args.out).is_file():
        raise ConfigError("--out", f"{args.out!r} is a file")
    return args


def _load_config(args) -> RunConfig:
    cfg = parse_config(Path(args.config) if args.config is not None else None)
    for key in ("seed", "backend", "trajectories"):
        if getattr(args, key) is not None:
            cfg = apply_override(cfg, f"run.{key}", getattr(args, key))
    return cfg


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default); returns the exit code.

    Options come before the command. Any failure, a usage error included,
    prints one JSON object to stderr and returns its nonzero code.
    """
    try:
        args = _parse_argv(argv)
        if args is not None:
            run_command(args.command, _load_config(args), args.out)
    except ClockSimError as exc:
        blob = {"error": exc.code, "message": str(exc)}
        if hasattr(exc, "path"):
            blob["field"] = exc.path
        print(json.dumps(blob), file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # OS errors and any unexpected failure; name the exception class
        message = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": ClockSimError.code, "message": message}), file=sys.stderr)
        return ClockSimError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
