"""Output oracles: each workload's CSV and metadata checked against closed forms.

The expected values are computed here, from the physics the files record,
and never by the program under test:

* the Ramsey fringe sin^2(chi / 2) with chi = (N dw + dw') T;
* the schedule duration 2N (t_transport + t_gate) + T + 7 t_pulse;
* the survival exp(-duration * rate), rate = N / tau_clock + 1 / tau_head + extra;
* the Monte Carlo mean S p + (1 - S) / 2 within five standard errors.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

FIT_TOL = 1e-6
FIDELITY_TOL = 1e-9
FRINGE_TOL = 1e-9
DURATION_REL_TOL = 1e-12
MC_SIGMAS = 5.0


class Checks:
    """Counts correctness checks and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _meta(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _rel_close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * abs(expected)


def schedule_duration(n_atoms: int, protocol: dict, gate_time_s: float) -> float:
    """2N (t_transport + t_gate) + T + 7 t_pulse, in seconds."""
    transport = protocol["transport_time_us"] * 1e-6
    pulse = protocol["pulse_time_us"] * 1e-6
    return 2.0 * n_atoms * (transport + gate_time_s) + protocol["ramsey_time_s"] + 7.0 * pulse


def event_rate(n_atoms: int, tau_clock: float, tau_head: float, extra: float) -> float:
    return n_atoms / tau_clock + 1.0 / tau_head + extra


def _check_survival(checks: Checks, name: str, survival: float, exponent: float):
    """survival == exp(-exponent), compared on the exponent so deep tails keep precision."""
    if survival > 0.0:
        ok = _rel_close(-math.log(survival), exponent, DURATION_REL_TOL) or (
            exponent == 0.0 and survival == 1.0
        )
    else:
        ok = exponent > 745.0   # below the smallest subnormal double
    checks.check(name, ok, f"survival {survival!r}, expected exp(-{exponent!r})")


def _check_fidelities(checks: Checks, out: Path, label: str):
    rows = _rows(out / "simulate.csv")
    checks.check(f"{label}.checkpoints", len(rows) == 5, f"{len(rows)} checkpoint rows")
    for row in rows:
        fidelity = float(row["fidelity"])
        checks.check(f"{label}.fidelity.{row['checkpoint']}", fidelity >= 1.0 - FIDELITY_TOL,
                     f"fidelity {fidelity!r}")


def _scan_points(out: Path):
    meta = _meta(out / "scan.meta.json")
    run = meta["config"]["run"]
    n, t = meta["n_atoms"], meta["ramsey_time_s"]
    points = []
    for row in _rows(out / "scan.csv"):
        detuning = float(row["detuning_rad_s"])
        chi = (n * detuning + run["delta_omega_head_rad_s"]) * t
        points.append((detuning, float(row["p_up"]), math.sin(chi / 2.0) ** 2))
    return meta, points


def check_spectroscopy(out: Path, checks: Checks):
    meta, points = _scan_points(out)
    n, t = meta["n_atoms"], meta["ramsey_time_s"]
    checks.check("scan.points", len(points) == meta["config"]["run"]["detuning_points"],
                 f"{len(points)} points")
    for detuning, p_up, exact in points:
        checks.check("scan.p_up", abs(p_up - exact) <= FRINGE_TOL,
                     f"detuning {detuning!r}: p_up {p_up!r}, expected {exact!r}")
    checks.check("scan.contrast", abs(meta["contrast"] - 1.0) <= FIT_TOL,
                 f"contrast {meta['contrast']!r}")
    period = meta["fringe_period_rad_s"]
    expected = 2.0 * math.pi / (n * t)
    checks.check("scan.period", period is not None and _rel_close(period, expected, FIT_TOL),
                 f"period {period!r}, expected {expected!r}")
    _check_fidelities(checks, out, "simulate")


def check_noisy_dense(out: Path, checks: Checks, gate_time_s: float, decoherence):
    """``gate_time_s`` and ``decoherence`` are the run's resolved physics inputs."""
    meta, points = _scan_points(out)
    n = meta["n_atoms"]
    trajectories = meta["trajectories_per_point"]
    protocol = meta["config"]["protocol"]
    checks.check("scan.trajectories", trajectories == meta["config"]["run"]["trajectories"],
                 f"{trajectories} trajectories per point")
    rate = event_rate(n, decoherence.tau_scatter_clock, decoherence.tau_scatter_head,
                      decoherence.extra_loss_rate)
    survival = math.exp(-schedule_duration(n, protocol, gate_time_s) * rate)
    for detuning, mean, exact in points:
        expected = survival * exact + (1.0 - survival) / 2.0
        sigma = math.sqrt(survival * (1.0 - survival) / trajectories) * abs(exact - 0.5)
        checks.check("scan.mc_mean", abs(mean - expected) <= MC_SIGMAS * sigma + 1e-12,
                     f"detuning {detuning!r}: mean {mean!r}, expected {expected!r} "
                     f"(sigma {sigma:.3g})")
    _check_fidelities(checks, out, "simulate")


def check_design(out: Path, checks: Checks):
    feasibility = _meta(out / "feasibility.meta.json")
    checks.check("feasibility.feasible", feasibility["feasible"] is True,
                 f"feasible {feasibility['feasible']!r}")

    meta = _meta(out / "schedule.meta.json")
    protocol = meta["config"]["protocol"]
    n = meta["n_atoms"]
    total = schedule_duration(n, protocol, meta["gate_time_s"])
    checks.check("schedule.total", _rel_close(meta["total_duration_s"], total, DURATION_REL_TOL),
                 f"total {meta['total_duration_s']!r}, expected {total!r}")
    with open(out / "schedule.csv") as handle:
        steps = sum(1 for _ in handle) - 1
    checks.check("schedule.steps", steps == 4 * n + 8, f"{steps} steps")
    rate = event_rate(n, meta["tau_scatter_clock_s"], meta["tau_scatter_head_s"],
                      meta["extra_loss_rate_per_s"])
    _check_survival(checks, "schedule.survival", meta["survival"], total * rate)

    meta = _meta(out / "optimize.meta.json")
    protocol = meta["config"]["protocol"]
    rates = (meta["tau_scatter_clock_s"], meta["tau_scatter_head_s"],
             meta["extra_loss_rate_per_s"])
    best_n, best_fom = None, -1.0
    for row in _rows(out / "optimize.csv"):
        n = int(row["n_atoms"])
        exponent = schedule_duration(n, protocol, meta["gate_time_s"]) * event_rate(n, *rates)
        _check_survival(checks, "optimize.survival", float(row["survival"]), exponent)
        fom = math.exp(-exponent) * n
        if fom > best_fom:
            best_n, best_fom = n, fom
    checks.check("optimize.n_opt", meta["n_opt"] == best_n,
                 f"n_opt {meta['n_opt']!r}, closed-form argmax {best_n!r}")

    meta = _meta(out / "sweep.meta.json")
    protocol = meta["config"]["protocol"]
    sweep = meta["config"]["sweep"]
    extra = meta["config"]["noise"]["extra_loss_rate_per_s"]
    rows = _rows(out / "sweep.csv")
    expected_points = [(d, n) for d in sweep["lattice.delta"] for n in sweep["protocol.n_atoms"]]
    got_points = [(float(r["lattice.delta"]), int(r["protocol.n_atoms"])) for r in rows]
    checks.check("sweep.points", got_points == expected_points, f"points {got_points!r}")
    for row in rows:
        n = int(row["protocol.n_atoms"])
        total = schedule_duration(n, protocol, float(row["gate_time_s"]))
        checks.check("sweep.total", _rel_close(float(row["total_duration_s"]), total,
                                               DURATION_REL_TOL),
                     f"point {row['point_index']}: total {row['total_duration_s']}, "
                     f"expected {total!r}")
        rate = event_rate(n, float(row["tau_scatter_clock_s"]), float(row["tau_scatter_head_s"]),
                          extra)
        survival = float(row["survival"])
        _check_survival(checks, "sweep.survival", survival, total * rate)
        gain = float(row["gain_over_sql"])
        checks.check("sweep.gain", _rel_close(gain, survival * math.sqrt(n), DURATION_REL_TOL)
                     or gain == survival == 0.0, f"point {row['point_index']}: gain {gain!r}")
        checks.check("sweep.feasible", row["feasible"] == "true",
                     f"point {row['point_index']}: feasible {row['feasible']}")

