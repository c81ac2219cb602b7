"""One benchmark sample: a fresh interpreter runs a workload's command sequence.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``. It
imports the CLI as a user's ``screwclock`` call does, parses the generated
configs (the end of set-up), runs every command through
``screwclock.cli.run_command`` with one job, then checks the outputs and
writes one JSON result file. With ``--trace`` the layers are traced during
the commands.

With ``--probe`` the host-speed probe (``probe.py``) runs from the first
line on, and every time is reported twice: as measured (``raw``, with the
steal of the sample's CPU alongside) and without steal at the reference host
speed. Without it only the raw times are reported.
"""

from __future__ import annotations

import sys

import probe

# Started before any other import, so set-up is probed from its start.
PROBE = probe.Probe() if "--probe" in sys.argv else None
if PROBE is not None:
    PROBE.start()

import argparse
import hashlib
import json
import resource
import time
from pathlib import Path

import oracles
from spans import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True, help="JSON list of [command, config path]")
    parser.add_argument("--out", required=True, help="output directory for the commands")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--spawn-time", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--spawn-steal", type=float, required=True,
                        help="probe.steal_s() of the parent at the same moment")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true", help="run the host-speed probe")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy
    import scipy
    import screwclock
    import screwclock.cli as cli
    from screwclock.config import parse_config

    plan = json.loads(Path(args.plan).read_text())
    configs = [(command, parse_config(Path(path))) for command, path in plan]
    setup_s = time.monotonic() - args.spawn_time
    setup_steal = probe.steal_s() - args.spawn_steal
    if PROBE is not None:
        PROBE.enter_commands()
    result = {
        "raw": {"setup_s": setup_s, "setup_steal_s": setup_steal},
        "package": screwclock.__file__,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.setup_only:
        if PROBE is not None:
            PROBE.stop()
        Path(args.result).write_text(json.dumps(result))
        return 0

    out = Path(args.out)
    tracer = Tracer(screwclock) if args.trace else None
    if tracer is not None:
        tracer.install()
    steal0, wall0, cpu0 = probe.steal_s(), time.perf_counter(), time.process_time()
    for command, cfg in configs:
        cli.run_command(command, cfg, out, jobs=1)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    steal = probe.steal_s() - steal0
    if PROBE is not None:
        PROBE.stop()
    # ru_maxrss only grows, so reading it here excludes the checks below.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(wall_s)

    checks = oracles.Checks()
    if args.workload == "spectroscopy":
        oracles.check_spectroscopy(out, checks)
    elif args.workload == "noisy_dense":
        from screwclock.pipeline import resolve_physics

        bundle = resolve_physics(configs[0][1])
        oracles.check_noisy_dense(out, checks, bundle.gate_time, bundle.decoherence)
    elif args.workload == "design":
        oracles.check_design(out, checks)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")

    result["raw"].update({"wall_s": wall_s, "cpu_s": cpu_s, "steal_s": steal})
    if PROBE is not None:
        result.update(
            {
                "setup_s": PROBE.scale("setup", setup_s, setup_steal),
                "wall_s": PROBE.scale("commands", wall_s, steal),
                "cpu_s": PROBE.scale("commands", cpu_s),
                "probe_s": {phase: PROBE.typical(phase) for phase in probe.REFERENCE_S},
            }
        )
    result.update(
        {
            "peak_rss_mb": peak_rss_mb,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failures": checks.failures,
            "digests": {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.iterdir())
            },
        }
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
