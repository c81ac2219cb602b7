"""screwclock benchmark: time a CLI workload in fresh processes and check its outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload spectroscopy --seed 12345 --seconds 40 --trace 0

One load generator (this process) runs samples one after another, a closed
loop with one client. Each sample is a fresh interpreter (``sample.py``)
that imports the CLI, parses the generated configs and runs the workload's
commands with ``--jobs 1``, because a user pays every cost again on each CLI
call. A new sample starts while it is expected to end within ``--seconds``,
and each kind of sample runs at least three times.

With ``--trace 0`` the run reports the end-to-end metrics (medians over the
samples), its times scaled to a reference host speed by the probe in
``probe.py`` that runs inside each sample; with ``--trace 1`` it alternates
untraced and traced samples and reports the per-layer metrics, as measured,
the tracing overhead included. The last line
of standard output is the result JSON; the lines before it give the
provenance and every metric with its unit.

The seed goes into ``run.seed`` of every generated config. Claims made with
the default seed must also hold on the held-out seed ``HELDOUT_SEED``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import workloads
from spans import METRICS as LAYER_METRICS

DEFAULT_SEED = 12345
HELDOUT_SEED = 271828
RUN_BUDGET_S = 170.0      # every run must end within 180 s
MIN_SAMPLES = 3           # per kind of sample (untraced, traced)

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def _last_level_cache() -> str | None:
    best = (0, None)
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> tuple[int, str]:
    """Line count and content hash of the package sources."""
    lines, digest = 0, hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
    return lines, digest.hexdigest()


def _child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def _run_sample(work: Path, index: int, workload: str, env, deadline: float, *,
                traced=False, probed=False, setup_only=False) -> dict:
    """Start one child, wait for it, and return its result (``error`` on failure)."""
    out = work / f"sample{index}"
    result_path = work / f"result{index}.json"
    out.mkdir()
    command = [
        sys.executable, str(BENCH / "sample.py"),
        "--plan", str(work / "plan.json"), "--out", str(out), "--result", str(result_path),
        "--workload", workload,
    ]
    if traced:
        command.append("--trace")
    if probed:
        command.append("--probe")
    if setup_only:
        command.append("--setup-only")
    command += ["--spawn-steal", repr(probe.steal_s()), "--spawn-time", repr(time.monotonic())]
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "sample timed out"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        return {"error": f"sample exited {proc.returncode}: {stderr.strip()[-2000:]}"}
    result = json.loads(result_path.read_text())
    shutil.rmtree(out)
    return result


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed, >= 0 (held-out seed: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long the samples may take in total")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "screwclock" / "__init__.py").is_file():
        print(f"error: no screwclock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    cpus = os.sched_getaffinity(0)
    # This process and every sample run on one CPU, so that the steal counted
    # for that CPU is the steal the sample suffered. With --jobs 1 the program
    # is single-threaded, and the thread pools are capped at the one CPU.
    sample_cpu = max(cpus)
    os.sched_setaffinity(0, {sample_cpu})
    env = _child_env(1)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = []
        for i, (command, doc) in enumerate(workloads.command_sequence(args.workload, args.seed)):
            path = work / f"config{i}_{command}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            plan.append([command, str(path)])
        (work / "plan.json").write_text(json.dumps(plan))

        # Untimed warm-up: compiles bytecode and fills the page cache once.
        warm = _run_sample(work, 0, args.workload, env, deadline, setup_only=True)
        if "error" in warm:
            print(f"error: {warm['error']}", file=sys.stderr)
            return 1
        expected_package = ROOT / "src" / "screwclock" / "__init__.py"
        if Path(warm["package"]).resolve() != expected_package:
            print(f"error: imported {warm['package']}, expected {expected_package}",
                  file=sys.stderr)
            return 1

        samples = {False: [], True: []}
        attempted = failed = 0
        failures: list[str] = []
        reference_digests = None
        durations: list[float] = []
        index = 0
        kinds = (False, True) if args.trace else (False,)
        while True:
            # Start another sample only if it should end within --seconds.
            now = time.monotonic()
            enough = all(len(samples[k]) >= MIN_SAMPLES for k in kinds)
            typical = statistics.median(durations) if durations else 0.0
            if (enough and now - start + typical > args.seconds) or now >= deadline:
                break
            traced = kinds[index % len(kinds)]
            index += 1
            result = _run_sample(work, index, args.workload, env, deadline, traced=traced,
                                 probed=not args.trace)
            durations.append(time.monotonic() - now)
            attempted += 1
            if "error" in result:
                failed += 1
                failures.append(result["error"])
                break
            attempted += result["attempted"]
            failed += result["failed"]
            failures += result["failures"]
            # Outputs must be byte-identical across samples that share a seed,
            # traced or not.
            if reference_digests is None:
                reference_digests = result["digests"]
            elif result["digests"] != reference_digests:
                failed += 1
                failures.append(f"sample {index}: output bytes differ from sample 1")
            samples[traced].append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if not all(samples[k] for k in kinds):
        for failure in failures:
            print(f"failure: {failure}", file=sys.stderr)
        return 1

    src_lines, src_sha = _src_digest()
    first = samples[False][0]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src.sha256": src_sha,
        "src.lines": src_lines,
        "python": platform.python_version(),
        "numpy": first["versions"]["numpy"],
        "scipy": first["versions"]["scipy"],
        "nproc": len(cpus),
        "sample_cpu": sample_cpu,
        "last_level_cache": _last_level_cache(),
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "jobs": 1,
        "samples": {"untraced": len(samples[False]), "traced": len(samples[True])},
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))

    if args.trace:
        series = {name: [s["layers"][name] for s in samples[True]]
                  for name, _ in LAYER_METRICS if name in samples[True][0]["layers"]}
        series["trace.untraced_wall_s"] = [s["raw"]["wall_s"] for s in samples[False]]
        wall_traced = statistics.median(series["trace.wall_s"])
        wall_untraced = statistics.median(series["trace.untraced_wall_s"])
        series["trace.overhead_s"] = [wall_traced - wall_untraced]
        units = dict(LAYER_METRICS)
    else:
        series = {name: [s[name] for s in samples[False]] for name, _ in END_TO_END}
        units = dict(END_TO_END)
        for name in ("wall_s", "cpu_s", "setup_s", "steal_s", "setup_steal_s"):
            raw = statistics.median(s["raw"][name] for s in samples[False])
            print(f"{'raw.' + name:42s} {raw:14.6g} {'s':6s} as measured, "
                  f"before removing steal and scaling to the reference host speed")
        for phase in ("setup", "commands"):
            median = statistics.median(s["probe_s"][phase] for s in samples[False])
            print(f"{'probe.' + phase + '_s':42s} {median:14.6g} {'s':6s} probe time "
                  f"(reference {probe.REFERENCE_S[phase]:g})")

    metrics = {}
    for name, values in series.items():
        value = statistics.median(values)
        q1, q3 = _quartiles(values)
        print(f"{name:42s} {value:14.6g} {units[name]:6s} median of {len(values)}, "
              f"quartiles {q1:.6g} .. {q3:.6g}")
        metrics[name] = {"value": value, "unit": units[name]}
    print(f"{'error_rate':42s} {failed / attempted:14.6g} {'1':6s} {failed} failed of "
          f"{attempted} checks")
    for failure in failures:
        print(f"failure: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
