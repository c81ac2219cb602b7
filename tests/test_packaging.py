"""The CLI needs numpy only: scipy is the tests' oracle, and neither scipy nor click is ever imported."""

import ast
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from screwclock.cli import COMMANDS, OPTIMIZE_MAX_POINTS, SCHEDULE_MAX_ATOMS, SWEEP_MAX_POINTS
from screwclock.config import MAX_ATOMS, parse_config, serialize_config

from conftest import range_edges, run_python

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_leaves_scipy_unloaded():
    code = (
        "import json, sys, screwclock, screwclock.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    result = run_python(["-c", code], timeout=60)
    assert result.returncode == 0, result.stderr
    modules = json.loads(result.stdout)
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
    assert "click" not in modules and "argparse" not in modules  # argparse loads in main only
    # Loaded while the CLI is imported, not during the first command.
    assert "numpy.random" in modules and "numpy.fft" in modules


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "3"}], ids=["unset", "user-set"])
def test_cli_import_caps_the_blas_threads_unless_set(preset):
    """The dense gates' small products stall on an uncapped BLAS pool when another process
    holds a core: importing the CLI caps each pool at one thread, unless its variable is set."""
    code = (
        "import json, os, sys\n"
        "names = json.loads(sys.argv[2])\n"
        "for name in names:\n"
        "    os.environ.pop(name, None)\n"
        "os.environ.update(json.loads(sys.argv[1]))\n"
        "import screwclock.cli\n"
        "print(json.dumps({name: os.environ.get(name) for name in names}))\n"
    )
    result = run_python(["-c", code, json.dumps(preset), json.dumps(_THREAD_VARS)], timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {**dict.fromkeys(_THREAD_VARS, "1"), **preset}


def test_config_imports_neither_the_register_nor_numpy():
    """config.py, and the package modules it imports in turn, import no register
    and no numpy: every command parses a config, and only some simulate."""
    package = ROOT / "src" / "screwclock"
    seen, todo, outside = set(), ["config"], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                todo.append(node.module or "__init__")
            elif isinstance(node, ast.ImportFrom):
                outside.add(node.module.split(".")[0])
            elif isinstance(node, ast.Import):
                outside.update(alias.name.split(".")[0] for alias in node.names)
    assert seen == {"config", "lattice", "constants", "errors"}
    assert "numpy" not in outside


def test_numpy_free_layers_import_without_numpy():
    """The package re-exports nothing, so importing the layers that do no array
    work loads no numpy: the package ``__init__`` pulls in no other module."""
    code = (
        "import json, sys\n"
        "import screwclock.config, screwclock.constants, screwclock.errors, screwclock.lattice\n"
        "import screwclock.rates, screwclock.pipeline, screwclock.output\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    result = run_python(["-c", code], timeout=60)
    assert result.returncode == 0, result.stderr
    modules = json.loads(result.stdout)
    assert [m for m in modules if m == "numpy" or m.startswith("numpy.")] == []
    assert {"screwclock.register", "screwclock.estimator", "screwclock.trajectories"}.isdisjoint(modules)


def test_every_command_runs_with_scipy_blocked(tmp_path):
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from screwclock.cli import COMMANDS, main\n"
        "codes = [main(['--config', sys.argv[1], '--out', sys.argv[2], command])\n"
        "         for command in COMMANDS]\n"
        "print(json.dumps({'codes': codes, 'click': 'click' in sys.modules}))\n"
    )
    out = tmp_path / "out"
    result = run_python(["-c", code, str(ROOT / "config.example.json"), str(out)], timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {"codes": [0] * len(COMMANDS), "click": False}
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(f"{c}.csv" for c in COMMANDS)


def test_scipy_is_only_a_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.23"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
    assert not [d for d in project["optional-dependencies"]["test"] if d.startswith("click")]


def test_ci_runs_every_command_without_scipy():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = workflow["jobs"]["runtime"]["steps"]
    script = "\n".join(step.get("run", "") for step in steps)
    assert "pip install --no-deps -e ." in script
    installs = [line.split() for line in script.splitlines() if "pip install" in line]
    packages = {word for words in installs for word in words[words.index("install") + 1:]}
    assert packages == {"numpy", "--no-deps", "-e", "."}
    assert " ".join(COMMANDS) in script
    assert "config.example.json" in script


def test_ci_tier1_smoke_runs_every_command_on_the_example_config():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for step in workflow["jobs"]["tier1"]["steps"]
             if step.get("name", "").startswith("Smoke test")]
    assert len(steps) == 1
    loop = (f"for command in {' '.join(COMMANDS)}; do\n"
            """  screwclock --config config.example.json --out "$RUNNER_TEMP/smoke" "$command"\n"""
            "done\n")
    assert loop in steps[0]["run"]


def test_ci_checks_the_benchmark_oracles():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for step in workflow["jobs"]["tier1"]["steps"] if "bench/run.py" in step.get("run", "")]
    assert len(steps) == 1
    step = steps[0]
    assert step["if"] == "matrix.python-version == '3.11'"
    script = step["run"]
    assert "for workload in spectroscopy noisy_dense design" in script
    assert "for trace in 0 1" in script
    assert "for seed in 12345 271828" in script and '--seed "$seed"' in script
    assert '--workload "$workload" --seconds 1 --trace "$trace"' in script
    assert "['correct'] is not True" in script


DENSE_SMOKE = (
    """echo '{"protocol": {"n_atoms": 14}}' > "$RUNNER_TEMP/dense14.json"\n"""
    """for command in simulate scan; do\n"""
    """  screwclock --config "$RUNNER_TEMP/dense14.json" --out "$RUNNER_TEMP/smoke" --backend dense "$command"\n"""
    """done\n"""
    """echo '{"protocol": {"n_atoms": 12}}' > "$RUNNER_TEMP/dense12.json"\n"""
    """screwclock --config "$RUNNER_TEMP/dense12.json" --out "$RUNNER_TEMP/smoke" """
    """--backend dense --trajectories 1000000 scan\n"""
)

# tier1 then scans at a seed of three 32-bit words.
NOISY_SEED_SMOKE = (
    """screwclock --config "$RUNNER_TEMP/dense12.json" --out "$RUNNER_TEMP/smoke" """
    """--backend dense --trajectories 1000000 --seed 18446744073709551617 scan\n"""
)


@pytest.mark.parametrize("job,tail", [("tier1", DENSE_SMOKE + NOISY_SEED_SMOKE), ("runtime", DENSE_SMOKE)])
def test_ci_smoke_runs_the_dense_register_at_the_cap(job, tail):
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for step in workflow["jobs"][job]["steps"]
             if step.get("name", "").startswith("Smoke test")]
    assert len(steps) == 1
    assert steps[0]["run"].endswith(tail)


NUMPY_SEEDING_CHECK = (
    """python -c "from numpy.random import default_rng; from screwclock.trajectories import scatter_counts; """
    """assert all(scatter_counts(0.3, 10**6, s, 101) == [int(default_rng([s, i]).binomial(10**6, 0.3)) """
    """for i in range(101)] for s in (0, 12345, 2**64 + 1))"\n"""
)


def test_ci_runtime_checks_the_scatter_counts_against_its_numpy(tmp_path):
    # The numpy-only job installs the latest numpy: a numpy whose seeding changed fails there.
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for step in workflow["jobs"]["runtime"]["steps"]
             if step.get("name", "").startswith("Smoke test")]
    assert len(steps) == 1
    assert NUMPY_SEEDING_CHECK in steps[0]["run"]
    result = _run_ci_lines(f"export PYTHONPATH={shlex.quote(str(ROOT / 'src'))}\n" + NUMPY_SEEDING_CHECK,
                           tmp_path)
    assert result.returncode == 0, result.stderr


def test_ci_smoke_runs_the_branch_register_at_its_bound():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for step in workflow["jobs"]["tier1"]["steps"]
             if step.get("name", "").startswith("Smoke test")]
    assert len(steps) == 1
    script = steps[0]["run"]
    bound = json.dumps({"protocol": {"n_atoms": MAX_ATOMS}})
    assert f"""echo '{bound}' > "$RUNNER_TEMP/branch-bound.json"\n""" in script
    assert "for command in simulate scan" in script
    assert '--config "$RUNNER_TEMP/branch-bound.json" --out "$RUNNER_TEMP/smoke" --backend branch "$command"' in script
    assert ('--config "$RUNNER_TEMP/branch-bound.json" --out "$RUNNER_TEMP/smoke" --backend branch '
            '--trajectories 1000000 scan\n') in script


SWEEP_ORDER_SMOKE = (
    """echo '{"sweep": {"protocol.n_atoms": [10, 1000], "lattice.delta": [0.2, 0.25, 0.2]}}' """
    """> "$RUNNER_TEMP/sweep-order.json"\n"""
    """screwclock --config "$RUNNER_TEMP/sweep-order.json" --out "$RUNNER_TEMP/smoke" sweep\n"""
)


def test_ci_smoke_runs_a_sweep_keyed_n_first(tmp_path):
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for step in workflow["jobs"]["tier1"]["steps"]
             if step.get("name", "").startswith("Smoke test")]
    assert len(steps) == 1
    assert SWEEP_ORDER_SMOKE in steps[0]["run"]
    result = _run_ci_lines(SWEEP_ORDER_SMOKE, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "swept 6 points over ['protocol.n_atoms', 'lattice.delta']\n"


ZERO_DURATION_SMOKE = (
    """echo '{"protocol": {"ramsey_time_s": 0, "transport_time_us": 0, "gate_time_us": 0}, """
    """"noise": {"tau_scatter_clock_s": 1e-12}}' > "$RUNNER_TEMP/zero-duration.json"\n"""
    "for command in schedule sweep optimize; do\n"
    """  screwclock --config "$RUNNER_TEMP/zero-duration.json" --out "$RUNNER_TEMP/smoke" "$command" """
    """2> "$RUNNER_TEMP/stderr.txt"\n"""
    """  test ! -s "$RUNNER_TEMP/stderr.txt"\n"""
    "done\n"
)


def test_ci_smoke_runs_a_schedule_of_zero_duration(tmp_path):
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for step in workflow["jobs"]["tier1"]["steps"]
             if step.get("name", "").startswith("Smoke test")]
    assert len(steps) == 1
    assert ZERO_DURATION_SMOKE in steps[0]["run"]
    result = _run_ci_lines(ZERO_DURATION_SMOKE, tmp_path)
    assert result.returncode == 0, result.stderr
    assert "survival 1\n" in result.stdout and "optimal atom number 10000 " in result.stdout


SMALL_DELTA_SMOKE = (
    """echo '{"lattice": {"delta": 1e-10}}' > "$RUNNER_TEMP/small-delta.json"\n"""
    """screwclock --config "$RUNNER_TEMP/small-delta.json" --out "$RUNNER_TEMP/smoke" feasibility\n"""
)
PICOMETRE_SMOKE = (
    """echo '{"lattice": {"lambda_m_nm": 0.001, "intensity_kW_cm2": 22.0}}' > "$RUNNER_TEMP/picometre.json"\n"""
    "for command in feasibility schedule simulate scan optimize sweep; do\n"
    """  screwclock --config "$RUNNER_TEMP/picometre.json" --out "$RUNNER_TEMP/smoke" "$command"\n"""
    "done\n"
)
SIGNED_ZERO_SWEEP_SMOKE = (
    """echo '{"sweep": {"protocol.gate_time_us": [null, 0.0, -0.0, 20.0], """
    """"noise.tau_scatter_clock_s": [2.0, 3.0], "lattice.delta": [0.2, 0.25, 0.2]}}' """
    """> "$RUNNER_TEMP/signed-zero-sweep.json"\n"""
    """screwclock --config "$RUNNER_TEMP/signed-zero-sweep.json" --out "$RUNNER_TEMP/smoke" sweep\n"""
)


def test_ci_smoke_runs_the_trap_edges(tmp_path):
    # A misbalance of 1e-10, where the pinned clock binds the intensity at its exact depth;
    # a 1 pm lattice beside an explicit intensity; a sweep over signed-zero gate times.
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for step in workflow["jobs"]["tier1"]["steps"]
             if step.get("name", "").startswith("Smoke test")]
    assert len(steps) == 1
    script = SMALL_DELTA_SMOKE + PICOMETRE_SMOKE + SIGNED_ZERO_SWEEP_SMOKE
    assert script in steps[0]["run"]
    result = _run_ci_lines(script, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0].endswith("(binding: Sr)")
    assert result.stdout.splitlines()[-1] == (
        "swept 24 points over ['protocol.gate_time_us', 'noise.tau_scatter_clock_s', 'lattice.delta']")
    with open(tmp_path / "smoke" / "sweep.csv", newline="") as handle:
        gate_times = [row["gate_time_s"] for row in csv.DictReader(handle)]
    assert gate_times[6:12] == ["0.0"] * 6 and gate_times[12:18] == ["-0.0"] * 6


def test_ci_smoke_runs_the_schedule_at_its_bound():
    # In the numpy-only job too, so the largest table is also written without scipy.
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    bound = json.dumps({"protocol": {"n_atoms": SCHEDULE_MAX_ATOMS}})
    for job in ("tier1", "runtime"):
        steps = [step for step in workflow["jobs"][job]["steps"]
                 if step.get("name", "").startswith("Smoke test")]
        assert len(steps) == 1
        assert (f"""echo '{bound}' > "$RUNNER_TEMP/schedule-bound.json"\n"""
                """screwclock --config "$RUNNER_TEMP/schedule-bound.json" --out "$RUNNER_TEMP/smoke" schedule\n"""
                ) in steps[0]["run"], job


def test_readme_python_example_runs(capsys):
    """The README's library example, executed as written, so it cannot fall behind the API."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 5
    assert float(printed[3]) == pytest.approx(math.sin(1000 * 0.05 * 0.01 / 2) ** 2, rel=1e-12)


def _run_ci_lines(script: str, tmp_path) -> subprocess.CompletedProcess:
    """CI lines through ``bash -e``, with ``screwclock`` and ``python`` calling this checkout's CLI
    and interpreter, and ``$RUNNER_TEMP`` at ``tmp_path``."""
    src = str(ROOT / "src")
    prelude = (
        f"screwclock() {{ PYTHONPATH={shlex.quote(src)} {shlex.quote(sys.executable)} -c "
        "'import sys; from screwclock.cli import main; sys.exit(main(sys.argv[1:]))' \"$@\"; }\n"
        f"python() {{ {shlex.quote(sys.executable)} \"$@\"; }}\n"
        "set -e\n"
    )
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path))
    return subprocess.run(["bash", "-c", prelude + script], capture_output=True, text=True,
                          timeout=120, env=env)


def test_dense_smoke_lines_run(tmp_path):
    """The lines above, through bash."""
    result = _run_ci_lines(DENSE_SMOKE + NOISY_SEED_SMOKE, tmp_path)
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in (tmp_path / "smoke").glob("*.csv")) == ["scan.csv", "simulate.csv"]
    meta = json.loads((tmp_path / "smoke" / "scan.meta.json").read_text())
    assert meta["config"]["run"]["seed"] == 2**64 + 1


def _error_contract_step() -> dict:
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for step in workflow["jobs"]["runtime"]["steps"] if step.get("name") == "Error contract"]
    assert len(steps) == 1
    return steps[0]


def test_ci_error_contract_names_each_rejected_leaf():
    script = _error_contract_step()["run"]
    points = json.dumps({"optimize": {"n_points": OPTIMIZE_MAX_POINTS + 1}})
    assert f"""echo '{points}' > "$RUNNER_TEMP/error.json"\n""" in script
    assert "expect_config_error optimize.n_points optimize\n" in script
    atoms = json.dumps({"protocol": {"n_atoms": SCHEDULE_MAX_ATOMS + 1}})
    assert f"""echo '{atoms}' > "$RUNNER_TEMP/error.json"\n""" in script
    assert "expect_config_error protocol.n_atoms schedule\n" in script
    branch_atoms = json.dumps({"protocol": {"n_atoms": MAX_ATOMS + 1}, "run": {"backend": "branch"}})
    assert (f"""echo '{branch_atoms}' > "$RUNNER_TEMP/error.json"\n"""
            "expect_config_error protocol.n_atoms simulate\n") in script
    assert 'test ! -e "$RUNNER_TEMP/errors"' in script
    assert """echo '{"lattice": {"delta": 0}}' > "$RUNNER_TEMP/error.json"\n""" in script
    assert "expect_config_error lattice.delta feasibility\n" in script
    assert 'test "$status" -eq 2' in script
    sweep_points = f"[0] * {SWEEP_MAX_POINTS + 1}"
    assert (f"""python -c "import json; print(json.dumps({{'sweep': {{'run.seed': {sweep_points}}}}}))" """
            """> "$RUNNER_TEMP/error.json"\n"""
            "expect_config_error sweep sweep\n") in script
    assert ("""echo '{"protocol": {"ramsey_time_s": 0}}' > "$RUNNER_TEMP/error.json"\n"""
            "expect_config_error protocol.ramsey_time_s scan\n") in script
    assert "expect_config_error 'species[0].mass_amu' schedule\n" in script
    assert ("""echo '{"lattice": {"lambda_m_nm": 1e-300}}' > "$RUNNER_TEMP/error.json"\n"""
            "expect_config_error lattice.lambda_m_nm simulate\n") in script
    assert "expect_config_error 'species[2].alpha_scalar_au' feasibility\n" in script
    # One float past an end of each range that bounds a derived quantity, one leaf per group:
    # (document, field and command), each past the lower end (index 2) or the upper (3).
    below, above = 2, 3
    past_a_range = [
        ({"protocol": {"ramsey_time_s": range_edges("protocol.ramsey_time_s")[below]}},
         "protocol.ramsey_time_s simulate"),
        ({"protocol": {"transport_time_us": range_edges("protocol.transport_time_us")[above]}},
         "protocol.transport_time_us schedule"),
        ({"run": {"detuning_min_rad_s": 0,
                  "detuning_max_rad_s": range_edges("run.detuning_max_rad_s")[above]}},
         "run.detuning_max_rad_s scan"),
        ({"lattice": {"transverse_intensity_kW_cm2":
                      range_edges("lattice.transverse_intensity_kW_cm2")[above]}},
         "lattice.transverse_intensity_kW_cm2 feasibility"),
        ({"protocol": {"depth_factor": range_edges("protocol.depth_factor")[above]}},
         "protocol.depth_factor schedule"),
        ({"protocol": {"a_scatt_au": range_edges("protocol.a_scatt_au")[below]}},
         "protocol.a_scatt_au feasibility"),
        ({"noise": {"tau_scatter_head_s": range_edges("noise.tau_scatter_head_s")[below]}},
         "noise.tau_scatter_head_s schedule"),
        ({"noise": {"extra_loss_rate_per_s": range_edges("noise.extra_loss_rate_per_s")[above]}},
         "noise.extra_loss_rate_per_s optimize"),
    ]
    species = serialize_config(parse_config(None))["species"]
    species[1]["rho"] = range_edges("species.rho")[below]
    past_a_range.append(({"species": species}, "'species[1].rho' feasibility"))
    for document, expectation in past_a_range:
        assert (f"""echo '{json.dumps(document)}' > "$RUNNER_TEMP/error.json"\n"""
                f"expect_config_error {expectation}\n") in script
    assert "expect_failure" not in script


@pytest.mark.parametrize("line,wrong", [
    (None, None),
    ("expect_config_error optimize.n_points ", "expect_config_error optimize.n_max "),
    ("expect_config_error run.detuning_max_rad_s ", "expect_config_error run.detuning_min_rad_s "),
    ("expect_config_error protocol.n_atoms schedule\n", "expect_config_error protocol.n_atoms feasibility\n"),
], ids=["as-written", "wrong-field-fails", "wrong-range-field-fails", "command-that-succeeds-fails"])
def test_error_contract_lines_run(tmp_path, line, wrong):
    """The step's lines, through bash; with one expectation made wrong, the step must fail."""
    script = _error_contract_step()["run"]
    if line is not None:
        assert line in script
        script = script.replace(line, wrong)
    result = _run_ci_lines(script, tmp_path)
    assert (result.returncode == 0) == (line is None), result.stderr
    # Only a command that succeeds writes its output directory.
    assert (tmp_path / "errors").exists() == (wrong == "expect_config_error protocol.n_atoms feasibility\n")
