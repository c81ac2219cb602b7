"""The CLI needs numpy only: scipy is the tests' oracle, and neither scipy nor click is ever imported."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from screwclock.cli import BRANCH_MAX_ATOMS, COMMANDS, OPTIMIZE_MAX_POINTS, SCHEDULE_MAX_ATOMS

from conftest import run_python

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


@pytest.mark.parametrize("job", ["tier1", "runtime"])
def test_ci_smoke_runs_the_dense_register_at_the_cap(job):
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for step in workflow["jobs"][job]["steps"]
             if step.get("name", "").startswith("Smoke test")]
    assert len(steps) == 1
    assert steps[0]["run"].endswith(DENSE_SMOKE)


def test_ci_smoke_runs_the_branch_register_at_its_bound():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for step in workflow["jobs"]["tier1"]["steps"]
             if step.get("name", "").startswith("Smoke test")]
    assert len(steps) == 1
    script = steps[0]["run"]
    bound = json.dumps({"protocol": {"n_atoms": BRANCH_MAX_ATOMS}})
    assert f"""echo '{bound}' > "$RUNNER_TEMP/branch-bound.json"\n""" in script
    assert "for command in simulate scan" in script
    assert '--config "$RUNNER_TEMP/branch-bound.json" --out "$RUNNER_TEMP/smoke" --backend branch "$command"' in script


def test_ci_smoke_runs_the_schedule_at_its_bound():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for step in workflow["jobs"]["tier1"]["steps"]
             if step.get("name", "").startswith("Smoke test")]
    assert len(steps) == 1
    bound = json.dumps({"protocol": {"n_atoms": SCHEDULE_MAX_ATOMS}})
    assert (f"""echo '{bound}' > "$RUNNER_TEMP/schedule-bound.json"\n"""
            """screwclock --config "$RUNNER_TEMP/schedule-bound.json" --out "$RUNNER_TEMP/smoke" schedule\n"""
            ) in steps[0]["run"]


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
    result = _run_ci_lines(DENSE_SMOKE, tmp_path)
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in (tmp_path / "smoke").glob("*.csv")) == ["scan.csv", "simulate.csv"]


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
    branch_atoms = json.dumps({"protocol": {"n_atoms": BRANCH_MAX_ATOMS + 1}, "run": {"backend": "branch"}})
    assert (f"""echo '{branch_atoms}' > "$RUNNER_TEMP/error.json"\n"""
            "expect_config_error protocol.n_atoms simulate\n") in script
    assert 'test ! -e "$RUNNER_TEMP/errors"' in script
    assert """echo '{"lattice": {"delta": 0}}' > "$RUNNER_TEMP/error.json"\n""" in script
    assert "expect_config_error lattice.delta feasibility\n" in script
    assert ("""echo '{"run": {"detuning_min_rad_s": -1e308, "detuning_max_rad_s": 1e308}}' """
            """> "$RUNNER_TEMP/error.json"\n"""
            "expect_config_error run.detuning_max_rad_s scan\n") in script
    assert ("""echo '{"protocol": {"ramsey_time_s": 1e-320}}' > "$RUNNER_TEMP/error.json"\n"""
            "expect_config_error protocol.ramsey_time_s simulate\n") in script
    assert 'test "$status" -eq 2' in script


@pytest.mark.parametrize("field,wrong", [(None, None), ("optimize.n_points", "optimize.n_max"),
                                         ("run.detuning_max_rad_s", "run.detuning_min_rad_s")],
                         ids=["as-written", "wrong-field-fails", "wrong-overflow-field-fails"])
def test_error_contract_lines_run(tmp_path, field, wrong):
    """The step's lines, through bash; with one expected field renamed, the step must fail."""
    script = _error_contract_step()["run"]
    if field is not None:
        script = script.replace(f"expect_config_error {field} ", f"expect_config_error {wrong} ")
    result = _run_ci_lines(script, tmp_path)
    assert (result.returncode == 0) == (field is None), result.stderr
    assert not (tmp_path / "errors").exists()
