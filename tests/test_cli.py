import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from screwclock import (
    BranchState, ParameterError, parse_config, resolve_physics, survival_probability,
)
from screwclock.cli import (
    SCHEDULE_MAX_ATOMS, SCHEDULE_ROW_BYTES, SCHEDULE_TABLE_BUDGET_BYTES, main, run_command,
)
from screwclock.output import write_table

from conftest import read_table, reference_schedule_steps, reference_write_table, run_python


def _write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def _run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


class TestWriteTable:
    def test_empty_rows_rejected(self, tmp_path):
        for columns in ({}, {"a": []}):
            with pytest.raises(ParameterError):
                write_table(columns, tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_equal_values_of_different_types_format_apart(self, tmp_path):
        # 1 == 1.0 == True, yet each keeps its own text.
        values = [1, 1.0, True, None, 1, True]
        path = write_table({"v": values, "k": ["x"] * len(values)}, tmp_path / "t.csv")
        assert path.read_text().splitlines() == ["v,k", "1,x", "1.0,x", "true,x", ",x", "1,x", "true,x"]

    def test_numpy_scalars_write_as_numbers(self, tmp_path):
        path = write_table({"x": [np.float64(0.1)], "n": [np.int64(7)]}, tmp_path / "t.csv")
        assert path.read_text() == "x,n\n0.1,7\n"

    def test_numpy_array_columns_write_every_value(self, tmp_path):
        # Iterating an array makes a new scalar per element; each must stay distinct.
        columns = {"x": np.array([0.1, -0.0, 0.1, 2.5]), "n": np.arange(4)}
        path = write_table(columns, tmp_path / "t.csv")
        assert path.read_text() == "x,n\n0.1,0\n-0.0,1\n0.1,2\n2.5,3\n"

    def test_signed_zeros_and_nan_format_apart(self, tmp_path):
        values = [0.0, -0.0, 0, False, math.nan, -0.0, 0.0]
        path = write_table({"v": values}, tmp_path / "t.csv")
        assert path.read_text().split() == ["v", "0.0", "-0.0", "0", "false", "nan", "-0.0", "0.0"]

    def test_long_table_written_whole(self, tmp_path):
        # Longer than the writer's chunks: every row, in order.
        i = list(range(10_001))
        x = [k / 7 for k in i]
        back = read_table(write_table({"i": i, "x": x}, tmp_path / "t.csv"))
        assert [(int(r["i"]), float(r["x"])) for r in back] == list(zip(i, x))

    def test_round_trip_exact(self, tmp_path):
        columns = {"x": [0.1 + 0.2], "y": [1e-300], "z": [-math.pi]}
        path = write_table(columns, tmp_path / "t.csv")
        back = read_table(path)[0]
        assert float(back["x"]) == columns["x"][0]
        assert float(back["y"]) == columns["y"][0]
        assert float(back["z"]) == columns["z"][0]

    def test_same_rows_same_bytes(self, tmp_path):
        columns = {"a": [1.5, -2.25], "b": ["x", "y"]}
        p1 = write_table(columns, tmp_path / "one.csv")
        p2 = write_table(columns, tmp_path / "two.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_inconsistent_columns_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            write_table({"a": [1], "b": [2, 3]}, tmp_path / "t.csv")

    def test_non_finite_metadata_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table({"a": [1]}, tmp_path / "t.csv", metadata={"x": math.inf})

    def test_metadata_sidecar_written(self, tmp_path):
        write_table({"a": [1]}, tmp_path / "t.csv", metadata={"seed": 7})
        meta = json.loads((tmp_path / "t.meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["rows"] == 1

    def test_carriage_return_and_leading_space_unquoted(self, tmp_path):
        # The bytes csv.writer(lineterminator="\n") writes on CPython 3.11.
        path = write_table({"v": ["a\rb", " a", "\r"], "k": ["x", " ", "\r\n"]}, tmp_path / "t.csv")
        assert path.read_bytes() == b'v,k\na\rb,x\n a, \n\r,"\r\n"\n'


# Table cells of every kind the commands write, plus text that needs quoting.
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from("\n\t"),
                max_size=8)
_CELLS = st.one_of(
    st.sampled_from([None, True, False, 0, 1, 0.0, -0.0, math.nan, math.inf, -math.inf,
                     5e-324, -2.5e-310, 2.2250738585072014e-308]),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    _TEXT,
)


class TestWriteTableAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_TEXT, min_size=1, max_size=4, unique=True),
           st.lists(st.lists(_CELLS, min_size=1, max_size=12), min_size=4, max_size=4),
           st.integers(1, 10_001), st.integers(0, 2**32 - 1))
    @example(["i", "x,y", "", " z"],
             [[1, 1.0, True], [None, "a,b", " "], [-0.0, 0.0, math.nan], ['"q"', "\n", ""]],
             10_001, 1)
    @example([""], [[None, "", "x,y"]], 3, 2)
    def test_bytes_match_row_writer(self, names, pools, n_rows, seed):
        # Each column draws its cells from a small pool, so objects repeat and
        # equal values sit in distinct objects, as in the commands' tables.
        rng = np.random.default_rng(seed)
        columns = {
            name: [pool[k] for k in rng.integers(len(pool), size=n_rows)]
            for name, pool in zip(names, pools)
        }
        rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
        with tempfile.TemporaryDirectory() as out:
            got = write_table(columns, f"{out}/got.csv", metadata={"seed": seed})
            want = reference_write_table(rows, f"{out}/want.csv", metadata={"seed": seed})
            assert got.read_bytes() == want.read_bytes()
            assert (Path(out) / "got.meta.json").read_text() == (Path(out) / "want.meta.json").read_text()


class TestFeasibilityCommand:
    def test_defaults_are_feasible_near_published_intensity(self, tmp_path):
        result = _run(["--out", str(tmp_path), "feasibility"])
        assert result.exit_code == 0
        meta = json.loads((tmp_path / "feasibility.meta.json").read_text())
        assert meta["feasible"] is True
        assert 0.5 < meta["intensity_kw_cm2"] / 20.0 < 2.0
        assert meta["binding_species"] == "Al_up"
        rows = read_table(tmp_path / "feasibility.csv")
        assert {r["species"] for r in rows} == {"Sr", "Al_up", "Al_down"}

    def test_infeasible_transport_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, {"species": [
            {"name": "Sr", "mass_amu": 87.9, "alpha_scalar_au": -470.0, "rho": 0.0,
             "role": "clock"},
            {"name": "A", "mass_amu": 27.0, "alpha_scalar_au": -340.0, "rho": -0.1,
             "role": "head_up"},
            {"name": "B", "mass_amu": 27.0, "alpha_scalar_au": -340.0, "rho": 0.84,
             "role": "head_down"},
        ]})
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "feasibility"])
        assert result.exit_code == 4
        blob = json.loads(result.stderr)
        assert blob["error"] == "infeasible_transport"


class TestScanCommand:
    def test_noiseless_three_atom_scan_matches_analytic(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "protocol": {"n_atoms": 3, "ramsey_time_s": 0.5},
            "run": {"backend": "dense", "detuning_points": 41},
        })
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "scan"])
        assert result.exit_code == 0
        rows = read_table(tmp_path / "o" / "scan.csv")
        assert len(rows) == 41
        for row in rows:
            dw = float(row["detuning_rad_s"])
            expected = math.sin(3 * dw * 0.5 / 2) ** 2
            assert abs(float(row["p_up"]) - expected) < 1e-9

    def test_metadata_reports_gain(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "protocol": {"n_atoms": 4, "ramsey_time_s": 0.25},
            "run": {"backend": "dense"},
        })
        _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "scan"])
        meta = json.loads((tmp_path / "o" / "scan.meta.json").read_text())
        assert meta["contrast"] == pytest.approx(1.0, abs=1e-6)
        assert meta["gain_over_sql"] == pytest.approx(2.0, rel=1e-6)


class TestSimulateCommand:
    def test_zero_atoms_fails_with_config_error(self, tmp_path):
        cfg = _write_config(tmp_path, {"protocol": {"n_atoms": 0}})
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
        assert result.exit_code == 2
        blob = json.loads(result.stderr)
        assert blob["error"] == "config"
        assert blob["field"] == "protocol.n_atoms"

    def test_no_interaction_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, {"protocol": {"a_scatt_au": 0.0}})
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
        assert result.exit_code == 6
        assert json.loads(result.stderr)["error"] == "no_interaction"

    def test_infeasible_transport_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, {"lattice": {"delta": 0.9}})
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
        assert result.exit_code == 4
        assert json.loads(result.stderr)["error"] == "infeasible_transport"

    def test_checkpoints_have_unit_fidelity(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "protocol": {"n_atoms": 5, "ramsey_time_s": 0.1},
            "run": {"backend": "dense"},
        })
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
        assert result.exit_code == 0
        rows = read_table(tmp_path / "o" / "simulate.csv")
        assert {r["checkpoint"] for r in rows} == {
            "superposition", "entangled", "ghz", "evolved", "final"
        }
        for row in rows:
            assert float(row["fidelity"]) == pytest.approx(1.0, abs=1e-10)
        meta = json.loads((tmp_path / "o" / "simulate.meta.json").read_text())
        assert meta["p_up"] == pytest.approx(meta["p_up_ideal"], abs=1e-10)
        assert meta["p_up_ideal"] == pytest.approx(0.5, abs=1e-12)

    def test_dense_simulate_at_the_cap_never_expands_a_branch_reference(self, tmp_path, monkeypatch):
        def refuse(self, max_atoms=20):
            raise AssertionError("a branch reference was expanded to a vector")

        monkeypatch.setattr(BranchState, "to_vector", refuse)
        cfg = parse_config({"protocol": {"n_atoms": 14}, "run": {"backend": "dense"}})
        run_command("simulate", cfg, tmp_path)
        rows = read_table(tmp_path / "simulate.csv")
        assert len(rows) == 5
        assert all(float(row["fidelity"]) >= 1.0 - 1e-14 for row in rows)


_TIMES_US = st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False)


class TestScheduleCommand:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 500), _TIMES_US, _TIMES_US, _TIMES_US,
           st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False))
    def test_table_matches_reference_expansion(self, n, gate_us, transport_us, pulse_us, ramsey):
        cfg = parse_config({"protocol": {
            "n_atoms": n, "gate_time_us": gate_us, "transport_time_us": transport_us,
            "pulse_time_us": pulse_us, "ramsey_time_s": ramsey,
        }})
        with tempfile.TemporaryDirectory() as out:
            run_command("schedule", cfg, out)
            with open(f"{out}/schedule.csv") as handle:
                lines = handle.read().splitlines()
        expected = ["step_index,kind,duration_s,site"] + [
            f"{i},{kind},{duration!r},{'' if site is None else site}"
            for i, (kind, duration, site) in enumerate(
                reference_schedule_steps(resolve_physics(cfg).schedule))
        ]
        assert lines == expected

    def test_step_table_and_survival(self, tmp_path):
        cfg = _write_config(tmp_path, {"protocol": {"n_atoms": 3, "ramsey_time_s": 0.05}})
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "schedule"])
        assert result.exit_code == 0
        rows = read_table(tmp_path / "o" / "schedule.csv")
        kinds = [r["kind"] for r in rows]
        assert kinds.count("free_evolution") == 1
        assert kinds.count("phase_gate") == 6
        meta = json.loads((tmp_path / "o" / "schedule.meta.json").read_text())
        total = sum(float(r["duration_s"]) for r in rows)
        assert meta["total_duration_s"] == pytest.approx(total, rel=1e-12)
        assert 0.0 < meta["survival"] <= 1.0


class TestOptimizeCommand:
    def test_curve_and_metadata(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "protocol": {"ramsey_time_s": 0.01},
            "optimize": {"n_min": 1, "n_max": 10000, "n_points": 40},
        })
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "optimize"])
        assert result.exit_code == 0
        meta = json.loads((tmp_path / "o" / "optimize.meta.json").read_text())
        assert meta["ramsey_time_s"] == 0.01
        rows = read_table(tmp_path / "o" / "optimize.csv")
        foms = [float(r["figure_of_merit"]) for r in rows]
        ns = [int(r["n_atoms"]) for r in rows]
        assert ns[foms.index(max(foms))] == meta["n_opt"]


class TestSweepCommand:
    def test_rows_follow_declared_product(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "sweep": {"protocol.n_atoms": [2, 4], "protocol.ramsey_time_s": [0.01, 0.02, 0.05]},
        })
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "sweep"])
        assert result.exit_code == 0
        rows = read_table(tmp_path / "o" / "sweep.csv")
        assert len(rows) == 6
        seen = [(int(r["protocol.n_atoms"]), float(r["protocol.ramsey_time_s"])) for r in rows]
        assert seen == [(2, 0.01), (2, 0.02), (2, 0.05), (4, 0.01), (4, 0.02), (4, 0.05)]

    def test_empty_sweep_evaluates_base_config(self, tmp_path):
        result = _run(["--out", str(tmp_path / "o"), "sweep"])
        assert result.exit_code == 0
        rows = read_table(tmp_path / "o" / "sweep.csv")
        assert len(rows) == 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "sweep": {"protocol.n_atoms": [5, 50], "noise.extra_loss_rate_per_s": [0.0, 2.0]},
            "run": {"seed": 987},
        })
        _run(["--config", str(cfg), "--out", str(tmp_path / "a"), "sweep"])
        _run(["--config", str(cfg), "--out", str(tmp_path / "b"), "--jobs", "4", "sweep"])
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()


class TestDeterminismAndErrors:
    def test_monte_carlo_scan_reruns_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "protocol": {"n_atoms": 4, "ramsey_time_s": 0.05},
            "run": {"backend": "dense", "trajectories": 50, "seed": 11,
                    "detuning_points": 15},
        })
        _run(["--config", str(cfg), "--out", str(tmp_path / "a"), "scan"])
        _run(["--config", str(cfg), "--out", str(tmp_path / "b"), "scan"])
        assert (tmp_path / "a" / "scan.csv").read_bytes() == (tmp_path / "b" / "scan.csv").read_bytes()

    def test_trillion_trajectory_scan_tracks_survival(self, tmp_path):
        # One binomial draw per point: 10^12 trajectories cost no more memory
        # than ten, and each mean sits within 5 sigma of S p + (1 - S) / 2.
        trajectories = 10**12
        doc = {"protocol": {"n_atoms": 4}, "run": {"backend": "dense"}}
        cfg = _write_config(tmp_path, doc)
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"),
                       "--trajectories", str(trajectories), "scan"])
        assert result.exit_code == 0
        bundle = resolve_physics(parse_config(doc))
        survival = survival_probability(bundle.schedule, 4, bundle.decoherence)
        assert 0.0 < survival < 1.0
        meta = json.loads((tmp_path / "o" / "scan.meta.json").read_text())
        assert meta["trajectories_per_point"] == trajectories
        rows = read_table(tmp_path / "o" / "scan.csv")
        assert len(rows) == 101
        for row in rows:
            exact = math.sin(4 * float(row["detuning_rad_s"]) * bundle.ramsey_time / 2) ** 2
            expected = survival * exact + (1.0 - survival) / 2.0
            sigma = math.sqrt(survival * (1.0 - survival) / trajectories) * abs(exact - 0.5)
            assert abs(float(row["p_up"]) - expected) <= 5 * sigma + 1e-12

    def test_trajectories_beyond_int64_rejected(self, tmp_path):
        too_many = 2**63
        cfg = _write_config(tmp_path, {"run": {"trajectories": too_many}})
        for args in (["--config", str(cfg)], ["--trajectories", str(too_many)]):
            result = _run([*args, "--out", str(tmp_path / "o"), "scan"])
            assert result.exit_code == 2
            blob = json.loads(result.stderr)
            assert blob["error"] == "config"
            assert blob["field"] == "run.trajectories"
        assert not (tmp_path / "o").exists()

    def test_negative_seed_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, {"run": {"seed": -3}})
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "schedule"])
        assert result.exit_code == 2

    def test_undefined_transport_delta_exit_code(self, tmp_path):
        # delta = 0 leaves the transport criteria undefined: invalid parameter.
        cfg = _write_config(tmp_path, {"lattice": {"delta": 0.0}})
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "feasibility"])
        assert result.exit_code == 3
        assert json.loads(result.stderr)["error"] == "invalid_parameter"

    def test_untrapped_clock_exit_code(self, tmp_path):
        # A clock species with zero polarizability cannot be pinned.
        cfg = _write_config(tmp_path, {"species": [
            {"name": "ghost", "mass_amu": 87.9, "alpha_scalar_au": 0.0, "rho": 0.0,
             "role": "clock"},
            {"name": "A", "mass_amu": 27.0, "alpha_scalar_au": -340.0, "rho": -1.25,
             "role": "head_up"},
            {"name": "B", "mass_amu": 27.0, "alpha_scalar_au": -340.0, "rho": 0.84,
             "role": "head_down"},
        ]})
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "feasibility"])
        assert result.exit_code == 5
        assert json.loads(result.stderr)["error"] == "untrapped"

    def test_no_interaction_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, {"protocol": {"a_scatt_au": 0.0}})
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "schedule"])
        assert result.exit_code == 6
        assert json.loads(result.stderr)["error"] == "no_interaction"

    @pytest.mark.parametrize("section,key,token", [
        ("lattice", "phi_rad", "NaN"),
        ("protocol", "ramsey_time_s", "Infinity"),
        ("protocol", "a_scatt_au", "NaN"),
        ("noise", "extra_loss_rate_per_s", "1" + "0" * 400),
    ])
    def test_non_finite_config_value_exit_code(self, tmp_path, section, key, token):
        cfg = tmp_path / "config.json"
        cfg.write_text(f'{{"{section}": {{"{key}": {token}}}}}')
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "schedule"])
        assert result.exit_code == 2
        blob = json.loads(result.stderr)
        assert blob["error"] == "config"
        assert blob["field"] == f"{section}.{key}"
        assert not (tmp_path / "o").exists()

    def test_unwritable_output_exit_code(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        result = _run(["--out", str(blocker / "o"), "feasibility"])
        assert result.exit_code == 1
        blob = json.loads(result.stderr)
        assert blob["error"] == "error"
        assert str(blocker) in blob["message"]

    def test_register_capacity_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "protocol": {"n_atoms": 30},
            "run": {"backend": "dense"},
        })
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
        assert result.exit_code == 8
        assert json.loads(result.stderr)["error"] == "register_capacity"

    @pytest.mark.parametrize("command,document,field", [
        # Rejected while the config is parsed, before any command allocates.
        ("schedule", {"protocol": {"n_atoms": 10**20}}, "protocol.n_atoms"),
        ("scan", {"protocol": {"n_atoms": 10**20}}, "protocol.n_atoms"),
        ("scan", {"protocol": {"n_atoms": 10**400}}, "protocol.n_atoms"),
        ("sweep", {"protocol": {"n_atoms": 10**400}}, "protocol.n_atoms"),
        ("optimize", {"optimize": {"n_max": 10**29}}, "optimize.n_max"),
        ("sweep", {"sweep": {"protocol.n_atoms": [10, 10**20]}}, "protocol.n_atoms"),
        ("sweep", {"sweep": {"protocol.n_atoms": [10**400]}}, "protocol.n_atoms"),
    ], ids=["schedule-1e20", "scan-1e20", "scan-1e400", "sweep-1e400", "optimize-n_max-1e29",
            "sweep-value-1e20", "sweep-value-1e400"])
    def test_atom_number_beyond_2_53_exit_code(self, tmp_path, command, document, field):
        cfg = _write_config(tmp_path, document)
        result = _run(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 2
        blob = json.loads(result.stderr)
        assert blob["error"] == "config"
        assert blob["field"] == field
        assert not (tmp_path / "o").exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
    def test_schedule_bound_is_the_table_budget(self, tmp_path):
        # The peak-RSS growth of `schedule` at the limit, over a one-atom run in
        # the same process: about 21 MiB at the measured 46 B per row, where
        # 281 B rows once filled the 128 MiB budget.
        code = (
            "import resource, sys\n"
            "from screwclock import parse_config\n"
            "from screwclock.cli import run_command\n"
            "def peak(n):\n"
            "    run_command('schedule', parse_config({'protocol': {'n_atoms': n}}), sys.argv[1])\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
            "base = peak(1)\n"
            "print(peak(int(sys.argv[2])) - base)\n"
        )
        result = run_python(["-c", code, str(tmp_path), str(SCHEDULE_MAX_ATOMS)], timeout=120)
        assert result.returncode == 0, result.stderr
        growth = int(result.stdout.splitlines()[-1])
        rows = 4 * SCHEDULE_MAX_ATOMS + 8
        assert growth <= 2 * rows * SCHEDULE_ROW_BYTES <= SCHEDULE_TABLE_BUDGET_BYTES

    @pytest.mark.parametrize("n_atoms", [SCHEDULE_MAX_ATOMS + 1, 2**53],
                             ids=["bound+1", "2^53"])
    def test_schedule_beyond_table_budget_exit_code(self, tmp_path, n_atoms):
        # Rejected before the table is built, so even 2^53 exits at once.
        cfg = _write_config(tmp_path, {"protocol": {"n_atoms": n_atoms}})
        result = run_python(["-m", "screwclock.cli", "--config", str(cfg),
                             "--out", str(tmp_path / "o"), "schedule"], timeout=30)
        assert result.returncode == 2
        blob = json.loads(result.stderr.splitlines()[-1])
        assert blob["error"] == "config"
        assert blob["field"] == "protocol.n_atoms"
        assert not (tmp_path / "o" / "schedule.csv").exists()

    def test_schedule_at_table_budget_runs(self, tmp_path):
        cfg = _write_config(tmp_path, {"protocol": {"n_atoms": SCHEDULE_MAX_ATOMS}})
        result = run_python(["-m", "screwclock.cli", "--config", str(cfg),
                             "--out", str(tmp_path / "o"), "schedule"], timeout=120)
        assert result.returncode == 0, result.stderr
        meta = json.loads((tmp_path / "o" / "schedule.meta.json").read_text())
        assert meta["rows"] == 4 * SCHEDULE_MAX_ATOMS + 8

    @pytest.mark.parametrize("command", ["scan", "sweep"])
    def test_non_clock_error_exit_code(self, tmp_path, monkeypatch, command):
        def fail(cfg):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr("screwclock.cli.resolve_physics", fail)
        result = _run(["--out", str(tmp_path / "o"), command])
        assert result.exit_code == 1
        blob = json.loads(result.stderr)
        assert blob == {"error": "error", "message": "ZeroDivisionError: injected"}


class TestRunCommandLibrary:
    def test_unknown_command_rejected(self, tmp_path):
        from screwclock import ClockSimError
        with pytest.raises(ClockSimError):
            run_command("explode", parse_config(None), tmp_path)

    def test_seed_override_flows_to_metadata(self, tmp_path):
        result = _run(["--out", str(tmp_path / "o"), "--seed", "31337", "schedule"])
        assert result.exit_code == 0
        meta = json.loads((tmp_path / "o" / "schedule.meta.json").read_text())
        assert meta["seed"] == 31337
