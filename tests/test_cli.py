import csv
import io
import json
import math
import sys
import tempfile
import timeit
import tracemalloc
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from screwclock import __version__, cli, pipeline, register
from screwclock.cli import (
    COMMANDS, MEMORY_BUDGET_BYTES, OPTIMIZE_MAX_POINTS, OPTIMIZE_POINT_BYTES,
    SCAN_MAX_POINTS, SCAN_POINT_BYTES, SCHEDULE_MAX_ATOMS, SCHEDULE_MAX_BYTES, SWEEP_MAX_POINTS,
    SWEEP_POINT_BYTES, main, run_command,
)
from screwclock.config import (
    _SECTIONS, _SWEEPABLE, MAX_ATOMS, SpeciesEntry, parse_config, serialize_config,
    serialized_hash,
)
from screwclock.constants import CODATA
from screwclock.errors import ClockSimError, ConfigError, ParameterError
from screwclock.estimator import fringe_scan
from screwclock.output import TableText, write_table
from screwclock.pipeline import resolve_physics
from screwclock.rates import (
    _SITE_MARK, _STEP_MARK, SCHEDULE_BLOCK_BYTES, SCHEDULE_COLUMNS, ProtocolSchedule,
    scatter_probability, schedule_rows, schedule_table_bytes, survival_probability,
)
from screwclock.register import BranchState, DenseState

from conftest import (
    FLOAT_RANGES, range_edges, read_table, reference_apply_override, reference_schedule_rows,
    reference_schedule_steps, reference_write_table, run_protocol, run_python,
)


def _write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


ROOT = Path(__file__).resolve().parents[1]
_LINUX_RSS = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads the peak RSS from Linux's /proc/self/status")


def _peak_growth(tmp_path, command, small, large) -> int:
    """Peak-RSS growth, in bytes, of ``command`` on config ``large`` over ``small``, in one fresh process.

    The peak is VmHWM, which starts afresh at exec. ru_maxrss does not: the child
    inherits the test process's peak, under which any smaller growth reads 0.
    """
    code = (
        "import json, sys\n"
        "from screwclock.config import parse_config\n"
        "from screwclock.cli import run_command\n"
        "def peak(document):\n"
        "    run_command(sys.argv[1], parse_config(json.loads(document)), sys.argv[2])\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) * 1024 for line in status if line.startswith('VmHWM:'))\n"
        "base = peak(sys.argv[3])\n"
        "print(peak(sys.argv[4]) - base)\n"
    )
    result = run_python(["-c", code, command, str(tmp_path), json.dumps(small), json.dumps(large)],
                        timeout=120)
    assert result.returncode == 0, result.stderr
    return int(result.stdout.splitlines()[-1])


@pytest.fixture
def run_cli(capsys):
    """Call ``main(args)`` in-process; its exit code and what it printed."""
    def run(args):
        capsys.readouterr()
        exit_code = main(args)
        out, err = capsys.readouterr()
        return SimpleNamespace(exit_code=exit_code, stdout=out, stderr=err)
    return run


class TestWriteTable:
    def test_empty_rows_rejected(self, tmp_path):
        for columns in ({}, {"a": []}):
            with pytest.raises(ParameterError):
                write_table(columns, tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_table_text_writes_like_its_columns(self, tmp_path):
        columns = {"a": [1, 2], "b": ["x", None]}
        text = TableText(columns, 2, iter([b"1,x\n", b"2,\n"]))
        assert len(text) == len(columns)  # as the benchmark's tracer reads it
        got = write_table(text, tmp_path / "got.csv", metadata={"seed": 7})
        want = write_table(columns, tmp_path / "want.csv", metadata={"seed": 7})
        assert got.read_bytes() == want.read_bytes()
        assert (tmp_path / "got.meta.json").read_bytes() == (tmp_path / "want.meta.json").read_bytes()
        with pytest.raises(ParameterError):
            write_table(TableText(columns, 0, iter([])), tmp_path / "new" / "t.csv")
        assert not (tmp_path / "new").exists()

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
        # The sidecar's text is made before the directory, so nothing is written.
        with pytest.raises(ValueError):
            write_table({"a": [1]}, tmp_path / "new" / "t.csv", metadata={"x": math.inf})
        assert not (tmp_path / "new").exists()

    def test_metadata_sidecar_written(self, tmp_path):
        write_table({"a": [1]}, tmp_path / "t.csv", metadata={"seed": 7})
        meta = json.loads((tmp_path / "t.meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["rows"] == 1

    def test_non_ascii_cells_write_as_utf8(self, tmp_path):
        # Whatever the locale's encoding, as the schedule's bytes are.
        path = write_table({"species": ["Sr", "\u00b9\u2077\u00b9Yb", "a,\u00b5"], "n": [1, 2, 3]},
                           tmp_path / "t.csv")
        assert path.read_bytes() == 'species,n\nSr,1\n\u00b9\u2077\u00b9Yb,2\n"a,\u00b5",3\n'.encode("utf-8")

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
# Pools of one type family each, so that whole columns reach the writer's
# cell-by-cell path: exact ints past 2^63, text that needs quoting, ints or
# bools with None, and exact floats with signed zeros, nan and infinities.
_FAMILIES = (
    st.integers(-(2**70), 2**70),
    _TEXT | st.sampled_from(["a,b", '"q"', "x\ny", "\r", "a\rb", " lead", ""]),
    st.none() | st.integers(-(2**70), 2**70),
    st.none() | st.booleans(),
    st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)
_POOLS = st.one_of(st.lists(_CELLS, min_size=1, max_size=12),
                   *(st.lists(family, min_size=1, max_size=12) for family in _FAMILIES))


class TestWriteTableAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_TEXT, min_size=1, max_size=4, unique=True),
           st.lists(_POOLS, min_size=4, max_size=4),
           st.integers(1, 10_001), st.integers(0, 2**32 - 1))
    @example(["i", "x,y", "", " z"],
             [[1, 1.0, True], [None, "a,b", " "], [-0.0, 0.0, math.nan], ['"q"', "\n", ""]],
             10_001, 1)
    @example([""], [[None, "", "x,y"]], 3, 2)
    @example([""], [[None, ""]], 3, 4)
    # The schedule's columns: ints, step kinds, durations with a zero, sites or None.
    @example(["step_index", "kind", "duration_s", "site"],
             [[0, 1, 40007, 2**64], ["transport", "phase_gate", "readout"],
              [0.0, 0.01, 9.999999999999999e-06], [None, 0, 9999]],
             3000, 3)
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
    def test_defaults_are_feasible_near_published_intensity(self, tmp_path, run_cli):
        result = run_cli(["--out", str(tmp_path), "feasibility"])
        assert result.exit_code == 0
        meta = json.loads((tmp_path / "feasibility.meta.json").read_text())
        assert meta["feasible"] is True
        assert 0.5 < meta["intensity_kw_cm2"] / 20.0 < 2.0
        assert meta["binding_species"] == "Al_up"
        rows = read_table(tmp_path / "feasibility.csv")
        assert {r["species"] for r in rows} == {"Sr", "Al_up", "Al_down"}

    @pytest.mark.parametrize("delta,depth_factor,binding", [
        (0.25, 5.0, "Al_up"), (0.25, 12.0, "Al_up"), (0.05, 5.0, "Sr"),
    ])
    def test_binding_species_sits_at_the_depth_factor(self, tmp_path, run_cli, delta, depth_factor,
                                                      binding):
        # At the computed minimum intensity the binding species' worst-case
        # depth is exactly depth_factor recoils: the table's column and the
        # intensity requirement read the same worst-case phase.
        cfg = _write_config(tmp_path, {"lattice": {"intensity_kW_cm2": None, "delta": delta},
                                       "protocol": {"depth_factor": depth_factor}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "feasibility"])
        assert result.exit_code == 0, result.stderr
        assert json.loads((tmp_path / "o" / "feasibility.meta.json").read_text())["binding_species"] == binding
        row = next(r for r in read_table(tmp_path / "o" / "feasibility.csv") if r["species"] == binding)
        assert float(row["depth_worst_over_recoil"]) == pytest.approx(depth_factor, rel=1e-12)

    def test_head_states_of_one_name_keep_their_own_requirement(self, tmp_path, run_cli):
        # Requirements are kept per species entry: with both head states named "Al",
        # head_down's requirement once overwrote head_up's and the lattice came out too shallow.
        def feasibility(name, document):
            cfg = _write_config(tmp_path, document)
            assert run_cli(["--config", str(cfg), "--out", str(tmp_path / name), "feasibility"]).exit_code == 0
            meta = json.loads((tmp_path / name / "feasibility.meta.json").read_text())
            rows = read_table(tmp_path / name / "feasibility.csv")
            return meta["intensity_w_m2"], [row["required_intensity_w_m2"] for row in rows]

        assert feasibility("one-name", _species({1: {"name": "Al"}, 2: {"name": "Al"}})) == \
            feasibility("distinct", {})

    def test_infeasible_transport_exit_code(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {"species": [
            {"name": "Sr", "mass_amu": 87.9, "alpha_scalar_au": -470.0, "rho": 0.0,
             "role": "clock"},
            {"name": "A", "mass_amu": 27.0, "alpha_scalar_au": -340.0, "rho": -0.1,
             "role": "head_up"},
            {"name": "B", "mass_amu": 27.0, "alpha_scalar_au": -340.0, "rho": 0.84,
             "role": "head_down"},
        ]})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "feasibility"])
        assert result.exit_code == 4
        blob = json.loads(result.stderr)
        assert blob["error"] == "infeasible_transport"

    # The pinned clock's worst-case depth |U0+ - U0-| once lost its digits to cancellation: at
    # delta = 1e-9 Sr's minimum read 4.41e8 kW/cm^2 (3.39e9 exact), and at 1e-10 every
    # command exited 5, untrapped.
    @pytest.mark.parametrize("delta", [1e-9, 1e-10])
    def test_small_misbalance_binds_the_clock_at_its_exact_depth(self, tmp_path, run_cli, delta):
        cfg = _write_config(tmp_path, {"lattice": {"delta": delta}})
        for command in COMMANDS:
            result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
            assert (result.exit_code, result.stderr) == (0, ""), command
        meta = json.loads((tmp_path / "o" / "feasibility.meta.json").read_text())
        assert meta["binding_species"] == "Sr"
        assert meta["intensity_kw_cm2"] == pytest.approx(3.3886e9 * 1e-9 / delta, rel=1e-4)
        sr = next(row for row in read_table(tmp_path / "o" / "feasibility.csv") if row["species"] == "Sr")
        exact = (meta["intensity_w_m2"] * 470.0 * CODATA.polarizability_au_in_si * delta
                 / (2.0 * CODATA.vacuum_permittivity * CODATA.speed_of_light))
        assert float(sr["depth_worst_j"]) == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert float(sr["depth_worst_over_recoil"]) == pytest.approx(5.0, rel=1e-12)

    # A clock polarizability of -1e-150 au beside an explicit intensity once exited 5: its
    # depths squared underflowed. Its depth, about 1e-180 J, now traps it; its scattering
    # rate, with alpha^2, underflows, so a null lifetime cannot be computed and names its leaf.
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_near_zero_clock_polarizability_names_its_lifetime(self, tmp_path, run_cli, command):
        cfg = _write_config(tmp_path, {**_species({0: {"alpha_scalar_au": -1e-150}}),
                                       "lattice": {"intensity_kW_cm2": 22.0}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 2
        blob = json.loads(result.stderr)
        assert blob["field"] == "noise.tau_scatter_clock_s" and "infinite" in blob["message"]
        assert not (tmp_path / "o").exists()

    def test_a_near_zero_clock_polarizability_with_a_given_lifetime_runs(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {**_species({0: {"alpha_scalar_au": -1e-150}}),
                                       "lattice": {"intensity_kW_cm2": 22.0},
                                       "noise": {"tau_scatter_clock_s": 1.0}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "schedule"])
        assert (result.exit_code, result.stderr) == (0, "")
        assert json.loads((tmp_path / "o" / "schedule.meta.json").read_text())["tau_scatter_clock_s"] == 1.0


class TestScanCommand:
    def test_noiseless_three_atom_scan_matches_analytic(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {
            "protocol": {"n_atoms": 3, "ramsey_time_s": 0.5},
            "run": {"backend": "dense", "detuning_points": 41},
        })
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "scan"])
        assert result.exit_code == 0
        rows = read_table(tmp_path / "o" / "scan.csv")
        assert len(rows) == 41
        for row in rows:
            dw = float(row["detuning_rad_s"])
            expected = math.sin(3 * dw * 0.5 / 2) ** 2
            assert abs(float(row["p_up"]) - expected) < 1e-9

    def test_metadata_reports_gain(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {
            "protocol": {"n_atoms": 4, "ramsey_time_s": 0.25},
            "run": {"backend": "dense"},
        })
        run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "scan"])
        meta = json.loads((tmp_path / "o" / "scan.meta.json").read_text())
        assert meta["contrast"] == pytest.approx(1.0, abs=1e-6)
        assert meta["gain_over_sql"] == pytest.approx(2.0, rel=1e-6)

    def test_branch_scan_beyond_the_detuning_range_exits_2(self, tmp_path, run_cli):
        # Once ran, with a dense readout phase dw' T - N dw T that overflowed at the grid's
        # top end; both detunings now lie outside their range, the grid's end first.
        cfg = _write_config(tmp_path, {
            "run": {"backend": "branch", "detuning_min_rad_s": 0, "detuning_max_rad_s": 1e307,
                    "delta_omega_head_rad_s": -1.2e308},
            "protocol": {"ramsey_time_s": 1.0, "n_atoms": 12},
        })
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "scan"])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["field"] == "run.detuning_max_rad_s"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("points", [101, 11])
    def test_ramsey_time_below_its_range_exits_2(self, tmp_path, run_cli, points):
        # At T = 5e-324 the noisy fringe once fitted a contrast whose sensitivity and gain
        # left the float range, and read null; that T now lies below its range.
        cfg = _write_config(tmp_path, {
            "run": {"detuning_min_rad_s": 1.0, "detuning_max_rad_s": 1e150, "trajectories": 1000,
                    "detuning_points": points},
            "protocol": {"ramsey_time_s": 5e-324},
        })
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "scan"])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["field"] == "protocol.ramsey_time_s"
        assert not (tmp_path / "o").exists()


class TestSimulateCommand:
    def test_zero_atoms_fails_with_config_error(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {"protocol": {"n_atoms": 0}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
        assert result.exit_code == 2
        blob = json.loads(result.stderr)
        assert blob["error"] == "config"
        assert blob["field"] == "protocol.n_atoms"

    def test_no_interaction_exit_code(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {"protocol": {"a_scatt_au": 0.0}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
        assert result.exit_code == 6
        assert json.loads(result.stderr)["error"] == "no_interaction"

    def test_infeasible_transport_exit_code(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {"lattice": {"delta": 0.9}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
        assert result.exit_code == 4
        assert json.loads(result.stderr)["error"] == "infeasible_transport"

    def test_checkpoints_have_unit_fidelity(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {
            "protocol": {"n_atoms": 5, "ramsey_time_s": 0.1},
            "run": {"backend": "dense"},
        })
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
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
        # A branch state cannot expand itself; each checkpoint is contracted against its reference.
        assert not hasattr(BranchState, "to_vector")
        contracted = []

        def counted(branch, dense, contract=register._branch_dense_overlap):
            contracted.append((type(branch), type(dense)))
            return contract(branch, dense)

        monkeypatch.setattr(register, "_branch_dense_overlap", counted)
        cfg = parse_config({"protocol": {"n_atoms": 14}, "run": {"backend": "dense"}})
        run_command("simulate", cfg, tmp_path)
        rows = read_table(tmp_path / "simulate.csv")
        assert len(rows) == 5
        assert all(float(row["fidelity"]) >= 1.0 - 1e-14 for row in rows)
        assert contracted == [(BranchState, DenseState)] * 5

    @pytest.mark.parametrize("backend", register.BACKENDS)
    def test_simulate_checks_each_checkpoint_in_passing(self, tmp_path, backend):
        # No state can be copied, and each fidelity is the one of run_protocol's copy, bit for bit.
        assert not any(hasattr(cls, name) for cls in (DenseState, BranchState) for name in ("copy", "norm"))
        n = 7
        cfg = parse_config({"protocol": {"n_atoms": n}, "run": {"backend": backend}})
        run_command("simulate", cfg, tmp_path)
        meta = json.loads((tmp_path / "simulate.meta.json").read_text())
        protocol = (meta["delta_omega_rad_s"], meta["delta_omega_head_rad_s"], meta["ramsey_time_s"])
        result = run_protocol(n, backend, *protocol)
        references = register.protocol_references(n, *protocol)
        rows = read_table(tmp_path / "simulate.csv")
        assert [row["checkpoint"] for row in rows] == list(references) == list(result.checkpoints)
        assert [float(row["fidelity"]) for row in rows] == [
            register.state_fidelity(result.checkpoints[label], reference)
            for label, reference in references.items()
        ]
        assert meta["p_up"] == result.p_up


_TIMES_US = st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False)
# Atom numbers at and around the edges of the schedule's row templates:
# templates start at site 100, a site gains a digit at 1000, and pass 2
# starts at the odd step 2N + 5, which is 99 at N = 47 and 999 at N = 497.
_TEMPLATE_EDGES = [1, 47, 48, 49, 99, 100, 101, 497, 498, 499, 999, 1000, 1001]


def _streamed_schedule(schedule) -> TableText:
    return TableText(SCHEDULE_COLUMNS, schedule.n_steps, schedule_rows(schedule))


class TestScheduleCommand:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3000), _TIMES_US, _TIMES_US, _TIMES_US,
           st.just(0.0) | st.floats(min_value=1e-12, max_value=1.0))
    @example(3000, 1.5, 10.0, 0.25, 0.01)
    def test_table_matches_reference_expansion(self, n, gate_us, transport_us, pulse_us, ramsey):
        cfg = parse_config({"protocol": {
            "n_atoms": n, "gate_time_us": gate_us, "transport_time_us": transport_us,
            "pulse_time_us": pulse_us, "ramsey_time_s": ramsey,
        }})
        with tempfile.TemporaryDirectory() as out:
            run_command("schedule", cfg, out)
            with open(f"{out}/schedule.csv", newline="") as handle:
                text = handle.read()
        rows = reference_schedule_rows(resolve_physics(cfg).schedule)
        assert text == "step_index,kind,duration_s,site\n" + "".join(rows)

    @pytest.mark.parametrize("n", _TEMPLATE_EDGES)
    def test_streamed_table_matches_reference_writer(self, tmp_path, n):
        schedule = ProtocolSchedule(n, 6.283185307179586e-05, 1e-05, 0.01, 2.5e-07)
        rows = [dict(zip(SCHEDULE_COLUMNS, (i, *step)))
                for i, step in enumerate(reference_schedule_steps(schedule))]
        got = write_table(_streamed_schedule(schedule), tmp_path / "got.csv", metadata={"seed": 7})
        want = reference_write_table(rows, tmp_path / "want.csv", metadata={"seed": 7})
        assert got.read_bytes() == want.read_bytes()
        assert (tmp_path / "got.meta.json").read_bytes() == (tmp_path / "want.meta.json").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0), min_size=4, max_size=4))
    @example([1.2345678901234567e-100, 0.00012345678901234567, math.inf, 5e-324])
    def test_no_schedule_cell_needs_quoting(self, times):
        # Kinds are fixed words and step_index and site are ints; str of a
        # non-negative float holds no comma, quote or newline, nor either mark
        # of a row template, and takes at most the 23 characters the byte
        # bound assumes.
        marks = {_STEP_MARK.decode(), _SITE_MARK.decode()}
        assert all(len(str(t)) <= 23 and not set(str(t)) & (set(',"\n\r') | marks) for t in times)
        text = b"".join(schedule_rows(ProtocolSchedule(260, *times))).decode("ascii")
        assert '"' not in text and "\r" not in text and not set(text) & marks
        assert all(row.count(",") == 3 for row in text.splitlines())

    @pytest.mark.parametrize("n", [1, 260, 3000, SCHEDULE_MAX_ATOMS])
    def test_blocks_are_whole_rows_bounded_apart_from_n(self, n):
        # Each block is whole rows of whole runs, at least SCHEDULE_BLOCK_BYTES
        # long but the last, and under that plus its last run: a run is at most
        # 50 sites, 100 rows, so memory stays flat in N. At N <= 119408 no row
        # is longer than 49 bytes: six-digit step and site, 23-character duration.
        times = (1.2345678901234567e-100, 0.00012345678901234567, 0.01, 5e-324)
        blocks = list(schedule_rows(ProtocolSchedule(n, *times)))
        for index, block in enumerate(blocks):
            rows = block.splitlines(keepends=True)
            assert block.endswith(b"\n") and all(len(row) <= 49 for row in rows)
            assert index == len(blocks) - 1 or len(block) >= SCHEDULE_BLOCK_BYTES
            assert len(block) - len(b"".join(rows[-100:])) < SCHEDULE_BLOCK_BYTES
            assert len(block) < SCHEDULE_BLOCK_BYTES + 100 * 49

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3000),
           st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=4, max_size=4))
    @example(7, [6.283185307179586e-05, 1e-05, 0.01, 0.0])
    @example(3000, [1.2345678901234567e-100, 1e-05, 0.5, 3e-07])
    def test_closed_form_bytes_equal_the_file(self, n, times):
        schedule = ProtocolSchedule(n, *times)
        with tempfile.TemporaryDirectory() as out:
            size = write_table(_streamed_schedule(schedule), f"{out}/s.csv").stat().st_size
        assert size == schedule_table_bytes(n, *(len(str(t)) for t in times))

    def test_step_table_and_survival(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {"protocol": {"n_atoms": 3, "ramsey_time_s": 0.05}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "schedule"])
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
    def test_curve_and_metadata(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {
            "protocol": {"ramsey_time_s": 0.01},
            "optimize": {"n_min": 1, "n_max": 10000, "n_points": 40},
        })
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "optimize"])
        assert result.exit_code == 0
        meta = json.loads((tmp_path / "o" / "optimize.meta.json").read_text())
        assert meta["ramsey_time_s"] == 0.01
        rows = read_table(tmp_path / "o" / "optimize.csv")
        foms = [float(r["figure_of_merit"]) for r in rows]
        ns = [int(r["n_atoms"]) for r in rows]
        assert ns[foms.index(max(foms))] == meta["n_opt"]

    def test_transport_time_beyond_its_range_exits_2(self, tmp_path, run_cli):
        # Once ran, with grid durations 2N t_transport that overflowed to inf from about
        # N = 9e5 on; that transport time now lies above its range.
        cfg = _write_config(tmp_path, {"protocol": {"transport_time_us": 1e308},
                                       "optimize": {"n_max": 2**53}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "optimize"])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["field"] == "protocol.transport_time_us"
        assert not (tmp_path / "o").exists()


# All step times 0, so the schedule lasts 0 s, at the largest scattering rate the ranges allow.
ZERO_DURATION = {"protocol": {"ramsey_time_s": 0, "transport_time_us": 0, "gate_time_us": 0},
                 "noise": {"tau_scatter_clock_s": 1e-12}}


class TestZeroDurationSchedule:
    """No time, no event: a schedule of zero duration survives at any rate."""

    @pytest.mark.parametrize("command", ["schedule", "sweep", "optimize"])
    def test_survives_with_probability_one(self, tmp_path, run_cli, command):
        cfg = _write_config(tmp_path, ZERO_DURATION)
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 0 and result.stderr == ""
        table = (tmp_path / "o" / f"{command}.csv").read_text()
        meta = _strict_json((tmp_path / "o" / f"{command}.meta.json").read_text())
        assert "nan" not in table
        if command == "schedule":
            assert meta["survival"] == 1.0
        else:
            assert {row["survival"] for row in read_table(tmp_path / "o" / f"{command}.csv")} == {"1.0"}

    def test_noisy_scan_scatters_nothing(self, tmp_path, run_cli):
        document = _merge(ZERO_DURATION, {"run": {"detuning_min_rad_s": 0.0, "detuning_max_rad_s": 12.0}})
        cfg = _write_config(tmp_path, document)
        bundle = resolve_physics(parse_config(document))
        assert scatter_probability(bundle.schedule, bundle.decoherence) == 0.0
        for trajectories in ("0", "1000"):
            result = run_cli(["--config", str(cfg), "--out", str(tmp_path / trajectories),
                              "--trajectories", trajectories, "scan"])
            assert result.exit_code == 0 and result.stderr == ""
        assert (tmp_path / "1000" / "scan.csv").read_bytes() == (tmp_path / "0" / "scan.csv").read_bytes()


# Values for each sweepable leaf that enters the physics, with repeats, so that
# a sweep meets each trap input again, and signed zeros, which compare equal
# yet write apart. The lattice leaves, the scattering length and the depth
# factor key the trap; the gate time, lifetimes and loss rate are applied per
# point beside it, a lifetime keying the trap only by whether it is null.
TRAP_LEAF_VALUES = {
    "lattice.lambda_m_nm": [389.9, 400.0, 389.9],
    "lattice.intensity_kW_cm2": [None, 50.0, None],
    "lattice.delta": [0.25, 0.3, 0.25],
    "lattice.transverse_intensity_kW_cm2": [None, 10.0, None],
    "noise.tau_scatter_clock_s": [None, 2.0, None],
    "noise.tau_scatter_head_s": [None, 3.0, None],
    "noise.extra_loss_rate_per_s": [0.0, -0.0, 0.5, 0.0],
    "protocol.a_scatt_au": [100.0, -50.0, 100.0],
    "protocol.gate_time_us": [None, 0.0, -0.0, 20.0, 0.0],
    "protocol.depth_factor": [5.0, 2.0, 5.0],
}
SCHEDULE_LEAF_VALUES = {
    "protocol.n_atoms": [10, 1000, 10],
    "protocol.ramsey_time_s": [0.01, 0.1],
    "protocol.transport_time_us": [10.0, 0.0, -0.0],
    "protocol.pulse_time_us": [0.0, 5.0],
}
LEAF_VALUES = {**TRAP_LEAF_VALUES, **SCHEDULE_LEAF_VALUES}


class TestSweepCommand:
    def test_rows_follow_declared_product(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {
            "sweep": {"protocol.n_atoms": [2, 4], "protocol.ramsey_time_s": [0.01, 0.02, 0.05]},
        })
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "sweep"])
        assert result.exit_code == 0
        rows = read_table(tmp_path / "o" / "sweep.csv")
        assert len(rows) == 6
        seen = [(int(r["protocol.n_atoms"]), float(r["protocol.ramsey_time_s"])) for r in rows]
        assert seen == [(2, 0.01), (2, 0.02), (2, 0.05), (4, 0.01), (4, 0.02), (4, 0.05)]

    def test_empty_sweep_evaluates_base_config(self, tmp_path, run_cli):
        result = run_cli(["--out", str(tmp_path / "o"), "sweep"])
        assert result.exit_code == 0
        rows = read_table(tmp_path / "o" / "sweep.csv")
        assert len(rows) == 1

    def test_byte_identical_reruns(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {
            "sweep": {"protocol.n_atoms": [5, 50], "noise.extra_loss_rate_per_s": [0.0, 2.0]},
            "run": {"seed": 987},
        })
        run_cli(["--config", str(cfg), "--out", str(tmp_path / "a"), "sweep"])
        run_cli(["--config", str(cfg), "--out", str(tmp_path / "b"), "sweep"])
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("trap_key", TRAP_LEAF_VALUES)
    @pytest.mark.parametrize("schedule_key", SCHEDULE_LEAF_VALUES)
    @pytest.mark.parametrize("schedule_first", [False, True], ids=["trap-first", "schedule-first"])
    def test_shared_trap_writes_the_per_point_bytes(self, tmp_path, monkeypatch, trap_key,
                                                    schedule_key, schedule_first):
        # The reference resolves every point in full, from the whole-section re-parse.
        keys = [schedule_key, trap_key] if schedule_first else [trap_key, schedule_key]
        cfg = parse_config({"sweep": {key: LEAF_VALUES[key] for key in keys}})
        run_command("sweep", cfg, tmp_path / "shared")
        monkeypatch.setattr("screwclock.cli.apply_override", reference_apply_override)
        monkeypatch.setattr("screwclock.cli.resolve_physics", lambda cfg, **options: resolve_physics(cfg))
        run_command("sweep", cfg, tmp_path / "per-point")
        for name in ("sweep.csv", "sweep.meta.json"):
            assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "per-point" / name).read_bytes()

    def test_the_leaves_split_into_trap_and_schedule(self):
        # Every sweepable leaf that enters the physics is in one list above.
        assert set(LEAF_VALUES) | {"run.seed", "run.trajectories"} == _SWEEPABLE

    @pytest.mark.parametrize("order", [1, -1], ids=["delta-first", "n_atoms-first"])
    def test_equal_trap_inputs_share_one_trap(self, monkeypatch, order):
        # The benchmark's design sweep: 20 points over 5 distinct trap inputs.
        calls = []
        original = pipeline._trap_physics

        def counted(*inputs):
            calls.append(inputs)
            return original(*inputs)

        monkeypatch.setattr(pipeline, "_trap_physics", counted)
        sweep = [("lattice.delta", [0.15, 0.2, 0.25, 0.3, 0.35]),
                 ("protocol.n_atoms", [10, 100, 1000, 10000])]
        _, meta, _ = cli._cmd_sweep(parse_config({"sweep": dict(sweep[::order])}))
        assert meta["points"] == 20 and len(calls) == 5

    @pytest.mark.parametrize("order", [1, -1], ids=["gate-first", "delta-first"])
    def test_gate_times_and_lifetimes_share_the_trap_of_their_delta(self, tmp_path, monkeypatch, order):
        # The gate time, signed zeros included, and the given lifetimes and loss rate are
        # applied per point: one trap per delta, and the bytes of per-point resolution.
        calls = []
        original = pipeline._trap_physics

        def counted(*inputs):
            calls.append(inputs)
            return original(*inputs)

        monkeypatch.setattr(pipeline, "_trap_physics", counted)
        sweep = [("protocol.gate_time_us", [None, 0.0, -0.0, 20.0]),
                 ("noise.tau_scatter_clock_s", [2.0, 3.0]),
                 ("noise.extra_loss_rate_per_s", [0.0, -0.0, 0.5]),
                 ("lattice.delta", [0.2, 0.25, 0.2, 0.3])]
        cfg = parse_config({"sweep": dict(sweep[::order])})
        run_command("sweep", cfg, tmp_path / "shared")
        assert len(calls) == 3
        monkeypatch.setattr("screwclock.cli.apply_override", reference_apply_override)
        monkeypatch.setattr("screwclock.cli.resolve_physics", lambda cfg, **options: resolve_physics(cfg))
        run_command("sweep", cfg, tmp_path / "per-point")
        assert len(calls) == 3 + 96
        for name in ("sweep.csv", "sweep.meta.json"):
            assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "per-point" / name).read_bytes()
        rows = read_table(tmp_path / "shared" / "sweep.csv")
        assert {row["gate_time_s"] for row in rows if row["protocol.gate_time_us"] == "-0.0"} == {"-0.0"}

    def test_a_point_that_raises_stores_nothing(self, tmp_path, run_cli):
        traps = {}
        cfg = parse_config({"protocol": {"depth_factor": 0.0}})
        with pytest.raises(ConfigError, match="computed minimum intensity is zero") as excinfo:
            resolve_physics(cfg, traps=traps)
        assert excinfo.value.path == "protocol.depth_factor"
        assert traps == {}
        doc = _write_config(tmp_path, {"sweep": {"protocol.depth_factor": [5.0, 0.0]}})
        result = run_cli(["--config", str(doc), "--out", str(tmp_path / "o"), "sweep"])
        assert result.exit_code == 2
        blob = json.loads(result.stderr)
        assert blob["field"] == "protocol.depth_factor"
        assert "computed minimum intensity is zero" in blob["message"]
        assert not (tmp_path / "o").exists()

    # Each once ran into a total duration 2N (t_transport + t_gate) + T + 7 t_pulse beyond
    # the float range; each now holds a step time above its range, in the document or in
    # the sweep, which is parsed before any point runs.
    @pytest.mark.parametrize("command,document,field", [
        ("schedule", {"protocol": {"ramsey_time_s": 1.7976e308, "transport_time_us": 1e308}},
         "protocol.ramsey_time_s"),
        ("sweep", {"protocol": {"ramsey_time_s": 1.7976e308, "transport_time_us": 1e308}},
         "protocol.ramsey_time_s"),
        ("feasibility", {"protocol": {"n_atoms": MAX_ATOMS, "transport_time_us": 1e308}},
         "protocol.transport_time_us"),
        ("optimize", {"protocol": {"n_atoms": MAX_ATOMS, "gate_time_us": 1e308}},
         "protocol.gate_time_us"),
        ("sweep", {"protocol": {"transport_time_us": 1e308},
                   "sweep": {"protocol.n_atoms": [10, MAX_ATOMS, 20]}},
         "protocol.transport_time_us"),
        ("sweep", {"sweep": {"protocol.n_atoms": [10, MAX_ATOMS],
                             "protocol.ramsey_time_s": [0.01, 1.7976e308]}},
         "protocol.ramsey_time_s"),
    ], ids=["schedule-ramsey", "sweep-ramsey", "feasibility-transport", "optimize-gate",
            "sweep-point-transport", "sweep-value-ramsey"])
    def test_step_times_beyond_their_ranges_exit_before_any_point(self, tmp_path, run_cli,
                                                                  command, document, field):
        cfg = _write_config(tmp_path, document)
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 2
        blob = json.loads(result.stderr)
        assert (blob["error"], blob["field"]) == ("config", field)
        assert "must" in blob["message"] and "lie in [" in blob["message"]
        assert not (tmp_path / "o").exists()


class TestDeterminismAndErrors:
    def test_monte_carlo_scan_reruns_byte_identical(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {
            "protocol": {"n_atoms": 4, "ramsey_time_s": 0.05},
            "run": {"backend": "dense", "trajectories": 50, "seed": 11,
                    "detuning_points": 15},
        })
        run_cli(["--config", str(cfg), "--out", str(tmp_path / "a"), "scan"])
        run_cli(["--config", str(cfg), "--out", str(tmp_path / "b"), "scan"])
        assert (tmp_path / "a" / "scan.csv").read_bytes() == (tmp_path / "b" / "scan.csv").read_bytes()

    @pytest.mark.parametrize("sequence", [
        pytest.param([
            ("scan", {"protocol": {"n_atoms": 200}, "run": {"backend": "branch", "seed": 7,
                                                            "detuning_points": 21}}),
            ("simulate", {"protocol": {"n_atoms": 2000}, "run": {"backend": "branch", "seed": 7}}),
        ], id="spectroscopy"),
        # Each noisy point draws its scatter count on its own substream of the seed.
        pytest.param([
            ("scan", {"protocol": {"n_atoms": 12}, "run": {"backend": "dense", "trajectories": 10**6,
                                                           "seed": 7}}),
            ("simulate", {"protocol": {"n_atoms": 14}, "run": {"backend": "dense", "seed": 7}}),
        ], id="noisy_dense"),
        # The schedule runs to several of the writer's chunks.
        pytest.param([
            ("feasibility", {"run": {"seed": 7}}),
            ("schedule", {"protocol": {"n_atoms": 3000}, "run": {"seed": 7}}),
            ("optimize", {"run": {"seed": 7}}),
            ("sweep", {"sweep": {"lattice.delta": [0.2, 0.3], "protocol.n_atoms": [10, 1000]},
                       "run": {"seed": 7}}),
        ], id="design"),
    ])
    def test_spectroscopy_sequence_bytes_survive_a_fresh_interpreter(self, tmp_path, sequence):
        # A bench-shaped command sequence: twice in one interpreter, once in
        # another with a different hash seed. Outputs depend on (config, seed) alone.
        code = (
            "import json, sys\n"
            "from screwclock.config import parse_config\n"
            "from screwclock.cli import run_command\n"
            "for out in sys.argv[2:]:\n"
            "    for command, document in json.loads(sys.argv[1]):\n"
            "        run_command(command, parse_config(document), out)\n"
        )
        runs = [("1", ["a", "b"]), ("2", ["c"])]
        for hash_seed, outs in runs:
            result = run_python(["-c", code, json.dumps(sequence), *(str(tmp_path / o) for o in outs)],
                                timeout=120, env={"PYTHONHASHSEED": hash_seed})
            assert result.returncode == 0, result.stderr
        names = sorted(path.name for path in (tmp_path / "a").iterdir())
        assert names == sorted(command + suffix for command, _ in sequence
                               for suffix in (".csv", ".meta.json"))
        for name in names:
            first = (tmp_path / "a" / name).read_bytes()
            assert (tmp_path / "b" / name).read_bytes() == first, name
            assert (tmp_path / "c" / name).read_bytes() == first, name

    def test_trillion_trajectory_scan_tracks_survival(self, tmp_path, run_cli):
        # One binomial draw per point: 10^12 trajectories cost no more memory
        # than ten, and each mean sits within 5 sigma of S p + (1 - S) / 2.
        trajectories = 10**12
        doc = {"protocol": {"n_atoms": 4}, "run": {"backend": "dense"}}
        cfg = _write_config(tmp_path, doc)
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"),
                       "--trajectories", str(trajectories), "scan"])
        assert result.exit_code == 0
        bundle = resolve_physics(parse_config(doc))
        survival = survival_probability(bundle.schedule, bundle.decoherence)
        assert 0.0 < survival < 1.0
        meta = json.loads((tmp_path / "o" / "scan.meta.json").read_text())
        assert meta["trajectories_per_point"] == trajectories
        rows = read_table(tmp_path / "o" / "scan.csv")
        assert len(rows) == 101
        for row in rows:
            exact = math.sin(4 * float(row["detuning_rad_s"]) * bundle.schedule.ramsey_time / 2) ** 2
            expected = survival * exact + (1.0 - survival) / 2.0
            sigma = math.sqrt(survival * (1.0 - survival) / trajectories) * abs(exact - 0.5)
            assert abs(float(row["p_up"]) - expected) <= 5 * sigma + 1e-12

    def test_trajectories_beyond_int64_rejected(self, tmp_path, run_cli):
        too_many = 2**63
        cfg = _write_config(tmp_path, {"run": {"trajectories": too_many}})
        for args in (["--config", str(cfg)], ["--trajectories", str(too_many)]):
            result = run_cli([*args, "--out", str(tmp_path / "o"), "scan"])
            assert result.exit_code == 2
            blob = json.loads(result.stderr)
            assert blob["error"] == "config"
            assert blob["field"] == "run.trajectories"
        assert not (tmp_path / "o").exists()

    def test_negative_seed_rejected(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {"run": {"seed": -3}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "schedule"])
        assert result.exit_code == 2

    def test_undefined_transport_delta_exit_code(self, tmp_path, run_cli):
        # delta = 0 leaves the transport criteria undefined: rejected with the config.
        cfg = _write_config(tmp_path, {"lattice": {"delta": 0.0}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "feasibility"])
        assert result.exit_code == 2
        blob = json.loads(result.stderr)
        assert (blob["error"], blob["field"]) == ("config", "lattice.delta")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,document", [
        ("schedule", {"lattice": {"delta": -0.25}}),
        ("sweep", {"sweep": {"lattice.delta": [0.25, -0.1]}}),
    ], ids=["negative", "sweep-value"])
    def test_nonpositive_transport_delta_exit_code(self, tmp_path, run_cli, command, document):
        # The transport criteria are defined for delta > 0 only, in a sweep as well.
        cfg = _write_config(tmp_path, document)
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 2
        blob = json.loads(result.stderr)
        assert (blob["error"], blob["field"]) == ("config", "lattice.delta")
        assert not (tmp_path / "o").exists()

    def test_untrapped_clock_exit_code(self, tmp_path, run_cli):
        # A clock species with zero polarizability cannot be pinned.
        cfg = _write_config(tmp_path, {"species": [
            {"name": "ghost", "mass_amu": 87.9, "alpha_scalar_au": 0.0, "rho": 0.0,
             "role": "clock"},
            {"name": "A", "mass_amu": 27.0, "alpha_scalar_au": -340.0, "rho": -1.25,
             "role": "head_up"},
            {"name": "B", "mass_amu": 27.0, "alpha_scalar_au": -340.0, "rho": 0.84,
             "role": "head_down"},
        ]})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "feasibility"])
        assert result.exit_code == 5
        assert json.loads(result.stderr)["error"] == "untrapped"

    def test_no_interaction_exit_code(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {"protocol": {"a_scatt_au": 0.0}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "schedule"])
        assert result.exit_code == 6
        assert json.loads(result.stderr)["error"] == "no_interaction"

    @pytest.mark.parametrize("section,key,token", [
        ("lattice", "delta", "NaN"),
        ("protocol", "ramsey_time_s", "Infinity"),
        ("protocol", "a_scatt_au", "NaN"),
        ("noise", "extra_loss_rate_per_s", "1" + "0" * 400),
    ])
    def test_non_finite_config_value_exit_code(self, tmp_path, section, key, token, run_cli):
        cfg = tmp_path / "config.json"
        cfg.write_text(f'{{"{section}": {{"{key}": {token}}}}}')
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "schedule"])
        assert result.exit_code == 2
        blob = json.loads(result.stderr)
        assert blob["error"] == "config"
        assert blob["field"] == f"{section}.{key}"
        assert not (tmp_path / "o").exists()

    def test_unwritable_output_exit_code(self, tmp_path, run_cli):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        result = run_cli(["--out", str(blocker / "o"), "feasibility"])
        assert result.exit_code == 1
        blob = json.loads(result.stderr)
        assert blob["error"] == "error"
        assert str(blocker) in blob["message"]

    def test_register_capacity_exit_code(self, tmp_path, run_cli):
        cfg = _write_config(tmp_path, {
            "protocol": {"n_atoms": 30},
            "run": {"backend": "dense"},
        })
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
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
    def test_atom_number_beyond_2_53_exit_code(self, tmp_path, command, document, field, run_cli):
        cfg = _write_config(tmp_path, document)
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 2
        blob = json.loads(result.stderr)
        assert blob["error"] == "config"
        assert blob["field"] == field
        assert not (tmp_path / "o").exists()

    @_LINUX_RSS
    def test_schedule_bound_is_the_table_budget(self, tmp_path):
        # The largest N whose worst-case table fits the file budget.
        assert schedule_table_bytes(SCHEDULE_MAX_ATOMS) <= SCHEDULE_MAX_BYTES
        assert schedule_table_bytes(SCHEDULE_MAX_ATOMS + 1) > SCHEDULE_MAX_BYTES
        # The table streams, so peak RSS does not grow with N: the growth of
        # `schedule` at the bound over a one-atom run in the same process is
        # at most 1 MiB, under 9 B per atom.
        growth = _peak_growth(tmp_path, "schedule", {"protocol": {"n_atoms": 1}},
                              {"protocol": {"n_atoms": SCHEDULE_MAX_ATOMS}})
        assert growth <= 2**20

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
        assert not (tmp_path / "o").exists()

    def test_schedule_at_table_budget_runs(self, tmp_path):
        cfg = _write_config(tmp_path, {"protocol": {"n_atoms": SCHEDULE_MAX_ATOMS}})
        result = run_python(["-m", "screwclock.cli", "--config", str(cfg),
                             "--out", str(tmp_path / "o"), "schedule"], timeout=120)
        assert result.returncode == 0, result.stderr
        meta = json.loads((tmp_path / "o" / "schedule.meta.json").read_text())
        assert meta["rows"] == 4 * SCHEDULE_MAX_ATOMS + 8
        size = (tmp_path / "o" / "schedule.csv").stat().st_size
        times = (meta["gate_time_s"], meta["transport_time_s"], meta["ramsey_time_s"],
                 meta["config"]["protocol"]["pulse_time_us"] * 1e-6)
        assert size == schedule_table_bytes(SCHEDULE_MAX_ATOMS, *(len(str(t)) for t in times))
        assert size <= SCHEDULE_MAX_BYTES

    @pytest.mark.parametrize("command", ["scan", "sweep"])
    def test_non_clock_error_exit_code(self, tmp_path, monkeypatch, command, run_cli):
        def fail(cfg, **options):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr("screwclock.cli.resolve_physics", fail)
        result = run_cli(["--out", str(tmp_path / "o"), command])
        assert result.exit_code == 1
        blob = json.loads(result.stderr)
        assert blob == {"error": "error", "message": "ZeroDivisionError: injected"}


class TestRunCommandLibrary:
    def test_unknown_command_rejected(self, tmp_path):
        with pytest.raises(ClockSimError):
            run_command("explode", parse_config(None), tmp_path)

    def test_seed_override_flows_to_metadata(self, tmp_path, run_cli):
        result = run_cli(["--out", str(tmp_path / "o"), "--seed", "31337", "schedule"])
        assert result.exit_code == 0
        meta = json.loads((tmp_path / "o" / "schedule.meta.json").read_text())
        assert meta["seed"] == 31337


_EXAMPLE_SUMMARIES = {
    "feasibility": "feasible=True intensity=22.2 kW/cm^2 (binding: Al_up)",
    "schedule": "408 steps, total 0.0155167 s, survival 0.8487",
    "simulate": "p_up=0.500000 (ideal 0.500000), chi=1.5708 rad",
    "scan": "101 points, contrast 1.0000, period 6.283185307179586",  # repr(2 pi) = 2 pi / (N T)
    "optimize": "optimal atom number 236 (ramsey time 0.01 s)",
    "sweep": "swept 1 points over the base configuration",
}


class TestOutputContract:
    """Each command writes <command>.csv and its sidecar and prints one summary line."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_table_one_sidecar_one_summary_line(self, tmp_path, run_cli, command):
        result = run_cli(["--config", str(ROOT / "config.example.json"), "--out", str(tmp_path), command])
        assert result.exit_code == 0, result.stderr
        assert result.stdout == _EXAMPLE_SUMMARIES[command] + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{command}.csv", f"{command}.meta.json"]
        meta = json.loads((tmp_path / f"{command}.meta.json").read_text())
        assert (meta["command"], meta["tool_version"], meta["seed"]) == (command, __version__, 12345)
        assert meta["config_hash"] == serialized_hash(meta["config"])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_run_command_returns_the_table_path(self, tmp_path, capsys, command):
        cfg = parse_config(ROOT / "config.example.json")
        assert run_command(command, cfg, tmp_path / "o") == tmp_path / "o" / f"{command}.csv"
        assert capsys.readouterr().out == _EXAMPLE_SUMMARIES[command] + "\n"


def _species(changes: dict[int, dict]) -> dict:
    """The default species list with entry i's leaves replaced by ``changes[i]``."""
    species = serialize_config(parse_config(None))["species"]
    for index, leaves in changes.items():
        species[index].update(leaves)
    return {"species": species}


_DETUNING_RANGE = {"run": {"detuning_min_rad_s": 0.0, "detuning_max_rad_s": 12.0}}

# One valid change per config leaf, as (context, change): the context goes into
# both runs, the change into the second only. A new leaf must be added here.
_LEAF_CHANGES = {
    "species.name": ({}, _species({0: {"name": "Sr88"}})),
    "species.mass_amu": ({}, _species({0: {"mass_amu": 88.0}})),
    "species.alpha_scalar_au": ({}, _species({0: {"alpha_scalar_au": -480.0}})),
    "species.rho": ({}, _species({1: {"rho": -1.3}})),
    "species.role": ({}, _species({1: {"role": "head_down"}, 2: {"role": "head_up"}})),
    "lattice.lambda_m_nm": ({}, {"lattice": {"lambda_m_nm": 400.0}}),
    "lattice.intensity_kW_cm2": ({}, {"lattice": {"intensity_kW_cm2": 30.0}}),
    "lattice.delta": ({}, {"lattice": {"delta": 0.3}}),
    "lattice.transverse_intensity_kW_cm2": ({}, {"lattice": {"transverse_intensity_kW_cm2": 30.0}}),
    "protocol.n_atoms": ({}, {"protocol": {"n_atoms": 50}}),
    "protocol.ramsey_time_s": ({}, {"protocol": {"ramsey_time_s": 0.02}}),
    "protocol.a_scatt_au": ({}, {"protocol": {"a_scatt_au": 120.0}}),
    "protocol.transport_time_us": ({}, {"protocol": {"transport_time_us": 20.0}}),
    "protocol.gate_time_us": ({}, {"protocol": {"gate_time_us": 15.0}}),
    "protocol.pulse_time_us": ({}, {"protocol": {"pulse_time_us": 1.0}}),
    "protocol.depth_factor": ({}, {"protocol": {"depth_factor": 6.0}}),
    "noise.tau_scatter_clock_s": ({}, {"noise": {"tau_scatter_clock_s": 5.0}}),
    "noise.tau_scatter_head_s": ({}, {"noise": {"tau_scatter_head_s": 5.0}}),
    "noise.extra_loss_rate_per_s": ({}, {"noise": {"extra_loss_rate_per_s": 1.0}}),
    "run.backend": ({"protocol": {"n_atoms": 10}}, {"run": {"backend": "dense"}}),
    "run.trajectories": ({}, {"run": {"trajectories": 1000}}),
    # With trajectories, so that the seed must move the scan's draws.
    "run.seed": ({"run": {"trajectories": 1000}}, {"run": {"seed": 7}}),
    "run.detuning_min_rad_s": (_DETUNING_RANGE, {"run": {"detuning_min_rad_s": 0.5}}),
    "run.detuning_max_rad_s": (_DETUNING_RANGE, {"run": {"detuning_max_rad_s": 15.0}}),
    "run.detuning_points": ({}, {"run": {"detuning_points": 51}}),
    "run.delta_omega_rad_s": ({}, {"run": {"delta_omega_rad_s": 1.0}}),
    "run.delta_omega_head_rad_s": ({}, {"run": {"delta_omega_head_rad_s": 0.1}}),
    "optimize.n_min": ({}, {"optimize": {"n_min": 2}}),
    "optimize.n_max": ({}, {"optimize": {"n_max": 5000}}),
    "optimize.n_points": ({}, {"optimize": {"n_points": 30}}),
}


def _merge(base: dict, change: dict) -> dict:
    """``base`` with ``change`` laid over it, section by section; lists are replaced whole."""
    merged = {key: dict(value) if isinstance(value, dict) else value for key, value in base.items()}
    for key, value in change.items():
        merged[key] = {**merged.get(key, {}), **value} if isinstance(value, dict) else value
    return merged


class TestEveryLeafReachesAnOutput:
    """A leaf that changes no output is an input that nothing reads."""

    def test_every_leaf_has_a_change(self):
        leaves = {f"{name}.{leaf.name}" for name, cls in _SECTIONS.items() for leaf in fields(cls)}
        leaves |= {f"species.{leaf.name}" for leaf in fields(SpeciesEntry)}
        assert set(_LEAF_CHANGES) == leaves

    @staticmethod
    def _outcomes(run_cli, document) -> dict:
        """Per command: exit code, summary line, CSV bytes and the sidecar less its config echo."""
        parse_config(document)  # a change must be valid: a rejection proves no leaf is read
        outcomes = {}
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(document))
            for command in COMMANDS:
                out = Path(tmp) / command
                result = run_cli(["--config", str(config), "--out", str(out), command])
                csv_path, meta_path = out / f"{command}.csv", out / f"{command}.meta.json"
                meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
                for key in ("config", "config_hash", "seed"):
                    meta.pop(key, None)
                csv_bytes = csv_path.read_bytes() if csv_path.exists() else None
                outcomes[command] = (result.exit_code, result.stdout, csv_bytes, meta)
        return outcomes

    @pytest.mark.parametrize("leaf", sorted(_LEAF_CHANGES))
    def test_leaf_moves_some_command(self, run_cli, leaf):
        context, change = _LEAF_CHANGES[leaf]
        before = self._outcomes(run_cli, context)
        after = self._outcomes(run_cli, _merge(context, change))
        assert [c for c in COMMANDS if before[c] != after[c]], f"{leaf} moved no command"


class TestMemoryBudgets:
    """The `scan` and `optimize` points bounds, derived from one memory budget.

    Branch memory, cost and rounding do not grow with N, so branch commands
    take every N the config does, up to 2^53.
    """

    @pytest.fixture
    def refuse_build(self, monkeypatch):
        """Fail with exit 1 where a command would start building: past every bound."""
        def built(cfg, **options):
            raise ZeroDivisionError("built")

        monkeypatch.setattr("screwclock.cli.resolve_physics", built)

    def test_bounds_fill_the_budget(self):
        assert SCAN_MAX_POINTS * SCAN_POINT_BYTES <= MEMORY_BUDGET_BYTES
        assert OPTIMIZE_MAX_POINTS * OPTIMIZE_POINT_BYTES <= MEMORY_BUDGET_BYTES
        assert SWEEP_MAX_POINTS * SWEEP_POINT_BYTES <= MEMORY_BUDGET_BYTES
        # Far above the benchmark's branch N = 10^4 and 101-point scans.
        assert MAX_ATOMS == 2**53 and SCAN_MAX_POINTS > 1000 * 101

    def test_branch_scan_cost_per_atom_point_is_near_the_measured_one(self):
        # A branch scan point costs the same at any N, so the per-point cost
        # measured at N = 10^2 holds at 10^5 and no atom-point time bound is kept.
        grid = np.linspace(0.0, 1.0, 10)

        def best_time(n):
            # Best of 5 batches of 10 scans; timeit holds the garbage collector off meanwhile.
            return min(timeit.repeat(lambda: fringe_scan(n, 0.01, grid / n, backend="branch"),
                                     number=10, repeat=5))

        # 1000x the atoms: a cost linear in N would take about 1000x the time.
        ratio = best_time(10**5) / best_time(10**2)
        assert ratio < 4.0, ratio

    @_LINUX_RSS
    @pytest.mark.parametrize("command,small,large,units,unit_bytes", [
        ("scan", {"protocol": {"n_atoms": 1}, "run": {"detuning_points": 2}},
         {"protocol": {"n_atoms": 1}, "run": {"detuning_points": 10_000}}, 10_000, SCAN_POINT_BYTES),
        # At the dense cap, a per-point temporary that grew with N would not fit.
        ("scan", {"protocol": {"n_atoms": 14}, "run": {"backend": "dense", "detuning_points": 2}},
         {"protocol": {"n_atoms": 14}, "run": {"backend": "dense", "detuning_points": 10_000}},
         10_000, SCAN_POINT_BYTES),
        # n_max = 2^53 keeps every grid point a distinct N.
        ("optimize", {"optimize": {"n_max": 2**53, "n_points": 2}},
         {"optimize": {"n_max": 2**53, "n_points": 10**5}}, 10**5, OPTIMIZE_POINT_BYTES),
        # Every point a distinct trap input, so no point shares another's trap physics.
        ("sweep", {"sweep": {"lattice.delta": [0.25]}},
         {"sweep": {"lattice.delta": [0.1 + 0.6 * i / 10**4 for i in range(10**4)]}}, 10**4,
         SWEEP_POINT_BYTES),
    ], ids=["scan-points", "dense-scan-points", "optimize-points", "sweep-points"])
    def test_growth_within_twice_the_measured_bytes(self, tmp_path, command, small, large,
                                                    units, unit_bytes):
        assert _peak_growth(tmp_path, command, small, large) <= 2 * units * unit_bytes

    def test_dense_readout_allocates_per_point_and_per_clock_index(self):
        # The bytes the dense readout allocates at its peak, at the cap: 32 per clock
        # index (the reversed, conjugated down half and its product with the up half)
        # and 96 per point (six float or complex arrays over the grid); measured
        # 9.86 MB at 10^5 points, 0.53 MB at one. A per-point temporary that grows with
        # N, such as an exp(2i outer(theta, k)) matrix of 240 B per point, exceeds twice that.
        state = register.prepare_ghz(register.init_register(register.DENSE_ATOM_CAP, "dense"))
        for points in (1, 10**5):
            grid = np.linspace(-1.0, 1.0, points)
            state.fringe_readout(grid, 0.1, 0.5)  # caches filled outside the trace
            tracemalloc.start()
            try:
                state.fringe_readout(grid, 0.1, 0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * (32 * 2**register.DENSE_ATOM_CAP + 96 * points), (points, peak)

    @_LINUX_RSS
    @pytest.mark.parametrize("command", ["simulate", "scan"])
    def test_branch_peak_rss_does_not_grow_with_n(self, tmp_path, command):
        # Measured: 0-68 KiB, a few pages, from N = 1 to the bound 2^53.
        small = {"protocol": {"n_atoms": 1}, "run": {"detuning_points": 4}}
        large = {"protocol": {"n_atoms": MAX_ATOMS}, "run": {"detuning_points": 4}}
        assert _peak_growth(tmp_path, command, small, large) <= 2**20

    def test_branch_commands_at_the_bound_meet_the_fringe_law(self, tmp_path, run_cli):
        # Within 2 eps (1 + |chi|): the rounding of chi = N dw T, at any N.
        eps = np.finfo(float).eps
        doc = {"protocol": {"n_atoms": MAX_ATOMS}, "run": {"backend": "branch"}}
        cfg = _write_config(tmp_path, doc)
        for command in ("simulate", "scan"):
            result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
            assert result.exit_code == 0, result.stderr
        meta = json.loads((tmp_path / "o" / "simulate.meta.json").read_text())
        assert abs(meta["p_up"] - meta["p_up_ideal"]) <= 2 * eps * (1 + abs(meta["chi_rad"]))
        ramsey_time = json.loads((tmp_path / "o" / "scan.meta.json").read_text())["ramsey_time_s"]
        rows = read_table(tmp_path / "o" / "scan.csv")
        assert len(rows) == 101
        for row in rows:
            chi = MAX_ATOMS * float(row["detuning_rad_s"]) * ramsey_time
            assert abs(float(row["p_up"]) - math.sin(chi / 2) ** 2) <= 2 * eps * (1 + abs(chi))
        noisy = run_cli(["--config", str(cfg), "--out", str(tmp_path / "noisy"),
                         "--trajectories", "1000000", "scan"])
        assert noisy.exit_code == 0, noisy.stderr

    @pytest.mark.parametrize("command,document,field", [
        ("simulate", {"protocol": {"n_atoms": MAX_ATOMS + 1}}, "protocol.n_atoms"),
        ("scan", {"protocol": {"n_atoms": MAX_ATOMS + 1}}, "protocol.n_atoms"),
        ("scan", {"run": {"detuning_points": SCAN_MAX_POINTS + 1}}, "run.detuning_points"),
        ("scan", {"run": {"detuning_points": 10**8}}, "run.detuning_points"),
        ("optimize", {"optimize": {"n_points": OPTIMIZE_MAX_POINTS + 1}}, "optimize.n_points"),
        # Configs whose derived detunings once overflowed the float range: the grid's span,
        # the default grid's and probe's 1 / T, an explicit probe's Ramsey phase N dw T, and
        # with chi finite (here 0), a per-site phase dw T or dw' T. Each now holds a leaf
        # outside its range, and the parser names the first: sections in document order
        # (protocol before run), leaves in declared order.
        ("scan", {"run": {"detuning_min_rad_s": -1e308, "detuning_max_rad_s": 1e308}},
         "run.detuning_min_rad_s"),
        ("scan", {"protocol": {"ramsey_time_s": 1e-320}}, "protocol.ramsey_time_s"),
        ("simulate", {"protocol": {"ramsey_time_s": 1e-320}}, "protocol.ramsey_time_s"),
        ("simulate", {"run": {"delta_omega_rad_s": 1e308}}, "run.delta_omega_rad_s"),
        ("simulate", {"run": {"delta_omega_rad_s": 1e300, "delta_omega_head_rad_s": -1e302,
                              "backend": "branch"}, "protocol": {"ramsey_time_s": 1e10}},
         "protocol.ramsey_time_s"),
        ("simulate", {"run": {"delta_omega_rad_s": -1e298, "delta_omega_head_rad_s": 1e300,
                              "backend": "branch"}, "protocol": {"ramsey_time_s": 1e10}},
         "protocol.ramsey_time_s"),
        # A scan's Ramsey phases at the ends of its grid.
        ("scan", {"run": {"detuning_min_rad_s": 0, "detuning_max_rad_s": 1e300},
                  "protocol": {"ramsey_time_s": 1e10}}, "protocol.ramsey_time_s"),
        ("scan", {"run": {"detuning_min_rad_s": -1e300, "detuning_max_rad_s": 1.0},
                  "protocol": {"ramsey_time_s": 1e10}}, "protocol.ramsey_time_s"),
        ("scan", {"run": {"delta_omega_head_rad_s": 1e300}, "protocol": {"ramsey_time_s": 1e10}},
         "protocol.ramsey_time_s"),
        ("scan", {"protocol": {"n_atoms": MAX_ATOMS, "ramsey_time_s": 1},
                  "run": {"detuning_min_rad_s": 0, "detuning_max_rad_s": 1e300, "backend": "branch"}},
         "run.detuning_max_rad_s"),
        # The fringe readouts' own phases at the grid's ends: the doubled clock phase 2 dw T,
        # and the dense readout's dw' T - N dw T, here at chi = 0.
        ("scan", {"run": {"detuning_min_rad_s": -1e300, "detuning_max_rad_s": 1.797e308},
                  "protocol": {"ramsey_time_s": 1.0, "n_atoms": 1}}, "run.detuning_min_rad_s"),
        ("scan", {"run": {"backend": "dense", "detuning_min_rad_s": 0, "detuning_max_rad_s": 1e307,
                          "delta_omega_head_rad_s": -1.2e308},
                  "protocol": {"ramsey_time_s": 1.0, "n_atoms": 12}}, "run.detuning_max_rad_s"),
        # No Ramsey time to place the default grid or probe by.
        ("scan", {"protocol": {"ramsey_time_s": 0}}, "protocol.ramsey_time_s"),
        ("simulate", {"protocol": {"ramsey_time_s": 0}}, "protocol.ramsey_time_s"),
        # A leaf outside its declared range, at parse time. Each once exited 1: the mass
        # underflowed the recoil energy to 0, so the scattering rate divided by zero; the
        # wavelength overflowed the recoil energy's square; the polarizability overflowed
        # the square in feasibility's scattering time.
        *((command, _species({0: {"mass_amu": 1e300}}), "species[0].mass_amu") for command in COMMANDS),
        *((command, {"lattice": {"lambda_m_nm": 1e-300}}, "lattice.lambda_m_nm") for command in COMMANDS),
        ("feasibility", _species({2: {"alpha_scalar_au": 1e300}}), "species[2].alpha_scalar_au"),
        # The product of the list lengths, before any point is built.
        ("sweep", {"sweep": {"run.seed": [0] * (SWEEP_MAX_POINTS + 1)}}, "sweep"),
        ("sweep", {"sweep": {"lattice.delta": [0.25] * 1000, "protocol.n_atoms": [10] * 1000}},
         "sweep"),
    ], ids=["simulate-bound+1", "scan-bound+1", "points-bound+1", "points-1e8",
            "optimize-points-bound+1", "scan-span-overflow", "scan-grid-overflow",
            "simulate-probe-overflow", "simulate-phase-overflow", "simulate-clock-phase-overflow",
            "simulate-head-phase-overflow", "scan-clock-phase-overflow",
            "scan-lower-end-phase-overflow", "scan-head-phase-overflow", "scan-ramsey-phase-overflow",
            "scan-doubled-clock-phase-overflow", "scan-dense-readout-phase-overflow",
            "scan-zero-ramsey-time", "simulate-zero-ramsey-time",
            *(f"{command}-mass-range" for command in COMMANDS),
            *(f"{command}-wavelength-range" for command in COMMANDS), "feasibility-alpha-range",
            "sweep-bound+1",
            "sweep-1000x1000"])
    def test_beyond_budget_exits_before_building(self, tmp_path, refuse_build, run_cli,
                                                 command, document, field):
        cfg = _write_config(tmp_path, document)
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 2
        blob = json.loads(result.stderr)
        assert (blob["error"], blob["field"]) == ("config", field)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,document", [
        ("simulate", {"protocol": {"n_atoms": MAX_ATOMS}}),
        ("scan", {"protocol": {"n_atoms": MAX_ATOMS}}),
        ("simulate", {"protocol": {"n_atoms": 10**8}}),
        ("scan", {"run": {"detuning_points": SCAN_MAX_POINTS}}),
        ("simulate", {"protocol": {"n_atoms": 10**8}, "run": {"backend": "dense"}}),
        ("scan", {"protocol": {"n_atoms": MAX_ATOMS},
                  "run": {"detuning_points": SCAN_MAX_POINTS}}),
        ("optimize", {"optimize": {"n_points": OPTIMIZE_MAX_POINTS}}),
        ("sweep", {"sweep": {"run.seed": [0] * SWEEP_MAX_POINTS}}),
    ], ids=["simulate-at-bound", "scan-at-bound", "simulate-1e8", "points-at-bound",
            "dense-is-capped-elsewhere", "atoms-and-points-at-bound", "optimize-points-at-bound",
            "sweep-at-bound"])
    def test_within_budget_goes_on_to_build(self, tmp_path, refuse_build, run_cli, command, document):
        cfg = _write_config(tmp_path, document)
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["message"] == "ZeroDivisionError: built"


def _readme_exit_codes() -> dict[int, str]:
    """Exit code -> error id, from the README's exit-code table ('' for success)."""
    codes = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 3 and cells[0].isdigit():
            codes[int(cells[0])] = cells[2].strip("`")
    return codes


def _assert_error_blob(result, exit_codes) -> dict:
    """One JSON object on one stderr line, its id the README's for the exit code."""
    assert result.exit_code in exit_codes and result.exit_code != 0
    assert "Traceback" not in result.stderr
    assert result.stderr.endswith("\n") and result.stderr.count("\n") == 1, result.stderr
    blob = json.loads(result.stderr)
    assert blob["error"] == exit_codes[result.exit_code]
    assert isinstance(blob["message"], str)
    return blob


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestFrontDoor:
    """`main(argv)`: argparse usage errors keep the JSON error contract."""

    @pytest.mark.parametrize("argv,field", [
        (["--seed", "x", "scan"], "--seed"),
        (["--backend", "foo", "scan"], "--backend"),
        (["--config", "/nonexistent/config.json", "scan"], "--config"),
        (["--config", "{tmp}", "scan"], "--config"),
        (["--bogus", "scan"], "--bogus"),
        (["scan", "extra"], "command"),
        ([], "command"),
        (["explode"], "command"),
        (["scan", "--seed", "3"], "--seed"),  # options go before the command
        (["--trajectories", "1e3", "scan"], "--trajectories"),
        (["--jobs", "x", "sweep"], "--jobs"),
        (["--jobs=1", "sweep"], "--jobs"),  # the option is gone, whatever its value
        (["--seed"], "--seed"),
        (["--out", "{tmp}/config.json", "scan"], "--out"),
    ], ids=["seed-not-int", "unknown-backend", "missing-config", "config-is-directory",
            "unknown-option", "extra-argument", "no-command", "unknown-command",
            "option-after-command", "trajectories-not-int", "jobs-not-int",
            "jobs-removed", "option-without-value",
            "out-is-a-file"])
    def test_usage_error_is_one_json_line(self, tmp_path, run_cli, argv, field):
        _write_config(tmp_path, {})
        argv = ["--out", str(tmp_path / "o")] + [a.replace("{tmp}", str(tmp_path)) for a in argv]
        result = run_cli(argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        blob = _assert_error_blob(result, _readme_exit_codes())
        assert (blob["error"], blob["field"]) == ("config", field)
        assert blob["message"].startswith(f"{field}: ")
        assert not (tmp_path / "o").exists()

    def test_help_and_version_exit_0(self, run_cli):
        version = run_cli(["--version"])
        assert (version.exit_code, version.stdout, version.stderr) == (0, "screwclock, version 0.1.0\n", "")
        top = run_cli(["--help"])
        assert top.exit_code == 0 and top.stderr == ""
        assert top.stdout.startswith("usage: screwclock ")
        assert all(command in top.stdout for command in COMMANDS)
        for option in ("--config", "--out", "--seed", "--backend", "--trajectories"):
            assert option in top.stdout
        assert "--jobs" not in top.stdout
        command = run_cli(["scan", "--help"])
        assert command.exit_code == 0 and command.stdout.startswith("usage: screwclock scan")

    def test_module_entry_point_exits_with_main_code(self, tmp_path):
        usage = run_python(["-m", "screwclock.cli", "--seed", "x", "scan"], timeout=60)
        assert usage.returncode == 2
        assert usage.stderr.count("\n") == 1 and json.loads(usage.stderr)["field"] == "--seed"
        version = run_python(["-m", "screwclock.cli", "--version"], timeout=60)
        assert (version.returncode, version.stdout) == (0, "screwclock, version 0.1.0\n")

    def test_readme_lists_every_error_class(self):
        from screwclock import errors

        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.ClockSimError)]
        assert {c.exit_code: c.code for c in classes} == {
            code: name for code, name in _readme_exit_codes().items() if code
        }


# Each species' own float fields, as (entry, field): the clock's rho is exactly 0.
_SPECIES_FIELDS = [(i, key) for key in ("mass_amu", "alpha_scalar_au") for i in range(3)]
_SPECIES_FIELDS += [(1, "rho"), (2, "rho")]

# Config leaves with values that pass and values that fail; each run stays small. Every
# float leaf's range is drawn at its ends and one float past each, a species field on its
# entry in the whole species list.
_LEAVES = {
    **{tuple(leaf.split(".")): st.sampled_from(range_edges(leaf)) for leaf in FLOAT_RANGES
       if not leaf.startswith("species.")},
    ("species", None): st.sampled_from([_species({i: {key: value}})["species"] for i, key in _SPECIES_FIELDS
                                        for value in range_edges(f"species.{key}")]),
    ("protocol", "n_atoms"): st.one_of(st.integers(-1, 12), st.sampled_from([30, 10**20, "3", 2.5])),
    ("protocol", "ramsey_time_s"): st.sampled_from([0.0, 0.01, 0.5, -1.0, math.nan, math.inf,
                                                    *range_edges("protocol.ramsey_time_s")]),
    ("protocol", "a_scatt_au"): st.sampled_from([0.0, 50.0, 1e300, -1e300,
                                                 *range_edges("protocol.a_scatt_au")]),
    ("lattice", "delta"): st.sampled_from([0.25, 0.9, *range_edges("lattice.delta")]),
    ("run", "backend"): st.sampled_from(["dense", "branch", "foo"]),
    ("run", "trajectories"): st.sampled_from([0, 10, 10**6, -1]),
    ("run", "detuning_points"): st.integers(0, 30),
    ("run", "seed"): st.integers(-2, 2**32),
    ("optimize", "n_max"): st.sampled_from([1, 100, 10**29]),
    ("sweep", "protocol.n_atoms"): st.lists(st.integers(0, 20), max_size=3),
    ("noise", "no_such_key"): st.just(1),
}


def _nest(leaves: dict) -> dict:
    document: dict = {}
    for (section, key), value in leaves.items():
        if key is None:
            document[section] = value
        else:
            document.setdefault(section, {})[key] = value
    return document


_DOCUMENTS = st.one_of(
    st.sets(st.sampled_from(sorted(_LEAVES)), max_size=4).flatmap(
        lambda keys: st.fixed_dictionaries({key: _LEAVES[key] for key in keys})).map(_nest),
    st.sampled_from(["[]", "{", "", "null"]),
)
_OPTIONS = st.one_of(
    st.tuples(st.just("--seed"), st.sampled_from(["0", "7", "12345", "-3", "x", str(2**64)])),
    st.tuples(st.just("--backend"), st.sampled_from(["dense", "branch", "dense", "branch", "foo"])),
    st.tuples(st.just("--trajectories"), st.sampled_from(["0", "20", "1000", "-1", "1e3", str(2**63)])),
    st.tuples(st.just("--config"), st.sampled_from(["{config}", "{config}", "{tmp}", "{tmp}/missing.json"])),
    st.tuples(st.just("--out"), st.sampled_from(["{tmp}/o", "{tmp}/o", "{config}", "{config}/o"])),
    st.tuples(st.sampled_from(["--bogus", "--help", "--version"])),
)


class TestErrorContract:
    # Trap inputs whose physics once left the float range. Each once exited 1: the scattering
    # length overflowed feasibility's interaction energy in its sidecar; the transverse intensity
    # overflowed in W/m^2, so the energy was nan; the depth factor's intensity overflowed
    # the depth, so the scattering rate underflowed to 0 and was divided by; beside an
    # explicit intensity, the depth factor overflowed feasibility's minimum intensity.
    # Exited 5 instead: an intensity that overflows the sublattice depths read as untrapped.
    # Each now holds a leaf outside its range.
    @pytest.mark.parametrize("document,field", [
        ({"protocol": {"a_scatt_au": 1e300}}, "protocol.a_scatt_au"),
        ({"protocol": {"a_scatt_au": -1e300}}, "protocol.a_scatt_au"),
        ({"lattice": {"transverse_intensity_kW_cm2": 1.797e308, "lambda_m_nm": 1},
          "protocol": {"gate_time_us": 1e300}}, "lattice.transverse_intensity_kW_cm2"),
        ({"lattice": {"lambda_m_nm": 1e6}, "protocol": {"depth_factor": 1e300}}, "protocol.depth_factor"),
        ({"lattice": {"intensity_kW_cm2": 22.0}, "protocol": {"depth_factor": 1e305}},
         "protocol.depth_factor"),
        ({"lattice": {"intensity_kW_cm2": 1e300}}, "lattice.intensity_kW_cm2"),
    ], ids=["a_scatt", "negative-a_scatt", "transverse-intensity", "depth-factor", "minimum-intensity",
            "intensity"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_trap_inputs_beyond_their_ranges_name_their_leaf(self, tmp_path, run_cli, command,
                                                             document, field):
        cfg = _write_config(tmp_path, document)
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 2
        blob = _assert_error_blob(result, _readme_exit_codes())
        assert blob["field"] == field and "must lie in [" in blob["message"]
        assert not (tmp_path / "o").exists()

    # Inside the box the computed minimum intensity can still pass the intensity leaf's upper
    # end: a 1 pm lattice raises the recoil energy, and so the minimum, (389.9 nm / 1 pm)^2
    # = 1.5e11-fold, to 3.4e19 W/m^2. Where it sets the intensity, it names the depth factor.
    @pytest.mark.parametrize("lattice", [{"lambda_m_nm": 1e-3}], ids=["computed"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_minimum_intensity_above_the_intensity_range_names_depth_factor(self, tmp_path, run_cli,
                                                                            command, lattice):
        cfg = _write_config(tmp_path, {"lattice": lattice})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 2
        blob = _assert_error_blob(result, _readme_exit_codes())
        assert blob["field"] == "protocol.depth_factor"
        assert "lies above lattice.intensity_kW_cm2's range" in blob["message"]
        assert not (tmp_path / "o").exists()

    # Beside an explicit intensity the computed minimum sets nothing: it reaches only
    # feasibility's sidecar and table, so the same 1 pm lattice runs.
    @pytest.mark.parametrize("command", COMMANDS)
    def test_minimum_intensity_above_the_range_beside_an_explicit_intensity_runs(self, tmp_path,
                                                                                 run_cli, command):
        cfg = _write_config(tmp_path, {"lattice": {"lambda_m_nm": 1e-3, "intensity_kW_cm2": 22.0}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert (result.exit_code, result.stderr) == (0, "")
        if command == "feasibility":
            meta = _strict_json((tmp_path / "o" / "feasibility.meta.json").read_text())
            assert meta["intensity_kw_cm2"] == 22.0
            assert 1e19 < meta["min_intensity_w_m2"] < math.inf

    # Beside an explicit intensity the minimum still has to be finite: a clock polarizability
    # of 1e-282 au leaves a subnormal worst-case depth per W/m^2, which the largest depth
    # factor's target, at a 1 pm lattice, overflows.
    @pytest.mark.parametrize("command", COMMANDS)
    def test_minimum_intensity_beyond_the_float_range_names_depth_factor(self, tmp_path, run_cli,
                                                                         command):
        cfg = _write_config(tmp_path, {**_species({0: {"alpha_scalar_au": -1e-282}}),
                                       "protocol": {"depth_factor": 1e6},
                                       "lattice": {"lambda_m_nm": 1e-3, "intensity_kW_cm2": 22.0}})
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 2
        blob = _assert_error_blob(result, _readme_exit_codes())
        assert blob["field"] == "protocol.depth_factor"
        assert "overflows the float range" in blob["message"]
        assert not (tmp_path / "o").exists()

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(document=_DOCUMENTS, options=st.lists(_OPTIONS, max_size=3),
           command=st.sampled_from([*COMMANDS, "explode", None]),
           extra=st.sampled_from([[], [], [], ["extra"], ["--seed", "1"]]))
    def test_every_outcome_keeps_the_contract(self, run_cli, document, options, command, extra):
        exit_codes = _readme_exit_codes()
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(document if isinstance(document, str) else json.dumps(document))
            argv = ["--config", str(config), "--out", f"{tmp}/o"]
            for option in options:
                argv += [w.replace("{config}", str(config)).replace("{tmp}", tmp) for w in option]
            argv += ([command] if command else []) + (extra if command else [])
            result = run_cli(argv)
            event(f"exit {result.exit_code}")
            assert result.exit_code in exit_codes
            assert "Traceback" not in result.stderr
            if result.exit_code:
                _assert_error_blob(result, exit_codes)
                assert not (Path(tmp) / "o").exists()  # a failed command leaves no output behind
                return
            written = sorted((Path(tmp) / "o").glob("*"))
            if {"--help", "--version"}.isdisjoint(argv):
                assert f"{command}.csv" in [p.name for p in written]
            for path in written:
                text = path.read_text()
                if path.suffix == ".csv":
                    rows = list(csv.reader(io.StringIO(text, newline=""), strict=True))
                    assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)
                else:
                    assert path.name.endswith(".meta.json")
                    assert isinstance(_strict_json(text), dict)


_DETUNING_PARTNERS = {"run.detuning_min_rad_s": ("run.detuning_max_rad_s", 1e12),
                      "run.detuning_max_rad_s": ("run.detuning_min_rad_s", -1e12)}


def _box_edges() -> list[tuple]:
    """(field, value, inside, document): every float leaf, and each species' own fields, alone
    at each end of its range (inside) and one float past each; an explicit detuning range's
    end beside the other end of its range."""
    inside_of_edges = (True, True, False, False)  # the two ends, then the floats past them
    edges = [(f"species[{i}].{key}", value, inside, _species({i: {key: value}}))
             for i, key in _SPECIES_FIELDS
             for value, inside in zip(range_edges(f"species.{key}"), inside_of_edges)]
    for leaf in FLOAT_RANGES:
        if leaf.startswith("species."):
            continue
        section, key = leaf.split(".")
        for value, inside in zip(range_edges(leaf), inside_of_edges):
            document = {section: {key: value}}
            if leaf in _DETUNING_PARTNERS:
                partner, end = _DETUNING_PARTNERS[leaf]
                document[section][partner.split(".")[1]] = end
            edges.append((leaf, value, inside, document))
    return sorted(edges, key=lambda edge: edge[:2])


_BOX_EDGES = _box_edges()


class TestTheBox:
    """The declared ranges bound every derived quantity: at their ends, every command runs or
    exits with a physics code, and one float past them, exits 2 naming the leaf."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field,value,inside,document", _BOX_EDGES,
                             ids=[f"{field}={value!r}" for field, value, _, _ in _BOX_EDGES])
    def test_every_command_at_the_edges_of_the_box(self, tmp_path, run_cli, field, value, inside, document):
        cfg = _write_config(tmp_path, document)
        for command in COMMANDS:
            out = tmp_path / command
            result = run_cli(["--config", str(cfg), "--out", str(out), command])
            assert result.exit_code in (0, 2, 4, 5, 6, 7, 8), (command, result.stderr)
            if not inside:
                assert result.exit_code == 2 and json.loads(result.stderr)["field"] == field, command
            elif result.exit_code == 0:
                assert result.stderr == "", command
            elif result.exit_code == 2:
                # A detuning range's end that no other end can pair with, or the computed
                # minimum intensity above the intensity leaf's range.
                pair = {field, _DETUNING_PARTNERS[field][0]} if field in _DETUNING_PARTNERS else set()
                assert json.loads(result.stderr)["field"] in (pair or {"protocol.depth_factor"}), command
            if result.exit_code:
                assert not out.exists(), command

    @pytest.mark.filterwarnings("error")
    def test_every_command_in_the_deepest_trap(self, tmp_path, run_cli):
        # The lightest, most polarizable species at the largest |rho|, made transportable by
        # a misbalance of 1e-7, in the most intense lattice, with the largest scattering
        # length: the trap frequencies, which once overflowed with rho unbounded, and the
        # interaction energy stay finite.
        species = {i: {"mass_amu": 1e-6, "alpha_scalar_au": -1e12} for i in range(3)}
        species[1]["rho"], species[2]["rho"] = -1e6, 1e6
        cfg = _write_config(tmp_path, {
            **_species(species), "protocol": {"a_scatt_au": 1e6},
            "lattice": {"delta": 1e-7, "intensity_kW_cm2": 1e12, "transverse_intensity_kW_cm2": 1e12},
        })
        for command in COMMANDS:
            result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
            assert (result.exit_code, result.stderr) == (0, ""), command
        meta = _strict_json((tmp_path / "o" / "feasibility.meta.json").read_text())
        assert meta["feasible"]
        assert all(0.0 < meta[key] < math.inf for key in ("interaction_energy_j", "gate_time_s"))
        for row in read_table(tmp_path / "o" / "feasibility.csv"):
            assert all(0.0 < float(row[key]) < math.inf for key in ("omega_axial_rad_s", "omega_radial_rad_s"))
