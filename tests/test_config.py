import json
import math
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screwclock import ConfigError, parse_config, serialize_config
from screwclock.config import (
    BACKENDS,
    MAX_ATOMS,
    MAX_TRAJECTORIES,
    LatticeSection,
    NoiseSection,
    OptimizeSection,
    ProtocolSection,
    RunSection,
    SpeciesEntry,
    apply_override,
    serialized_hash,
)

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "config.example.json"


def config_hash(cfg) -> str:
    """The hash a sidecar records for ``cfg``."""
    return serialized_hash(serialize_config(cfg))


class TestDefaults:
    def test_empty_document_gives_reference_parameters(self):
        cfg = parse_config("")
        assert cfg.lattice.lambda_m_nm == 389.9
        assert cfg.lattice.delta == 0.25
        clock = cfg.species_by_role("clock")
        assert clock.name == "Sr"
        assert clock.alpha_scalar_au == -470.0
        head = cfg.species_by_role("head_up")
        assert head.alpha_scalar_au == -340.0
        assert head.rho == -1.25
        assert cfg.protocol.a_scatt_au == 100.0

    def test_none_and_empty_dict_equivalent(self):
        assert parse_config(None) == parse_config({}) == parse_config("{}")

    def test_example_config_is_the_defaults(self):
        # The README's example file spells out every default.
        example = parse_config(EXAMPLE_CONFIG)
        assert example == parse_config(None)
        assert json.loads(EXAMPLE_CONFIG.read_text()) == serialize_config(example)


class TestValidation:
    def test_out_of_range_delta_names_field(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"lattice": {"delta": 1.5}})
        assert excinfo.value.path == "lattice.delta"

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"lattice": {"wavelength_nm": 400.0}})
        assert "lattice.wavelength_nm" in str(excinfo.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            parse_config({"lattices": {}})

    def test_malformed_json(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("{not json")
        assert "malformed" in str(excinfo.value)

    def test_integer_past_the_digit_limit_is_malformed(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config('{"protocol": {"n_atoms": 1' + "0" * 5000 + "}}")
        assert excinfo.value.path == "<document>"
        assert "malformed" in str(excinfo.value)

    @pytest.mark.parametrize("source", [[], ["{}"], b"{}", 3, 1.5], ids=repr)
    def test_non_text_source_rejected(self, source):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(source)
        assert excinfo.value.path == "<document>"
        assert type(source).__name__ in str(excinfo.value)

    def test_zero_atoms_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"protocol": {"n_atoms": 0}})
        assert excinfo.value.path == "protocol.n_atoms"

    def test_non_integer_atoms_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"protocol": {"n_atoms": 3.5}})

    def test_clock_with_vector_polarizability_rejected(self):
        species = [
            {"name": "X", "mass_amu": 10.0, "alpha_scalar_au": -100.0, "rho": 0.5,
             "role": "clock"},
            {"name": "U", "mass_amu": 20.0, "alpha_scalar_au": -100.0, "rho": -1.0,
             "role": "head_up"},
            {"name": "D", "mass_amu": 20.0, "alpha_scalar_au": -100.0, "rho": 1.0,
             "role": "head_down"},
        ]
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"species": species})
        assert excinfo.value.path == "species[0].rho"

    def test_each_role_required_exactly_once(self):
        species = [
            {"name": "X", "mass_amu": 10.0, "alpha_scalar_au": -100.0, "rho": 0.0,
             "role": "clock"},
        ]
        with pytest.raises(ConfigError):
            parse_config({"species": species})

    def test_trajectories_bounded_by_int64(self):
        assert parse_config({"run": {"trajectories": MAX_TRAJECTORIES}}).run.trajectories == 2**63 - 1
        for value in (MAX_TRAJECTORIES + 1, 10**30):
            with pytest.raises(ConfigError) as excinfo:
                parse_config({"run": {"trajectories": value}})
            assert excinfo.value.path == "run.trajectories"
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"sweep": {"run.trajectories": [10, 2**63]}})
        assert excinfo.value.path == "run.trajectories"

    @pytest.mark.parametrize("path,document", [
        ("protocol.n_atoms", lambda n: {"protocol": {"n_atoms": n}}),
        ("optimize.n_min", lambda n: {"optimize": {"n_min": n, "n_max": n}}),
        ("optimize.n_max", lambda n: {"optimize": {"n_max": n}}),
    ], ids=["n_atoms", "n_min", "n_max"])
    def test_atom_numbers_bounded_by_2_53(self, path, document):
        # 2^53 is the largest N that every float expression of N holds exactly.
        assert MAX_ATOMS == 2**53 == float(2**53)
        section, leaf = path.split(".")
        assert getattr(getattr(parse_config(document(MAX_ATOMS)), section), leaf) == MAX_ATOMS
        for value in (MAX_ATOMS + 1, 10**20, 10**29, 10**400):
            with pytest.raises(ConfigError) as excinfo:
                parse_config(document(value))
            assert excinfo.value.path == path
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"sweep": {"protocol.n_atoms": [10, MAX_ATOMS + 1]}})
        assert excinfo.value.path == "protocol.n_atoms"

    def test_backend_choice(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"run": {"backend": "gpu"}})
        assert excinfo.value.path == "run.backend"

    def test_sweep_unknown_parameter(self):
        with pytest.raises(ConfigError):
            parse_config({"sweep": {"lattice.nonsense": [1, 2]}})

    def test_sweep_values_validated(self):
        with pytest.raises(ConfigError):
            parse_config({"sweep": {"lattice.delta": [0.1, 2.0]}})


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        cfg = parse_config({
            "lattice": {"delta": 0.3, "intensity_kW_cm2": 25.0},
            "protocol": {"n_atoms": 7, "ramsey_time_s": 0.2},
            "run": {"seed": 42, "backend": "dense"},
            "sweep": {"protocol.n_atoms": [2, 4, 8]},
        })
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_json_text_round_trip(self):
        cfg = parse_config(None)
        text = json.dumps(serialize_config(cfg))
        assert parse_config(text) == cfg

    @settings(max_examples=100, deadline=None)
    @given(
        n_atoms=st.integers(1, 10**9),
        intensity=st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        delta=st.floats(0.0, 1.0, exclude_min=True),
        backend=st.sampled_from(BACKENDS),
        seed=st.integers(0, 2**64),
        trajectories=st.integers(0, 10**12),
    )
    def test_round_trip_property(self, n_atoms, intensity, delta, backend, seed, trajectories):
        cfg = parse_config({
            "lattice": {"intensity_kW_cm2": intensity, "delta": delta},
            "protocol": {"n_atoms": n_atoms},
            "run": {"backend": backend, "seed": seed, "trajectories": trajectories},
        })
        assert parse_config(serialize_config(cfg)) == cfg
        assert parse_config(json.dumps(serialize_config(cfg), allow_nan=False)) == cfg


class TestOverrides:
    def test_apply_override_changes_single_leaf(self):
        cfg = parse_config(None)
        out = apply_override(cfg, "protocol.n_atoms", 17)
        assert out.protocol.n_atoms == 17
        assert out.lattice == cfg.lattice

    def test_apply_override_validates(self):
        cfg = parse_config(None)
        with pytest.raises(ConfigError):
            apply_override(cfg, "lattice.delta", 5.0)

    def test_apply_override_unknown_path(self):
        cfg = parse_config(None)
        with pytest.raises(ConfigError):
            apply_override(cfg, "lattice.bogus", 1.0)


DEFAULT = parse_config(None)
SECTIONS = {"lattice": LatticeSection, "protocol": ProtocolSection, "noise": NoiseSection,
            "run": RunSection, "optimize": OptimizeSection}


def _is_numeric(leaf) -> bool:
    return leaf.type == "int" or "float" in leaf.type


def _species_doc(leaf: str, value) -> dict:
    species = serialize_config(DEFAULT)["species"]
    species[0][leaf] = value
    return {"species": species}


NUMERIC_LEAVES = [
    (f"{name}.{leaf.name}", lambda value, name=name, leaf=leaf.name: {name: {leaf: value}})
    for name, cls in SECTIONS.items() for leaf in fields(cls) if _is_numeric(leaf)
] + [
    (f"species[0].{leaf.name}", lambda value, leaf=leaf.name: _species_doc(leaf, value))
    for leaf in fields(SpeciesEntry) if _is_numeric(leaf)
]


class TestLeafTable:
    @pytest.mark.parametrize("path,document", NUMERIC_LEAVES, ids=[p for p, _ in NUMERIC_LEAVES])
    @pytest.mark.parametrize("value", [math.nan, "1.0", True], ids=["nan", "string", "bool"])
    def test_numeric_leaf_rejects_non_numbers(self, path, document, value):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(document(value))
        assert excinfo.value.path == path

    @pytest.mark.parametrize("leaf,value", [("f", 3.0), ("m_f", -3.0)])
    def test_removed_species_leaf_is_an_unknown_key(self, leaf, value):
        # The hyperfine state reaches the physics only through rho; f and m_f are not leaves.
        with pytest.raises(ConfigError) as excinfo:
            parse_config(_species_doc(leaf, value))
        assert excinfo.value.path == f"species[0].{leaf}"
        assert "unknown key" in str(excinfo.value)

    def test_sweepable_leaves(self):
        expected = {f"{name}.{leaf.name}" for name in ("lattice", "protocol", "noise")
                    for leaf in fields(SECTIONS[name])} | {"run.seed", "run.trajectories"}
        for name, cls in SECTIONS.items():
            for leaf in fields(cls):
                key = f"{name}.{leaf.name}"
                document = {"sweep": {key: [getattr(getattr(DEFAULT, name), leaf.name)]}}
                if key in expected:
                    assert parse_config(document).sweep == {key: tuple(document["sweep"][key])}
                else:
                    with pytest.raises(ConfigError) as excinfo:
                        parse_config(document)
                    assert excinfo.value.path == f"sweep.{key}"

    def test_override_runs_cross_field_rules(self):
        with pytest.raises(ConfigError) as excinfo:
            apply_override(DEFAULT, "optimize.n_min", 20000)
        assert excinfo.value.path == "optimize.n_max"
        with pytest.raises(ConfigError) as excinfo:
            apply_override(DEFAULT, "run.detuning_max_rad_s", 1.0)
        assert excinfo.value.path == "run.detuning_min_rad_s"

    def test_override_keeps_other_sections_and_sweep(self):
        cfg = parse_config({"sweep": {"protocol.n_atoms": [2, 4]}})
        out = apply_override(cfg, "run.seed", 7)
        assert out.run.seed == 7
        assert out == replace(cfg, run=replace(cfg.run, seed=7))

    def test_species_entry_missing_leaf_names_entry(self):
        species = serialize_config(DEFAULT)["species"]
        del species[0]["mass_amu"]
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"species": species})
        assert excinfo.value.path == "species[0]"
        assert "mass_amu" in str(excinfo.value)
