"""Entangled-lattice-clock toolkit.

Checks the feasibility of the polarization-screw transport lattice,
schedules the GHZ entanglement protocol, simulates the clock register with
photon-scattering decoherence, and quantifies the resulting precision
against the standard quantum limit.
"""

__version__ = "0.1.0"

from .constants import CODATA, ConstantsTable, au_to_si_polarizability
from .errors import (
    CapacityError,
    ClockSimError,
    ConfigError,
    DegenerateFringeError,
    InfeasibleTransportError,
    NoInteractionError,
    ParameterError,
    UntrappedError,
)
from .lattice import (
    FeasibilityReport,
    IntensityRequirement,
    LatticeConfig,
    SpeciesOptics,
    min_required_intensity,
    overlap_depth,
    recoil_energy,
    sublattice_depths,
    transport_feasibility,
    trap_frequencies,
    well_depth_closed_form,
    worst_case_depth,
)
from .rates import (
    DecoherenceParams,
    ProtocolSchedule,
    interaction_energy,
    phase_gate_duration,
    photon_scattering_time,
    scatter_probability,
    schedule_duration,
    schedule_rows,
    survival_probability,
)
from .register import (
    BranchState,
    DenseState,
    ghz_reference,
    final_reference,
    init_register,
    protocol_references,
    run_protocol,
    state_fidelity,
    state_overlap,
)
from .trajectories import sample_scatter_count
from .estimator import (
    AtomNumberCurve,
    FringeScan,
    analyze_fringe,
    fringe_scan,
    optimize_atom_number,
    phase_sensitivity,
    sql_baseline,
)
from .config import RunConfig, parse_config, serialize_config
from .pipeline import PhysicsBundle, resolve_physics
