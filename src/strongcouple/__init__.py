"""First-law energy decomposition and information measures for a qubit
strongly coupled to a single-qubit thermal environment.

The package splits the internal energy change of each subsystem into
work, heat, and a coherent contribution driven by eigenbasis rotation,
and relates the resulting heat imbalance to the entanglement negativity
of the joint state. See :mod:`strongcouple.channels` for the evolution
model and :mod:`strongcouple.firstlaw` for the decomposition itself.
"""

from .channels import (BlochSeries, GadcParams, apply_channel,
                       environment_bloch, environment_initial_state,
                       environment_kraus, environment_states,
                       gadc_coupling_matrix, gadc_unitary, iterate_map_check,
                       joint_initial_state, joint_negativities_closed_form,
                       joint_radii_closed_form, joint_states,
                       joint_states_closed_form, system_bloch,
                       system_initial_state, system_kraus,
                       system_state_from_dilation, system_states)
from .errors import (InputError, NumericalError, StrongcoupleError,
                     TrackingError)
from .experiment import (ExperimentConfig, ExperimentResult, SweepSummary,
                         run, sweep)
from .firstlaw import (ThermoTrajectory, qubit_thermo_trajectory,
                       thermo_trajectory)
from .infomeasures import (InfoSeries, bloch_entropies, heat_asymmetry,
                           negativities, von_neumann_entropies)
from .spectra import (DensityOperator, HermitianOperator,
                      SpectralDecomposition, density_stack, eig_hermitian,
                      partial_trace, partial_transpose_stack)
from .validation import markov_convergence

__version__ = "0.1.0"

__all__ = [
    "BlochSeries",
    "DensityOperator",
    "ExperimentConfig",
    "ExperimentResult",
    "GadcParams",
    "HermitianOperator",
    "InfoSeries",
    "InputError",
    "NumericalError",
    "SpectralDecomposition",
    "StrongcoupleError",
    "SweepSummary",
    "ThermoTrajectory",
    "TrackingError",
    "apply_channel",
    "bloch_entropies",
    "density_stack",
    "eig_hermitian",
    "environment_bloch",
    "environment_initial_state",
    "environment_kraus",
    "environment_states",
    "gadc_coupling_matrix",
    "gadc_unitary",
    "heat_asymmetry",
    "iterate_map_check",
    "joint_initial_state",
    "joint_negativities_closed_form",
    "joint_radii_closed_form",
    "joint_states",
    "joint_states_closed_form",
    "markov_convergence",
    "negativities",
    "partial_trace",
    "partial_transpose_stack",
    "qubit_thermo_trajectory",
    "run",
    "sweep",
    "system_bloch",
    "system_initial_state",
    "system_kraus",
    "system_state_from_dilation",
    "system_states",
    "thermo_trajectory",
    "von_neumann_entropies",
]
