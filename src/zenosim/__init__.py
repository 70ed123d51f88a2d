"""Simulation and analysis of multi-spin dephasing under repeated joint projections."""

from .spins import (evolve_dephasing, expectation, pauli_matrix, product_ket,
                    product_state, state_fidelity)
from .channel import ProjectorPair, ancilla_project, project, projectors
from .model import (decay_curve, effective_t2, odd_n_asymptote,
                    single_shot_expectation, sqrt_e_time)
from .ensemble import (DecayCurve, ExperimentPlan, NoiseModel, run_ensemble,
                       run_shot, sample_detunings)
from .logical import (CARDINAL_2SPIN, ENTANGLED_2SPIN, LOGICAL_3SPIN,
                      logical_components, logical_fidelity,
                      logical_pauli_fidelity, logical_state_2spin,
                      logical_state_3spin, logical_target, resolve_state,
                      thresholds)
from .fitting import (CorrectedValue, FitError, FitResult, ScalingFit,
                      apply_readout_correction, fit_decay, fit_scaling)

__version__ = "0.1.0"

__all__ = [
    "pauli_matrix", "product_ket", "product_state", "evolve_dephasing",
    "expectation", "state_fidelity",
    "ProjectorPair", "projectors", "project", "ancilla_project",
    "decay_curve", "effective_t2",
    "single_shot_expectation", "odd_n_asymptote", "sqrt_e_time",
    "NoiseModel", "ExperimentPlan", "DecayCurve", "sample_detunings",
    "run_shot", "run_ensemble",
    "CARDINAL_2SPIN", "ENTANGLED_2SPIN", "LOGICAL_3SPIN",
    "logical_state_2spin", "logical_state_3spin", "logical_target",
    "logical_fidelity", "logical_pauli_fidelity", "logical_components",
    "resolve_state", "thresholds",
    "FitResult", "ScalingFit", "FitError", "CorrectedValue",
    "fit_decay", "fit_scaling", "apply_readout_correction",
]
