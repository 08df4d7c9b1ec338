"""Steering inequalities for displacement-based single-photon measurements.

The package builds steering inequalities adapted to displacement
measurements on path-entangled single photons, computes their unsteerable
bounds (qubit closed form and truncated number-basis), simulates the lossy
experiment, certifies (un)steerability by computing the critical efficiency
of the joint click table (one barrier-method conic program that returns a
hidden-state model and a violated steering functional), with the trusted
side seen either through its displacement detectors on photon-number space
or exactly on the 0-1 subspace, optimizes measurement phases, and analyzes
phase-sweep count data including Monte Carlo error propagation.
"""

from .analysis import (AnalysisReport, CosineFit, CountsRecord,
                       MonteCarloConfig, MonteCarloResult, OUTCOME_LABELS,
                       evaluate_record, extract_setting_table, fit_cosine,
                       format_mc_result, load_counts, monte_carlo,
                       probabilities_from_counts, setting_counts_from_record,
                       synthesize_counts, write_counts, write_mc_result)
from .errors import (CutoffError, ExtractionError, FitError,
                     IndeterminateFeasibilityError, NormalizationError,
                     ParseError, SingularDecompositionError,
                     SingularResolutionError, SteeringLabError,
                     ValidationError)
from .fock_ops import (DisplacementSetting, PauliResolution,
                       RESOLUTION_PHASES, coherent_amplitudes, coherent_tail,
                       hermitize, observable, pauli_resolution,
                       projector_full, projector_qubit)
from .inequality import (CoefficientSet, FullspaceBound, InequalityFamily,
                         ProbabilityInequality, REPORTED_SNAPSHOT,
                         build_probability_inequality, comparison_report,
                         decompose_g, default_alice_phases,
                         deterministic_strategies, evaluate_steering,
                         export_inequality, family_matrices, fullspace_bound,
                         fullspace_g, identity_residual,
                         probability_coefficients, qubit_bound)
from .lhs_certification import (ExperimentEfficiency, HiddenStateModel,
                                PhaseOptimum, RestartRecord,
                                SteeringFunctional, TableProblem,
                                canonical_phases, experiment_critical_eta,
                                ladder_distance, lhs_bound, nelder_mead,
                                optimize_phases, trusted_basis,
                                verify_hidden_states)
from .quantum_model import (Assemblage, ModelConfig, ProbabilityTable,
                            SweepTable, compute_assemblage, default_config,
                            format_sweep, format_table, joint_probabilities,
                            make_state, oracle_probabilities, phase_sweep,
                            side_povm, theoretical_delta_S)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "Assemblage", "CoefficientSet", "CosineFit",
    "CountsRecord", "CutoffError",
    "DisplacementSetting", "ExperimentEfficiency", "ExtractionError",
    "FitError", "FullspaceBound", "HiddenStateModel",
    "IndeterminateFeasibilityError",
    "InequalityFamily", "ModelConfig",
    "MonteCarloConfig", "MonteCarloResult", "NormalizationError",
    "OUTCOME_LABELS", "ParseError", "PauliResolution", "PhaseOptimum",
    "ProbabilityInequality", "ProbabilityTable", "REPORTED_SNAPSHOT",
    "RESOLUTION_PHASES", "RestartRecord", "SingularDecompositionError",
    "SingularResolutionError", "SteeringFunctional", "SteeringLabError",
    "SweepTable", "TableProblem", "ValidationError",
    "build_probability_inequality", "canonical_phases",
    "coherent_amplitudes", "coherent_tail", "comparison_report",
    "compute_assemblage", "decompose_g",
    "default_alice_phases", "default_config", "deterministic_strategies",
    "evaluate_record", "evaluate_steering", "experiment_critical_eta",
    "export_inequality",
    "extract_setting_table", "family_matrices", "fit_cosine",
    "format_mc_result", "format_sweep", "format_table", "fullspace_bound",
    "fullspace_g", "hermitize", "identity_residual", "joint_probabilities",
    "ladder_distance", "lhs_bound", "load_counts",
    "make_state",
    "monte_carlo", "nelder_mead", "observable", "optimize_phases",
    "oracle_probabilities", "pauli_resolution", "phase_sweep",
    "probabilities_from_counts", "probability_coefficients",
    "projector_full", "projector_qubit", "qubit_bound",
    "setting_counts_from_record", "side_povm", "synthesize_counts",
    "theoretical_delta_S", "trusted_basis", "verify_hidden_states",
    "write_counts", "write_mc_result",
]
