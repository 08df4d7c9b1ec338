"""Steering inequalities for displacement-based single-photon measurements.

The package builds steering inequalities adapted to displacement
measurements on path-entangled single photons, computes their unsteerable
bounds (qubit closed form, and exact on photon-number space through the
Gram matrix of the trusted coherent states), simulates the lossy
experiment, certifies (un)steerability by computing the critical efficiency
of the joint click table (one conic program, solved by a primal-dual
interior-point method, that returns a hidden-state model and a violated
steering functional), with the trusted side seen either through its
displacement detectors on photon-number space or exactly on the 0-1
subspace, optimizes measurement phases, and analyzes phase-sweep count
data including Monte Carlo error propagation. A
displacement measurement is an amplitude r and a phase theta: the fock_ops
kernels take both as arrays that broadcast together, and every projector
and click table of the package is built through them.

Every public name below is importable from the package, but the package
loads a submodule (and numpy with it) only when one of its names is first
looked up (PEP 562), so `import steering_lab` and a command that needs one
module pay for that module alone.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "AnalysisReport", "CosineFit", "CountsRecord", "MonteCarloResult",
        "OUTCOME_LABELS", "evaluate_record", "extract_setting_table",
        "fit_cosine", "format_mc_result", "load_counts", "monte_carlo",
        "probabilities_from_counts", "setting_counts_from_record",
        "synthesize_counts", "write_counts", "write_mc_result"),
    "errors": (
        "CutoffError", "ExtractionError", "FitError",
        "IndeterminateFeasibilityError", "NormalizationError", "ParseError",
        "SingularDecompositionError", "SteeringLabError", "ValidationError"),
    "fock_ops": (
        "RESOLUTION_PHASES", "coherent_amplitudes", "coherent_tail",
        "hermitize", "pauli_resolution", "projector_full", "projector_qubit",
        "trusted_basis"),
    "inequality": (
        "InequalityFamily", "ProbabilityInequality", "REPORTED_SNAPSHOT",
        "SteeringFunctional", "build_probability_inequality",
        "comparison_report", "decompose_g", "default_alice_phases",
        "deterministic_strategies", "evaluate_steering", "export_inequality",
        "family_matrices", "fullspace_g", "identity_residual", "lhs_bound",
        "qubit_bound", "stacked_inequality"),
    "lhs_certification": (
        "ExperimentEfficiency", "PhaseOptimum", "RestartRecord",
        "TableProblem", "canonical_phases", "experiment_critical_eta",
        "ladder_distance", "optimize_phases", "verify_hidden_states"),
    "quantum_model": (
        "ModelConfig", "compute_assemblage", "format_sweep", "format_table",
        "joint_probabilities", "make_state", "oracle_probabilities",
        "phase_sweep", "side_povm", "theoretical_delta_S"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value          # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
