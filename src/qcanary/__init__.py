"""Black-box privacy auditing for small variational quantum classifiers.

The package plants near-indistinguishable canary records into training
data through offset angle encodings, trains paired models, and converts
seen/unseen recognition rates into an empirical lower bound on the
privacy budget, next to closed-form upper bounds for depolarizing and
finite-shot noise.
"""

from .audit import (AuditConfig, AuditReport, DomainError, EpsilonEstimate,
                    TrialMatrix, audit, betting_lower,
                    betting_upper, bound_lower, bound_upper, calibrate_kappa,
                    epsilon_hat, estimate_epsilon, generate_canaries,
                    run_trial, sample_complexity_estimate,
                    simulate_known_mechanism, theory_epsilon_depolarizing,
                    theory_epsilon_measurement, trials_to_target)
from .circuits import (Gate, Observable, ParamCircuit, apply_circuit_density,
                       apply_circuit_pure, build_real_amplitudes,
                       expectation, gate_unitary, parameter_shift_gradient,
                       z_on_qubit)
from .classifier import (ModelSpec, TrainConfig, TrainedModel, eval_model,
                         evaluate_losses, loss_gradient, mean_loss,
                         predict, train)
from .data import Dataset, load_csv, load_iris_binary, synth_gaussians
from .encoding import (OffsetSpec, angle_encode, angle_encode_offset,
                       gamma_bound, pair_distances, sample_offsets,
                       sigma_bound)
from .noise import NoiseSpec, depolarize_global, depolarize_qubit
from .states import (DensityMatrix, PureState, density, hermitian_eigenvalues,
                     pure, pure_to_density, pure_trace_distance,
                     trace_distance)

__version__ = "0.1.0"

__all__ = [
    "AuditConfig", "AuditReport", "Dataset", "DensityMatrix",
    "DomainError", "EpsilonEstimate", "Gate", "ModelSpec", "NoiseSpec",
    "Observable", "OffsetSpec", "ParamCircuit", "PureState",
    "TrainConfig", "TrainedModel", "TrialMatrix", "angle_encode",
    "angle_encode_offset", "apply_circuit_density", "apply_circuit_pure",
    "audit", "betting_lower", "betting_upper",
    "bound_lower", "bound_upper",
    "build_real_amplitudes", "calibrate_kappa", "density",
    "depolarize_global", "depolarize_qubit", "epsilon_hat",
    "estimate_epsilon", "eval_model",
    "evaluate_losses", "expectation", "gamma_bound",
    "gate_unitary", "generate_canaries", "hermitian_eigenvalues",
    "load_csv", "load_iris_binary", "loss_gradient",
    "mean_loss", "pair_distances",
    "parameter_shift_gradient", "predict", "pure", "pure_to_density",
    "pure_trace_distance", "run_trial",
    "sample_complexity_estimate", "sample_offsets",
    "sigma_bound", "simulate_known_mechanism", "synth_gaussians",
    "theory_epsilon_depolarizing",
    "theory_epsilon_measurement", "trace_distance", "train",
    "trials_to_target", "z_on_qubit",
]
