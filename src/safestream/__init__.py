"""Streaming machine unlearning: single perturbed gradient steps per deletion
round, measured against retrain-from-scratch oracles."""

from .data import Dataset, load_csv, load_idx, make_synthetic
from .engine import (
    ForgettingLedger,
    RetentionGradState,
    SafeConfig,
    SafeUnlearner,
    forgetting_gradient,
    learning_rate,
    perturbation_scale,
    update_retention_grad,
)
from .evaluation import accuracy, mia_attack
from .gaussian import (
    ClassConditionalGaussians,
    ClassStats,
    downdate_cov,
    downdate_mean,
    make_projection,
    mardia_test,
)
from .model import (
    Architecture,
    ModelParams,
    grad_cross_entropy,
    kl_rows,
    mean_cross_entropy,
    predict_proba_batch,
    sum_grad_kl_to_targets,
)
from .oracle import (
    RegretAccount,
    RetrainConfig,
    retrain,
    surrogate_risk,
    theorem_gap_bound,
    true_risk,
)
from .runner import RunConfig, config_from_dict, load_config, run, sweep, verify
from .shift import ShiftEstimator, density_ratio, label_ratio
from .streams import StreamSpec, generate_stream

__version__ = "0.1.0"
