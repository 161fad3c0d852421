"""Variance-based evidential uncertainty for classifiers, with an active
domain adaptation loop built on top.

The package splits into a quantification core (``dirichlet``, ``losses``,
``metrics``) that works on any Dirichlet output, and an experiment stack
(``enn``, ``pools``, ``sampling``, ``synthetic``, ``config``,
``experiments``, ``cli``) for desk-scale studies.
"""

from .config import (
    AblationSwitches,
    ConfigError,
    ExperimentConfig,
    config_hash,
    load_config,
    parse_config,
)
from .dirichlet import (
    ALPHA_FLOOR,
    AlphaError,
    DirichletPrediction,
    checked_alpha,
    class_variances_batch,
    covariance_batch,
    entropy_uncertainties_batch,
    predict_class_batch,
    quantify_records,
    variance_uncertainties_batch,
)
from .enn import (
    EvidentialMLP,
    TrainConfig,
    Trainer,
    TrainingDivergedError,
    evaluate,
    load_checkpoint,
    save_checkpoint,
)
from .experiments import (
    ABLATION_ROWS,
    aggregate_reports,
    run_ablation,
    run_experiment,
    run_rows,
    run_seed,
)
from .losses import LossConfig
from .metrics import (
    AdaRunReport,
    auroc,
    batch_uncertainties,
    class_level_uncertainty_summary,
    dataset_class_correlation,
    export_uncertainty_histograms,
    rank_class_pairs,
)
from .pools import BudgetExhaustedError, PoolError, SamplePool
from .sampling import (
    RoundPlan,
    certainty_sampling,
    default_round_plans,
    default_schedule,
    run_ada,
    uncertainty_sampling,
)
from .special import DomainError, digamma, gamma_terms, log_gamma, trigamma
from .synthetic import Dataset, DomainSpec, generate_domain_pair, split_pools

__version__ = "0.1.0"

__all__ = [
    "ABLATION_ROWS",
    "ALPHA_FLOOR",
    "AblationSwitches",
    "AdaRunReport",
    "AlphaError",
    "BudgetExhaustedError",
    "ConfigError",
    "Dataset",
    "DirichletPrediction",
    "DomainError",
    "DomainSpec",
    "EvidentialMLP",
    "ExperimentConfig",
    "LossConfig",
    "PoolError",
    "RoundPlan",
    "SamplePool",
    "TrainConfig",
    "Trainer",
    "TrainingDivergedError",
    "aggregate_reports",
    "auroc",
    "batch_uncertainties",
    "certainty_sampling",
    "checked_alpha",
    "class_level_uncertainty_summary",
    "class_variances_batch",
    "config_hash",
    "covariance_batch",
    "dataset_class_correlation",
    "default_round_plans",
    "default_schedule",
    "entropy_uncertainties_batch",
    "evaluate",
    "export_uncertainty_histograms",
    "generate_domain_pair",
    "load_checkpoint",
    "load_config",
    "log_gamma",
    "digamma",
    "trigamma",
    "gamma_terms",
    "parse_config",
    "predict_class_batch",
    "quantify_records",
    "rank_class_pairs",
    "run_ablation",
    "run_ada",
    "run_experiment",
    "run_rows",
    "run_seed",
    "save_checkpoint",
    "split_pools",
    "uncertainty_sampling",
    "variance_uncertainties_batch",
    "__version__",
]
