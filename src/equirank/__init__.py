"""Equity-aware pairwise learning-to-rank pipeline.

Parse pairwise comparison datasets, rescale per-user scores (min-max,
normalization, or collaborative Mehestan-style scaling on GBT-fitted latent
scores), train a desk-scale linear ranking model with a configurable loss
menu and optional per-user embeddings, and audit per-user equity (accuracy
gap, standard deviation, Gini coefficient, Lorenz curve) against a
synthetic voter population with known ground truth.
"""

__version__ = "0.1.0"

from .dataset import (
    Comparison,
    ComparisonSet,
    FeatureTable,
    comparison_set,
    parse_comparisons,
    parse_features,
    split,
    write_comparisons,
    write_features,
)
from .equity import (
    EquityReport,
    build_report,
    classify,
    gini,
    lorenz_curve,
    max_gap,
    per_user_metrics,
    std_dev,
)
from .gbt import (
    GbtConfig,
    IndividualScores,
    expected_comparison,
    fit_gbt,
    gbt_gradient,
    gbt_objective,
    write_individual_scores,
)
from .ltr import (
    LossWeights,
    ModelParams,
    TrainConfig,
    TrainResult,
    load_model,
    predict_all,
    save_model,
    train,
)
from .robust import ResilienceParams, br_mean, qr_med
from .scaling import (
    ScaledComparisonSet,
    UserAffine,
    mehestan_scale,
    minmax_scale,
    normalization_scale,
    parse_scaled_comparisons,
    write_scaled_comparisons,
    write_user_affines,
)
from .simgen import (
    GroundTruth,
    SimConfig,
    generate,
    true_classes,
    write_truth_theta,
    write_truth_users,
)

__all__ = [
    "Comparison",
    "ComparisonSet",
    "EquityReport",
    "FeatureTable",
    "GbtConfig",
    "GroundTruth",
    "IndividualScores",
    "LossWeights",
    "ModelParams",
    "ResilienceParams",
    "ScaledComparisonSet",
    "SimConfig",
    "TrainConfig",
    "TrainResult",
    "UserAffine",
    "br_mean",
    "build_report",
    "classify",
    "comparison_set",
    "expected_comparison",
    "fit_gbt",
    "gbt_gradient",
    "gbt_objective",
    "generate",
    "gini",
    "load_model",
    "lorenz_curve",
    "max_gap",
    "mehestan_scale",
    "minmax_scale",
    "normalization_scale",
    "parse_comparisons",
    "parse_features",
    "parse_scaled_comparisons",
    "per_user_metrics",
    "predict_all",
    "qr_med",
    "save_model",
    "split",
    "std_dev",
    "train",
    "true_classes",
    "write_comparisons",
    "write_features",
    "write_individual_scores",
    "write_scaled_comparisons",
    "write_truth_theta",
    "write_truth_users",
    "write_user_affines",
]
