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
    ComparisonSet,
    FeatureTable,
    parse_comparisons,
    parse_features,
    split,
    write_comparisons,
    write_features,
)
from .equity import (
    EquityReport,
    build_report,
    gini,
    lorenz_curve,
    max_gap,
    std_dev,
)
from .gbt import (
    GbtConfig,
    GbtFits,
    fit_users,
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
    Affines,
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
    write_truth_theta,
    write_truth_users,
)

__all__ = [
    "Affines",
    "ComparisonSet",
    "EquityReport",
    "FeatureTable",
    "GbtConfig",
    "GbtFits",
    "GroundTruth",
    "LossWeights",
    "ModelParams",
    "ResilienceParams",
    "SimConfig",
    "TrainConfig",
    "TrainResult",
    "br_mean",
    "build_report",
    "fit_users",
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
    "predict_all",
    "qr_med",
    "save_model",
    "split",
    "std_dev",
    "train",
    "write_comparisons",
    "write_features",
    "write_individual_scores",
    "write_scaled_comparisons",
    "write_truth_theta",
    "write_truth_users",
    "write_user_affines",
]
