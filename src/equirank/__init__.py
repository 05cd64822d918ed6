"""Equity-aware pairwise learning-to-rank pipeline.

Parse pairwise comparison datasets, rescale per-user scores (min-max,
normalization, or collaborative Mehestan-style scaling on GBT-fitted latent
scores), train a desk-scale linear ranking model with a configurable loss
menu and optional per-user embeddings, and audit per-user equity (accuracy
gap, standard deviation, Gini coefficient, Lorenz curve) against a
synthetic voter population with known ground truth.

The package exports only `__version__`; each layer is imported from its module.
"""

__version__ = "0.1.0"
