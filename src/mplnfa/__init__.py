"""Mixtures of Poisson-log-normal factor analyzers for count data.

Clusters multivariate counts (for example RNA-seq expression) by
fitting a family of eight parsimoniously constrained mixture models
on a latent log scale, selecting among them with penalized likelihood
scores.  See the README for the model family and usage.
"""

__version__ = "0.1.0"
