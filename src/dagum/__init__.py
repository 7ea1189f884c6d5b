"""Numerical toolkit for complete monotonicity of the Dagum correlation
family and its auxiliary families: kernel evaluation, threshold functions,
three-valued permissibility verdicts, and empirical positive-definiteness
validation."""

from . import classify, errors, fields, kernels, models, numerics, taylor

__version__ = "0.1.0"
