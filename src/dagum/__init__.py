"""Numerical toolkit for complete monotonicity of the Dagum correlation
family and its auxiliary families: kernel evaluation, threshold functions,
three-valued permissibility verdicts, and empirical positive-definiteness
validation.

Importing the package loads none of its modules; each is imported by name
(``from dagum.classify import psi_max``), so a command loads only what it runs.
"""

__version__ = "0.1.0"
