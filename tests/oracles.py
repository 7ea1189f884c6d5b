"""Kernel oracles that acceptance criterion 04 and ``tests/test_kernels.py``
compare the library against, and that no command calls.

``rho_kernel`` and ``tau_kernel`` give the contour's side of criterion 04's
tau cross-route check (tau = psi - rho, against the spectral rule's
``psi_values`` minus ``rho_kernel``), and ``laplace_check`` integrates a
kernel's Laplace transform by QUADPACK (``dagum.numerics.integrate``, which
loads scipy, a dependency of the ``test`` extra only).
"""

from __future__ import annotations

import math
from typing import Optional

from dagum.errors import DomainError
from dagum.kernels import (
    KernelValue,
    _closed_forms,
    _grid,
    _on_contour,
    _osc,
    eta,
    phi_callable,
    spectral_rule,
)
from dagum.numerics import integrate


def rho_kernel(beta: float, t: float) -> float:
    """1 - (2/b) exp(t cos(pi/b)) cos(t sin(pi/b)); closed form on [1, 2]."""
    _closed_forms(beta)  # DomainError unless 1 <= b <= 2
    _grid(t)  # DomainError unless t is finite and >= 0
    return float(1.0 + _osc(beta, t, 0.0))


def tau_kernel(beta: float, t: float) -> KernelValue:
    """Completely monotonic remainder tau_b(t) = psi_b(t) - rho_b(t) for
    1 < b < 2: -_osc(b, t, 0) - (1 - psi_b), with 1 - psi_b the contour's
    inversion of s^(b-1) / (1 + s^b); tau_b(0) = 2/b - 1 exactly.
    """
    if not 1.0 < beta < 2.0:
        raise DomainError("tau kernel requires beta in (1, 2)")
    v, e = _on_contour(1.0 - beta, beta, t, 1.0)
    return KernelValue(-float(_osc(beta, t, 0.0)) - v, e, "contour")


def laplace_check(kernel: str, beta: float, x: float, alpha: Optional[float] = None) -> float:
    """|numeric Laplace transform - closed-form target| as a validation probe.

    Targets: phi -> 1/(1+x^b); psi -> 1/(x(1+x^b));
    eta (needs alpha) -> 1/(x^a (1+x^b)).
    """
    if not x > 0.0:
        raise DomainError("laplace check requires x > 0")
    forms = _closed_forms(beta)

    if kernel == "phi":
        phi_vec = phi_callable(beta)
        f = lambda t: math.exp(-x * t) * float(phi_vec(t)[0])  # noqa: E731
        target = 1.0 / (1.0 + x ** beta)
    elif kernel == "psi":
        psi_vec = forms[1] if forms else spectral_rule(beta).psi_values
        f = lambda t: math.exp(-x * t) * float(psi_vec(t)[0])  # noqa: E731
        target = 1.0 / (x * (1.0 + x ** beta))
    elif kernel == "eta":
        if alpha is None or alpha <= 0.0:
            raise DomainError("eta kernel needs alpha > 0")
        f = lambda t: math.exp(-x * t) * eta(alpha, beta, t).value if t > 0 else 0.0  # noqa: E731
        target = 1.0 / (x ** alpha * (1.0 + x ** beta))
    else:
        raise ValueError("kernel must be one of 'phi', 'psi', 'eta'")

    value, _ = integrate(f, 0.0, math.inf)
    return abs(value - target)
