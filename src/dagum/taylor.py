"""Truncated Taylor-series arithmetic for exact high-order derivatives.

A :class:`TaylorSeries` stores the coefficients ``c_k = f^(k)(x0)/k!`` of a
function at an expansion point, up to a fixed truncation order.  The
arithmetic the catalog expressions need (+, -, *, /, real powers through
``powr``, and the series ``log`` of ``classify.lcm_scan``) is closed on that
order, so the n-th derivative of any catalog expression comes out exact to
rounding -- repeated finite differencing is hopeless beyond order ~4, the
recurrences below are not.

On a grid (vector mode), ``x0`` and each coefficient are equal-shape float
arrays and every recurrence runs elementwise in the same IEEE operations, so
column i is the series at ``x0[i]`` bit for bit: constant terms of logs and
powers come from Python's libm per element, not numpy's.

``powr`` accepts plain floats and ndarrays as well, so a model written
against it evaluates identically in ordinary, array and series arithmetic.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError

Scalar = Union[float, "TaylorSeries"]


class TaylorSeries:
    """Power-series jet of fixed length ``order + 1`` at ``x0``."""

    __slots__ = ("coeffs", "x0")

    def __init__(self, coeffs: Sequence[float], x0: float = 0.0):
        if len(coeffs) < 1:
            raise ValueError("need at least the constant coefficient")
        self.coeffs = tuple(c if isinstance(c, np.ndarray) else float(c) for c in coeffs)
        self.x0 = x0 if isinstance(x0, np.ndarray) else float(x0)

    @classmethod
    def variable(cls, x0: float, order: int) -> "TaylorSeries":
        """The identity function x, truncated at ``order``."""
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls([x0, 1.0][: order + 1] + [0.0] * (order - 1), x0)

    @classmethod
    def constant(cls, value: float, like: "TaylorSeries") -> "TaylorSeries":
        return cls([float(value)] + [0.0] * like.order, like.x0)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- arithmetic ---------------------------------------------------------

    def _lift(self, other) -> "TaylorSeries":
        if isinstance(other, TaylorSeries):
            if len(other.coeffs) != len(self.coeffs):
                raise ValueError("mixed truncation orders")
            if other.x0 is not self.x0 and np.any(other.x0 != self.x0):
                raise ValueError("mixed expansion points")
            return other
        return TaylorSeries.constant(float(other), self)

    def __add__(self, other) -> "TaylorSeries":
        o = self._lift(other)
        return TaylorSeries([a + b for a, b in zip(self.coeffs, o.coeffs)], self.x0)

    __radd__ = __add__

    def __neg__(self) -> "TaylorSeries":
        return TaylorSeries([-a for a in self.coeffs], self.x0)

    def __sub__(self, other) -> "TaylorSeries":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "TaylorSeries":
        return (-self) + other

    def __mul__(self, other) -> "TaylorSeries":
        o = self._lift(other)
        n = len(self.coeffs)
        a, b = self.coeffs, o.coeffs
        out = [0.0] * n
        for i in range(n):
            ai = a[i]
            if isinstance(ai, np.ndarray):
                # skip per element: x + (-0.0) is x, also for x = -0.0
                zero = ai == 0.0
                for j in range(n - i):
                    out[i + j] = out[i + j] + np.where(zero, -0.0, ai * b[j])
            elif ai != 0.0:
                for j in range(n - i):
                    out[i + j] += ai * b[j]
        return TaylorSeries(out, self.x0)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TaylorSeries":
        o = self._lift(other)
        if np.any(o.coeffs[0] == 0.0):
            raise ZeroDivisionError("division by series with zero constant term")
        n = len(self.coeffs)
        a, b = self.coeffs, o.coeffs
        out = [0.0] * n
        for i in range(n):
            acc = a[i]
            for j in range(1, i + 1):
                acc = acc - b[j] * out[i - j]  # not in place: a[i] may be an array
            out[i] = acc / b[0]
        return TaylorSeries(out, self.x0)

    def __rtruediv__(self, other) -> "TaylorSeries":
        return self._lift(other) / self


def _libm(f: Callable[[float], float], c0):
    """f of a constant term, per element through Python floats on a grid."""
    if isinstance(c0, np.ndarray):
        return np.array([f(c) for c in c0.tolist()], dtype=float)
    return f(c0)


def log(u: TaylorSeries) -> TaylorSeries:
    """The series of log u; DomainError unless its constant term is positive."""
    if np.any(u.coeffs[0] <= 0.0):
        raise DomainError("log of series requires positive constant term")
    n = len(u.coeffs)
    uc = u.coeffs
    out = [0.0] * n
    out[0] = _libm(math.log, uc[0])
    for k in range(1, n):
        acc = k * uc[k]
        for j in range(1, k):
            acc -= j * out[j] * uc[k - j]
        out[k] = acc / (k * uc[0])
    return TaylorSeries(out, u.x0)


def _series_powr(u: TaylorSeries, r: float) -> TaylorSeries:
    if np.any(u.coeffs[0] <= 0.0):
        raise DomainError("real power of series requires positive constant term")
    n = len(u.coeffs)
    uc = u.coeffs
    out = [0.0] * n
    out[0] = _libm(lambda c: c ** r, uc[0])
    for k in range(1, n):
        acc = 0.0
        for j in range(1, k + 1):
            acc += (r * j - (k - j)) * uc[j] * out[k - j]
        out[k] = acc / (k * uc[0])
    return TaylorSeries(out, u.x0)


def powr(u: Scalar, r: float) -> Scalar:
    """u**r for real r, elementwise on an ndarray; u must be nonnegative
    (nonzero for r < 0; the constant term positive for series)."""
    if isinstance(u, TaylorSeries):
        return _series_powr(u, r)
    if np.any(u < 0.0) or (r < 0.0 and np.any(u == 0.0)):  # a float or every entry
        raise DomainError("real power requires a nonnegative base")
    return u ** r


def taylor_eval(fn: Callable[[Scalar], Scalar], x0, order: int) -> TaylorSeries:
    """Series of ``fn`` at ``x0``: coefficient k is f^(k)(x0)/k!.

    ``x0`` is a point or a grid; on a grid every coefficient is an array with
    one element per point, equal bit for bit to the series at that point.
    ``fn`` must be written against ``powr`` and the arithmetic operators.
    Domain restrictions (positivity for powers) surface from the expression
    itself, so a polynomial may be expanded anywhere.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if np.ndim(x0) == 0:
        x = TaylorSeries.variable(x0, order)
        y = fn(x)
        return y if isinstance(y, TaylorSeries) else TaylorSeries.constant(float(y), x)
    xs = np.asarray(x0, dtype=float)
    with np.errstate(all="ignore"):  # Python float arithmetic gives inf and nan silently
        y = fn(TaylorSeries.variable(xs, order))
    coeffs = y.coeffs if isinstance(y, TaylorSeries) else [y] + [0.0] * order
    return TaylorSeries([np.broadcast_to(c, xs.shape) for c in coeffs], xs)

