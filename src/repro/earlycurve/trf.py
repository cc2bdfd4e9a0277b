"""Trust Region Reflective least squares on the non-negative orthant.

This is scipy 1.17.1's ``scipy.optimize.least_squares(method="trf")``
specialised to the one problem EarlyCurve solves: bounds ``[0, inf)``
on every variable, ``x_scale`` 1, linear loss, the exact (SVD)
trust-region solver, a 2-point forward-difference Jacobian and the
default 1e-8 tolerances.  :func:`trf_nonnegative` returns the bits of
``least_squares(fun, x0, bounds=(0, inf), method="trf",
max_nfev=max_nfev).x``; ``tests/test_earlycurve.py`` checks that
against the installed scipy.  Dropped are the wrapper layers (input
checks, ``VectorFunction``, ``approx_derivative``) and the branches
this problem cannot take (finite upper bounds, robust losses, ``lsmr``,
Jacobian scaling, callbacks).  Every floating-point expression of
``trf_bounds`` and its helpers is kept with scipy's operand order, and
every array handed to BLAS has scipy's memory layout, so each kernel
sums in scipy's order.  Three things change how, not what, is
computed:

* a Jacobian's n forward-difference points are evaluated as one
  ``(n, m)`` residual array, elementwise identical to n calls, and the
  Jacobian is kept as scipy keeps it, the transpose of a C-ordered
  array, so ``J.T.dot(f)`` runs the same kernel;
* vector norms are ``numpy.linalg.norm``'s own 1-D code paths,
  ``sqrt(x.dot(x))`` and ``abs(x).max()``, without its dispatch;
* the SVD calls LAPACK ``gesdd`` through the public
  ``scipy.linalg.get_lapack_funcs``, with the workspace size
  ``scipy.linalg.svd`` queries, cached per shape.  ``scipy.linalg`` is
  imported on the first solve, so importing this module costs nothing.

Transcribed from SciPy's ``optimize/_lsq/trf.py``, ``_lsq/common.py``,
``_lsq/least_squares.py`` and ``_numdiff.py``: Copyright (c) 2001-2002
Enthought, Inc., 2003 SciPy Developers; BSD 3-Clause License.
"""

from __future__ import annotations

import functools
from math import copysign
from typing import Callable

import numpy as np

_EPS = np.finfo(float).eps

#: ``least_squares``'s default ``ftol``, ``xtol`` and ``gtol``.
_TOLERANCE = 1e-8

#: ``approx_derivative``'s relative 2-point step for float64.
_DIFF_STEP = _EPS**0.5

#: ``make_strictly_feasible``'s default relative distance from a bound,
#: which ``least_squares`` applies to ``x0``.
_FEASIBLE_STEP = 1e-10

#: ``np.nextafter(0, inf)``, where ``make_strictly_feasible(rstep=0)``
#: moves a variable that reached its bound of 0.
_ABOVE_ZERO = np.nextafter(0.0, np.inf)


def _norm(x: np.ndarray) -> np.floating:
    """``numpy.linalg.norm(x)`` of a contiguous 1-D float array."""
    return np.sqrt(x.dot(x))


@functools.lru_cache(maxsize=1024)
def _gesdd_for(shape: tuple[int, int]):
    """The LAPACK ``gesdd`` that ``scipy.linalg.svd`` picks for a
    C-ordered float64 matrix of ``shape``, and the workspace size it
    queries for a thin SVD of it."""
    from scipy.linalg import get_lapack_funcs

    gesdd, gesdd_lwork = get_lapack_funcs(
        ("gesdd", "gesdd_lwork"), (np.empty(shape),), ilp64="preferred"
    )
    work, info = gesdd_lwork(*shape, compute_uv=True, full_matrices=False)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    return gesdd, int(work.real)


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``scipy.linalg.svd(a, full_matrices=False)`` of a C-ordered
    float64 matrix."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    gesdd, lwork = _gesdd_for(a.shape)
    u, s, vt, info = gesdd(
        a, compute_uv=True, lwork=lwork, full_matrices=False, overwrite_a=False
    )
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    return u, s, vt


def _jacobian(residual_rows, x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``approx_derivative(fun, x, method="2-point", f0=f, bounds=(0,
    inf))`` at a strictly positive x, where the forward step
    ``sqrt(eps) * max(1, |x|)`` never leaves the bounds.  Row i of the
    stepped points is x with x[i] + h[i] in place i."""
    n = len(x)
    h = _DIFF_STEP * np.maximum(1.0, np.abs(x))
    x_stepped = x + h
    dx = x_stepped - x
    points = np.empty((n, n))
    points[:] = x
    points.flat[:: n + 1] = x_stepped
    jac_transposed = (residual_rows(points) - f) / dx[:, np.newaxis]
    return jac_transposed.T


def _scaling_vector(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``CL_scaling_vector(x, g, 0, inf)``: v is x - 0, that is x, where
    the gradient points into the bound and 1 elsewhere; dv is dv/dx."""
    mask = g > 0
    return np.where(mask, x, 1.0), mask.astype(float)


def _step_size_to_bound(x: np.ndarray, s: np.ndarray) -> tuple[np.floating, np.ndarray]:
    """``step_size_to_bound(x, s, 0, inf)``: the step along ``s`` to the
    first bound, and which variables hit it there.  Only a negative
    component can reach the bound of 0."""
    steps = np.empty_like(x)
    steps.fill(np.inf)
    down = s < 0
    with np.errstate(over="ignore"):
        steps[down] = (0.0 - x[down]) / s[down]
    min_step = steps.min()
    return min_step, (steps == min_step) & (s != 0)


def _intersect_trust_region(x, s, Delta):
    """The roots t of ``||x + s t|| = Delta``, smaller first."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)  # Root from one fourth of the discriminant.
    q = -(b + copysign(d, b))
    t1 = q / a
    t2 = c / q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _phi_and_derivative(alpha, suf, s, Delta):
    denom = s**2 + alpha
    p_norm = _norm(suf / denom)
    phi = p_norm - Delta
    phi_prime = -(suf**2 / denom**3).sum() / p_norm
    return phi, phi_prime


def _solve_lsq_trust_region(n, m, uf, s, V, Delta, initial_alpha, rtol=0.01, max_iter=10):
    """More's trust-region step from one SVD: the step p and the
    Levenberg-Marquardt parameter alpha."""
    suf = s * uf
    full_rank = m >= n and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= Delta:
            return p, 0.0

    alpha_upper = _norm(suf) / Delta
    if full_rank:
        phi, phi_prime = _phi_and_derivative(0.0, suf, s, Delta)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0

    if not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    else:
        alpha = initial_alpha

    for _ in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = _phi_and_derivative(alpha, suf, s, Delta)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < rtol * Delta:
            break

    p = -V.dot(suf / (s**2 + alpha))
    p *= Delta / _norm(p)
    return p, alpha


def _update_tr_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of the model ``0.5 q^T (J^T J + diag) q + g^T q``
    along ``q = s0 + s t``: ``a t^2 + b t (+ c)``."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _evaluate_quadratic(J, g, s, diag):
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, theta):
    """The best of the trust-region step, its reflection off the first
    bound it crosses, and the constrained Cauchy step."""
    if (x + p >= 0).all():
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p)

    # Reflect the direction off the bound, and cut the step at the bound.
    r_h = np.copy(p_h)
    r_h[hits] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    # The reflected direction leaves first either the feasible region or
    # the trust region; bound its step so the point stays interior.
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # Step back from the bound to stay strictly interior.
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr
    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


def trf_nonnegative(
    residual_rows: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    max_nfev: int,
) -> np.ndarray:
    """Minimise ``0.5 * ||f(x)||**2`` subject to ``x >= 0``.

    ``residual_rows`` maps an ``(r, n)`` array of points to the ``(r, m)``
    array of their residual vectors, each row equal to what that point
    alone would give.  Returns what ``least_squares(f, x0, bounds=(0,
    inf), method="trf", max_nfev=max_nfev).x`` returns, bit for bit.
    """
    x0 = np.atleast_1d(x0).astype(float)
    if not (x0 >= 0).all():
        raise ValueError("Initial guess is outside of provided bounds")
    # make_strictly_feasible(x0, 0, inf) moves x0 to 0 + rstep * max(1, |0|).
    x0[x0 <= _FEASIBLE_STEP] = _FEASIBLE_STEP
    f = residual_rows(x0[np.newaxis])[0]
    if not np.isfinite(f).all():
        raise ValueError("Residuals are not finite in the initial point.")
    J = _jacobian(residual_rows, x0, f)

    # trf_bounds from here.
    x = x0.copy()
    nfev = 1
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v, dv = _scaling_vector(x, g)
    Delta = _norm(x0 / v**0.5)
    if Delta == 0:
        Delta = 1.0

    f_augmented = np.zeros(m + n)
    J_augmented = np.zeros((m + n, n))
    J_h = J_augmented[:m]  # Memory view.
    # The diagonal of the bottom n rows, whose other entries stay 0.
    diag_augmented = J_augmented[m:].reshape(-1)[:: n + 1]
    alpha = 0.0  # "Levenberg-Marquardt" parameter

    while True:
        v, dv = _scaling_vector(x, g)
        g_norm = np.abs(g * v).max()
        if g_norm < _TOLERANCE or nfev == max_nfev:
            break

        # The trust-region problem in "hat" space.
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        np.multiply(J, d, out=J_h)
        diag_augmented[:] = diag_h**0.5
        U, s, V = _svd(J_augmented)
        V = V.T
        uf = U.T.dot(f_augmented)

        # theta controls step back step ratio from the bounds.
        theta = max(0.995, 1 - g_norm)
        x_norm = _norm(x)
        terminated = False
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h  # Trust-region solution in the original space.
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, theta
            )
            # make_strictly_feasible(x + step, 0, inf, rstep=0); a finite
            # step cannot carry a variable to inf.
            x_new = x + step
            x_new[x_new <= 0] = _ABOVE_ZERO
            f_new = residual_rows(x_new[np.newaxis])[0]
            nfev += 1
            step_h_norm = _norm(step_h)
            if not np.isfinite(f_new).all():
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * Delta,
            )
            # check_termination: the ftol or the xtol test passes.
            terminated = (
                actual_reduction < _TOLERANCE * cost and ratio > 0.25
            ) or _norm(step) < _TOLERANCE * (_TOLERANCE + x_norm)
            if terminated:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new

        if terminated:
            # scipy evaluates one more Jacobian at an accepted point here;
            # it only feeds the status, not x.
            return x_new if actual_reduction > 0 else x
        if actual_reduction > 0:
            x = x_new
            f = f_new
            cost = cost_new
            J = _jacobian(residual_rows, x, f)
            g = J.T.dot(f)
    return x
