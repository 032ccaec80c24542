"""Independent analytic-center reference, numpy only.

The harmonic center is the minimizer of the log barrier
``phi(x) = -sum log(b_i - A_i . x)`` (Sonnevend's analytic center), since
the f-vector is the barrier's gradient.  This module finds it by damped
Newton with Hessian ``A^T diag(1/S^2) A`` and a Newton-decrement stop
(Boyd & Vandenberghe, Convex Optimization, 9.5), calling no polycenter code.
"""

import numpy as np


def analytic_center(A, b, x0, decrement_tol=1e-16, max_iter=100):
    """Analytic center of ``{x : A x <= b}`` from strictly interior ``x0``.

    Stops when half the squared Newton decrement is below
    ``decrement_tol``, or at the rounding floor: when a decrement already
    below 1e-12 stops shrinking, or no step length decreases the barrier.  Rows need not be normalized: the barrier
    minimizer is invariant to per-row scaling.  Raises ``ValueError`` if
    ``x0`` is not interior or the iteration budget runs out.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float)
    s = b - A @ x
    if np.min(s) <= 0.0:
        raise ValueError("reference start is not strictly interior")
    phi = -np.sum(np.log(s))
    last = np.inf
    for _ in range(max_iter):
        r = 1.0 / s
        grad = A.T @ r
        hess = (A * (r * r)[:, None]).T @ A
        step = -np.linalg.solve(hess, grad)
        lam2 = float(-grad @ step)
        if lam2 / 2.0 <= decrement_tol or (last < 1e-12 and lam2 >= last):
            return x
        last = lam2
        t = 1.0
        while t >= 1e-12:
            xn = x + t * step
            sn = b - A @ xn
            if np.min(sn) > 0.0:
                phin = -np.sum(np.log(sn))
                if phin <= phi - 0.25 * t * lam2:
                    break
            t *= 0.5
        else:
            return x
        x, s, phi = xn, sn, phin
    raise ValueError("reference Newton solve did not converge")
