"""SISO pole placement via Ackermann's formula (paper Section III).

For the closed loop ``x[k+1] = (A + B K) x[k]`` with a *row* gain ``K``
(the paper's convention ``u = K x + F r``), Ackermann's formula places
the eigenvalues of ``A + B K`` at the desired locations:

``K = -e_l^T  Ctrb(A, B)^{-1}  phi(A)``

where ``phi`` is the desired characteristic polynomial and ``e_l`` the
last unit vector.
"""

from __future__ import annotations

import numpy as np

from ..errors import ControlError


def controllability_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kalman controllability matrix ``[B, AB, ..., A^{l-1} B]``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    order = a.shape[0]
    columns = np.empty((order, order))
    column = b.copy()
    for i in range(order):
        columns[:, i] = column
        column = a @ column
    return columns


def _poly_recurrence(roots: np.ndarray) -> np.ndarray:
    """Complex coefficients of ``prod (z - r_i)`` for each row of ``roots``.

    ``roots`` is ``(N, l)``; the result is ``(N, l + 1)``, leading
    coefficient first.  This is ``np.poly``'s recurrence — one
    ``np.convolve(a, [1, -r])`` per root — re-derived element-wise so it
    runs across all rows at once.  Each convolve output is a complex dot
    product of two neighbouring coefficients ``(a', a)`` against
    ``(w, 1 + 0j)`` with ``w = -r``.  Because every product except
    ``a' w`` has a factor of exactly 1 or 0, the dot kernel's
    fused-multiply-add chain reduces to separately rounded operations:
    ``re = (a'_r w_r + a_r) - (a'_i w_i + a_i 0)`` and
    ``im = (a'_r w_i + a_r 0) + (a'_i w_r + a_i)``.  Those are what this
    function evaluates, so its coefficients equal ``np.poly``'s bit for
    bit (before ``np.poly`` drops the imaginary part of a
    conjugate-closed set).
    """
    roots = np.asarray(roots, dtype=complex)
    n_rows, order = roots.shape
    w_r = -roots.real
    w_i = -roots.imag
    re = np.zeros((n_rows, order + 1))
    im = np.zeros((n_rows, order + 1))
    re[:, 0] = 1.0
    for k in range(order):
        # The leading coefficient stays 1; column k + 1 is still zero.
        prev_r, prev_i = re[:, :k + 1], im[:, :k + 1]
        cur_r, cur_i = re[:, 1:k + 2], im[:, 1:k + 2]
        wr = w_r[:, k, None]
        wi = w_i[:, k, None]
        new_r = (prev_r * wr + cur_r) - (prev_i * wi + cur_i * 0.0)
        new_i = (prev_r * wi + cur_r * 0.0) + (prev_i * wr + cur_i)
        re[:, 1:k + 2] = new_r
        im[:, 1:k + 2] = new_i
    coefficients = np.empty((n_rows, order + 1), dtype=complex)
    coefficients.real = re
    coefficients.imag = im
    return coefficients


def _real_coefficients_batch(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real characteristic coefficients per row of ``roots``, and a mask.

    Returns ``(coefficients (N, l + 1), bad (N,))``.  A row is bad when
    its roots are not closed under conjugation (``np.poly``'s test) and
    its coefficients keep an imaginary residue above
    ``1e-8 * max(1, max |c|)``.  A NaN magnitude does not raise that
    bound, as with Python's ``max``.
    """
    roots = np.asarray(roots, dtype=complex)
    coefficients = _poly_recurrence(roots)
    closed = np.all(
        np.sort(roots, axis=1) == np.sort(roots.conjugate(), axis=1), axis=1
    )
    residue = np.abs(coefficients.imag).max(axis=1)
    scale = np.fmax(1.0, np.abs(coefficients).max(axis=1))
    bad = ~closed & (residue > 1e-8 * scale)
    return coefficients.real.copy(), bad


def _real_characteristic_coefficients(poles: np.ndarray) -> np.ndarray:
    """Coefficients of ``prod (z - p_i)``; poles must be conjugate-closed."""
    coefficients, bad = _real_coefficients_batch(
        np.asarray(poles, dtype=complex).reshape(1, -1)
    )
    if bad[0]:
        raise ControlError(
            "desired poles must be closed under complex conjugation; "
            f"got {poles}"
        )
    return coefficients[0]


def place_poles_siso(
    a: np.ndarray,
    b: np.ndarray,
    poles: np.ndarray,
    rcond: float = 1e-12,
) -> np.ndarray:
    """Row gain ``K`` such that ``eig(A + B K)`` equals ``poles``.

    Parameters
    ----------
    a, b:
        System matrix ``(l, l)`` and input vector ``(l,)``.
    poles:
        ``l`` desired eigenvalues, closed under conjugation.
    rcond:
        Conditioning threshold for the controllability matrix.

    Raises
    ------
    ControlError
        If the pair is (numerically) uncontrollable or the pole list has
        the wrong length / is not conjugate-closed.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    order = a.shape[0]
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    if poles.shape != (order,):
        raise ControlError(
            f"need exactly {order} poles for an order-{order} system, "
            f"got {poles.shape[0]}"
        )
    ctrb = controllability_matrix(a, b)
    scale = np.abs(ctrb).max()
    if scale == 0 or 1.0 / np.linalg.cond(ctrb) < rcond:
        raise ControlError("pair (A, B) is numerically uncontrollable")
    coefficients = _real_characteristic_coefficients(poles)
    # phi(A) = A^l + c_1 A^{l-1} + ... + c_l I
    phi = np.zeros_like(a)
    power = np.eye(order)
    for coefficient in coefficients[::-1]:
        phi += coefficient * power
        power = power @ a
    last_row = np.zeros(order)
    last_row[-1] = 1.0
    k_row = np.linalg.solve(ctrb.T, last_row)
    return -(k_row @ phi)
