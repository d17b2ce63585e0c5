"""Exact harmonic transfer functions of the switched linearisation.

The linearisation ``A(t)`` is piecewise constant: ``A_on`` on
``[t_hat, t_hat + duty*T)`` and ``A_off`` on the rest of the period.  For
the input ``u(t) = exp(j*w*t)`` the steady state is ``x(t) = p(t) exp(j*w*t)``
with ``p`` T-periodic and

    p' = (A(t) - j*w*I) p + B,

so (harmonic balance, Wereley & Hall 1990)

    G_n(j*w) = (1/T) * integral over one period of C p(t) exp(-j*n*w_p*t) dt
               + D * [n == 0].

On one interval of length ``tau`` the augmented state
``z = [exp(-j*n*w_p*s) p(s); exp(-j*n*w_p*s); q(s)]`` with ``q' = C z[:ns]``
is linear and constant-coefficient, so one matrix exponential of

    [[A - j(w + n*w_p)I, B,           0],
     [0,                 -j*n*w_p,    0],
     [C,                 0,           0]] * tau

gives both the interval's transition (the top-left blocks, up to the
factor ``exp(-j*n*w_p*tau)``) and its Fourier integral ``q(tau)``
(Van Loan, IEEE TAC 1978).  Nothing here is truncated: the only error is
that of ``scipy.linalg.expm``.  This module is independent of the HSS
code under test; it only reads the matrices, duty, switch phase and
period of a ``SwitchedLinearization``.
"""

import math

import numpy as np
from scipy.linalg import expm


def _interval_maps(A, B, C, tau, w, n, w_p):
    """Transition, forcing and Fourier-integral maps of one interval.

    Returns ``(Phi, g, qx, q1)`` stacked over ``w`` such that over the
    interval ``p(end) = Phi p(start) + g`` and
    ``integral C p(s) exp(-j*n*w_p*s) ds = qx @ p(start) + q1``.
    """
    ns = A.shape[0]
    size = ns + 2
    aug = np.zeros((w.size, size, size), dtype=complex)
    aug[:, :ns, :ns] = A[None, :, :]
    idx = np.arange(ns)
    aug[:, idx, idx] -= 1j * (w[:, None] + n * w_p)
    aug[:, :ns, ns] = B[:, 0]
    aug[:, ns, ns] = -1j * n * w_p
    aug[:, ns + 1, :ns] = C[0]
    E = expm(aug * tau)
    undo = np.exp(1j * n * w_p * tau)
    return E[:, :ns, :ns] * undo, E[:, :ns, ns] * undo, E[:, ns + 1, :ns], E[:, ns + 1, ns]


def _htf_input(lin, w, n):
    """G_n(j*w) in the input convention for one order n over the array w."""
    T = float(lin.T)
    w_p = 2.0 * math.pi / T
    tau_on = float(lin.duty) * T
    intervals = [
        (np.asarray(lin.A_on, dtype=float), tau_on, float(lin.t_hat)),
        (np.asarray(lin.A_off, dtype=float), T - tau_on, float(lin.t_hat) + tau_on),
    ]
    B = np.asarray(lin.B, dtype=float).reshape(-1, 1)
    C = np.asarray(lin.C, dtype=float).reshape(1, -1)
    maps = [_interval_maps(A, B, C, tau, w, n, w_p) for A, tau, _ in intervals]
    (Phi1, g1, _, _), (Phi2, g2, _, _) = maps
    eye = np.eye(B.shape[0])
    # Periodic state at the start of the first interval.
    rhs = (Phi2 @ g1[:, :, None])[:, :, 0] + g2
    p_on = np.linalg.solve(eye - Phi2 @ Phi1, rhs[:, :, None])[:, :, 0]
    p_off = (Phi1 @ p_on[:, :, None])[:, :, 0] + g1
    total = np.zeros(w.size, dtype=complex)
    for (_, _, qx, q1), p_start, (_, _, t_start) in zip(maps, (p_on, p_off), intervals):
        q = np.einsum("pi,pi->p", qx, p_start) + q1
        total += np.exp(-1j * n * w_p * t_start) * q
    G = total / T
    if n == 0:
        G = G + float(np.asarray(lin.D).reshape(-1)[0])
    return G


def exact_htf(lin, omega, orders, convention="input"):
    """Exact G_n on the grid ``omega`` (rad/s) for every n in ``orders``.

    ``convention`` follows ``htfid.hss``: "input" evaluates G_n at the
    input frequency, "output" at the output frequency, so the output
    value at w is the input value at ``w - n*w_p``.  Returns a dict
    ``{n: complex array}``.
    """
    if convention not in ("input", "output"):
        raise ValueError("convention must be 'input' or 'output'")
    omega = np.asarray(omega, dtype=float)
    w_p = 2.0 * math.pi / float(lin.T)
    out = {}
    for n in orders:
        w = omega - n * w_p if convention == "output" else omega
        out[n] = _htf_input(lin, w, n)
    return out


def relative_error(reference, candidate):
    """max over n and grid of |candidate - reference| / max|reference G_0|."""
    scale = float(np.max(np.abs(reference[0])))
    return max(
        float(np.max(np.abs(np.asarray(candidate[n]) - reference[n]))) / scale
        for n in reference
    )
