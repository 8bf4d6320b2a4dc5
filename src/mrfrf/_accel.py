"""The two sequential recursions that dominate simulation runtime, in numpy.

``ss_filter`` runs a state-space system over a sampled signal and
``multirate_loop`` runs the multirate feedback loop; both accept systems
without states (zero-size A, B, C).
"""

import numpy as np

# Read by the benchmark's environment record; there is no compiled path.
NUMBA_ENABLED = False


def ss_filter(A, B, C, D, u, x0):
    """State-space recursion x+ = Ax + Bu, y = Cx + Du.

    u has shape (n_samples, n_in); returns y with shape (n_samples, n_out).
    """
    n_samples = u.shape[0]
    y = np.empty((n_samples, C.shape[0]))
    x = x0.copy()
    for n in range(n_samples):
        un = u[n]
        y[n] = C @ x + D @ un
        x = A @ x + B @ un
    return y


def multirate_loop(Ap, Bp, Cp, Dp, Aw, Bw, Cw, Dw, Ac, Bc, Cc, Dc,
                   Minv, F, r, eps_h, d, eps_l):
    """One run of the multirate feedback recursion.

    The plant and input filters advance every fast step; the controller reads
    the measured slow output once per slow step and its output is held for F
    fast steps.  The direct-feedthrough loop at the sampling instants is
    resolved with the precomputed inverse ``Minv = (I + Dp Dw Dc)^-1``.

    Shapes: r, d (n_fast, n_u); eps_h (n_fast, n_y); eps_l (n_slow, n_y).
    Returns (u, y, yl, status); status is the first slow step at which the
    plant state became non-finite or exceeded 1e100, or -1 if it stayed
    bounded.
    """
    n_fast = r.shape[0]
    n_slow = n_fast // F
    n_u = r.shape[1]
    n_y = Cp.shape[0]
    xp = np.zeros(Ap.shape[0])
    xw = np.zeros(Aw.shape[0])
    xc = np.zeros(Ac.shape[0])
    u = np.empty((n_fast, n_u))
    y = np.empty((n_fast, n_y))
    yl = np.empty((n_slow, n_y))
    for m in range(n_slow):
        n0 = m * F
        # measured output at the sampling instant, feedthrough loop resolved
        rhs = (Cp @ xp + Dp @ (r[n0] + d[n0] - Cw @ xw - Dw @ (Cc @ xc)
                               - Dw @ (Dc @ eps_l[m])) + eps_h[n0])
        y0 = Minv @ rhs
        ylm = y0 + eps_l[m]
        yl[m] = ylm
        v = Cc @ xc + Dc @ ylm
        for i in range(F):
            n = n0 + i
            w = Cw @ xw + Dw @ v
            un = r[n] - w
            u[n] = un
            pin = un + d[n]
            if i == 0:
                y[n] = y0
            else:
                y[n] = Cp @ xp + Dp @ pin + eps_h[n]
            xp = Ap @ xp + Bp @ pin
            xw = Aw @ xw + Bw @ v
        xc = Ac @ xc + Bc @ ylm
        if not np.abs(xp).max(initial=0.0) <= 1e100:
            return u, y, yl, m
    return u, y, yl, -1
