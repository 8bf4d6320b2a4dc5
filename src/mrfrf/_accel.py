"""The two sequential recursions that dominate simulation runtime, in numpy.

``ss_filter`` runs a state-space system over a sampled signal and
``multirate_loop`` runs the multirate feedback loop; both accept systems
without states (zero-size A, B, C).

``multirate_loop`` runs one hold block per slow step: the sample instant,
the input filters over the hold, the plant input for all F fast steps in two
elementwise operations, then the plant, the controller and the guard.  The
rule it keeps is that every matrix-vector product has the operands, shapes
and order of the per-fast-step recursion: none is regrouped, merged with
another or batched across steps (a matrix-matrix product sums in another
order), and no product is skipped for a signed-zero shortcut such as
``Dw @ v -> v``.  The records it produces are therefore bitwise those of the
per-fast-step recursion, which ``tests/test_kernels.py`` keeps as its
reference.
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
    bounded.  Each slow step is one hold block (see the module docstring);
    the input filters run first because they see only the held controller
    output, never the plant.
    """
    n_fast = r.shape[0]
    n_slow = n_fast // F
    n_hold = n_slow * F
    n_u = r.shape[1]
    n_y = Cp.shape[0]
    xp = np.zeros(Ap.shape[0])
    xw = np.zeros(Aw.shape[0])
    xc = np.zeros(Ac.shape[0])
    u = np.empty((n_fast, n_u))
    y = np.empty((n_fast, n_y))
    yl = np.empty((n_slow, n_y))
    # (n_slow, F, .) views: row m is the hold block of slow step m
    r3 = r[:n_hold].reshape(n_slow, F, n_u)
    d3 = d[:n_hold].reshape(n_slow, F, n_u)
    e3 = eps_h[:n_hold].reshape(n_slow, F, n_y)
    u3 = u[:n_hold].reshape(n_slow, F, n_u)
    y3 = y[:n_hold].reshape(n_slow, F, n_y)
    rd0 = r3[:, 0] + d3[:, 0]
    stateful_w = Aw.shape[0] > 0
    w = np.empty((F, n_u))
    for m in range(n_slow):
        # measured output at the sampling instant, feedthrough loop resolved
        cx = Cc @ xc
        rhs = (Cp @ xp + Dp @ (rd0[m] - Cw @ xw - Dw @ cx
                               - Dw @ (Dc @ eps_l[m])) + e3[m, 0])
        y0 = Minv @ rhs
        ylm = y0 + eps_l[m]
        yl[m] = ylm
        v = cx + Dc @ ylm
        # input filters over the hold; without states their output is one
        # vector, the same at every step
        if stateful_w:
            for i in range(F):
                w[i] = Cw @ xw + Dw @ v
                xw = Aw @ xw + Bw @ v
            wm = w
        else:
            wm = Cw @ xw + Dw @ v
        um = u3[m]
        np.subtract(r3[m], wm, out=um)
        pin = um + d3[m]
        ym = y3[m]
        em = e3[m]
        ym[0] = y0
        xp = Ap @ xp + Bp @ pin[0]
        for i in range(1, F):
            ym[i] = Cp @ xp + Dp @ pin[i] + em[i]
            xp = Ap @ xp + Bp @ pin[i]
        xc = Ac @ xc + Bc @ ylm
        if not np.abs(xp).max(initial=0.0) <= 1e100:
            return u, y, yl, m
    return u, y, yl, -1
