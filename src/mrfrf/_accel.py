"""The two sequential recursions that dominate simulation runtime, in numpy.

``ss_filter`` runs a state-space system over a sampled signal and
``multirate_loop`` runs the multirate feedback loop; both accept systems
without states (zero-size A, B, C).

``multirate_loop`` runs one hold block per slow step: the sample instant,
the input filters over the hold, the plant input for all F fast steps in two
elementwise operations, then the plant, the controller and the guard.  Each
matrix-vector product keeps the operands, shapes and order of the
per-fast-step recursion with ``@`` (a matrix-matrix product would sum in
another order), so the records are bitwise those of that recursion, the
reference of ``tests/test_kernels.py``.  Products are bound once as
``M.dot``, skipping ``@``'s ufunc dispatch, except for a one-column M: there
dot can return -0.0 for a zero or underflowed product where matmul, which
sums from +0.0, returns +0.0.  Without input filter states ``Cw @ xw`` is
+0.0, so ``x - Cw @ xw`` is x and is dropped, while ``(+0.0) + Dw v`` turns
-0.0 into +0.0 and stays, as ``Dw v + 0.0``.  The output noise between
sample instants is added elementwise to the whole record in one call.
"""

from functools import partial

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


def _product(M):
    """(v, out=None) -> M v, with the bits of M @ v."""
    return M.dot if M.shape[1] > 1 else partial(np.matmul, M)


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
    bounded.  Each slow step is one hold block (see the module docstring).
    """
    n_fast = r.shape[0]
    n_slow = n_fast // F
    n_hold = n_slow * F
    n_u = r.shape[1]
    n_y = Cp.shape[0]
    ap, bp, cp, dp, aw, bw, cw, dw, ac, bc, cc, dc, minv = map(
        _product, (Ap, Bp, Cp, Dp, Aw, Bw, Cw, Dw, Ac, Bc, Cc, Dc, Minv))
    xp, xp_next, ax, bu = (np.zeros(Ap.shape[0]) for _ in range(4))
    xw, xc = np.zeros(Aw.shape[0]), np.zeros(Ac.shape[0])
    u = np.empty((n_fast, n_u))
    y = np.empty((n_fast, n_y))
    yl = np.empty((n_slow, n_y))
    cy, pin, w = np.empty(n_y), np.empty((F, n_u)), np.empty((F, n_u))
    p0, p_rest = pin[0], pin[1:]
    # (n_slow, F, .) views: row m is the hold block of slow step m
    r3 = r[:n_hold].reshape(n_slow, F, n_u)
    d3 = d[:n_hold].reshape(n_slow, F, n_u)
    e3 = eps_h[:n_hold].reshape(n_slow, F, n_y)
    u3 = u[:n_hold].reshape(n_slow, F, n_u)
    y3 = y[:n_hold].reshape(n_slow, F, n_y)
    rd0 = r3[:, 0] + d3[:, 0]
    stateful_w = Aw.shape[0] > 0
    status = -1
    steps = zip(rd0, e3[:, 0], eps_l, yl, y3[:, 0], r3, d3, u3, y3[:, 1:])
    for m, (rd_m, e0, el_m, yl_m, y0, r_m, d_m, u_m, ys) in enumerate(steps):
        # measured output at the sampling instant, feedthrough loop resolved
        cx = cc(xc)
        s = rd_m - cw(xw) - dw(cx) if stateful_w else rd_m - dw(cx)
        minv(cp(xp) + dp(s - dw(dc(el_m))) + e0, y0)
        np.add(y0, el_m, out=yl_m)
        v = cx + dc(yl_m)
        # input filters over the hold: they see only the held controller
        # output, never the plant; without states their output is constant
        if stateful_w:
            for w_i in w:
                np.add(cw(xw), dw(v), out=w_i)
                xw = aw(xw) + bw(v)
            wm = w
        else:
            wm = dw(v) + 0.0
        np.subtract(r_m, wm, out=u_m)
        np.add(u_m, d_m, out=pin)
        np.add(ap(xp, ax), bp(p0, bu), out=xp_next)
        xp, xp_next = xp_next, xp
        for y_i, p_i in zip(ys, p_rest):
            np.add(cp(xp, cy), dp(p_i, y_i), out=y_i)
            np.add(ap(xp, ax), bp(p_i, bu), out=xp_next)
            xp, xp_next = xp_next, xp
        xc = ac(xc) + bc(yl_m)
        if not np.abs(xp).max(initial=0.0) <= 1e100:
            status = m
            break
    # the output noise between sample instants, on every written block
    done = y3[:n_slow if status < 0 else status + 1, 1:]
    np.add(done, e3[:len(done), 1:], out=done)
    return u, y, yl, status
