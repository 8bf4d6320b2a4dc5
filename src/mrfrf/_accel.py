"""The one sequential recursion of the simulator, in numpy.

``ss_filter`` runs a state-space system x_{n+1} = A x_n + B v_n,
y_n = C x_n + D v_n from rest over a record v.  B v and y come from
whole-record matrix products, so the sequential part is one matrix-vector
product and one add per sample.  ``lti.filter_signal`` calls it at the
system's own rate, and ``multirate_loop`` at the slow rate: over one slow step
the period-F loop is a time-invariant system (Bittanti & Colaneri, *Periodic
Systems*, 2009), which ``lifted_step`` unrolls.  Both accept systems without
states (zero-size A, B, C).  The loop's records agree with the per-fast-step
recursion (the reference of ``tests/test_kernels.py``) to rounding, at most
about 2e-13 of their peak on the benchmark loops, not bit for bit; they are
the same bits on every run.
"""

import numpy as np

# Read by the benchmark's environment record; there is no compiled path.
NUMBA_ENABLED = False


def ss_filter(A, B, C, D, v):
    """Run x_{n+1} = A x_n + B v_n, y_n = C x_n + D v_n from x_0 = 0 over
    the rows of v.  Returns the state trajectory X (rows x_0 ... x_N) and y,
    one row per row of v."""
    X = np.empty((v.shape[0] + 1, A.shape[0]))
    X[0] = 0.0
    np.matmul(v, B.T, out=X[1:])
    for x, x_next in zip(X, X[1:]):
        x_next += A.dot(x)
    y = X[:-1] @ C.T
    y += v @ D.T
    return X, y


def lifted_step(Ap, Bp, Cp, Dp, Aw, Bw, Cw, Dw, Ac, Bc, Cc, Dc, Minv, F):
    """One slow step of the loop unrolled: (A, B, C, D) of
    x_{m+1} = A x_m + B v_m and [u_m; y_m] = C x_m + D v_m.

    x stacks the plant, input-filter and controller states.  v_m stacks the
    F samples of r in slow step m, its F samples of d, eps_h at its sample
    instant and eps_l.  u_m and y_m stack the step's F fast samples
    offset-major, as lift() does.  The y rows after the sample instant leave
    out their own eps_h sample, which reaches nothing else; multirate_loop
    adds it elementwise.
    """
    n_u, n_y = Bp.shape[1], Cp.shape[0]
    sizes = (Ap.shape[0], Aw.shape[0], Ac.shape[0], F * n_u, F * n_u, n_y, n_y)
    nx = sum(sizes[:3])
    # every quantity below is the matrix that maps [x; v] to its value
    xp, xw, xc, r, d, e0, el = np.split(np.eye(sum(sizes)),
                                        np.cumsum(sizes)[:-1])
    r, d = r.reshape(F, n_u, -1), d.reshape(F, n_u, -1)
    # the sample instant, the loop's direct feedthrough resolved by Minv
    y0 = Minv @ (Cp @ xp + Dp @ (r[0] + d[0] - Cw @ xw - Dw @ (Cc @ xc)
                                 - Dw @ (Dc @ el)) + e0)
    yl = y0 + el
    v = Cc @ xc + Dc @ yl
    u, y = [], [y0]
    for i in range(F):
        u.append(r[i] - Cw @ xw - Dw @ v)
        p = u[i] + d[i]
        if i:
            y.append(Cp @ xp + Dp @ p)
        xp = Ap @ xp + Bp @ p
        xw = Aw @ xw + Bw @ v
    xc = Ac @ xc + Bc @ yl
    step, out = np.vstack((xp, xw, xc)), np.vstack(u + y)
    return step[:, :nx], step[:, nx:], out[:, :nx], out[:, nx:]


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
    bounded.  The loop runs as its lifted slow-rate system (see the module
    docstring); yl is y at the sample instants plus eps_l.
    """
    A, B, C, D = lifted_step(Ap, Bp, Cp, Dp, Aw, Bw, Cw, Dw, Ac, Bc, Cc, Dc,
                             Minv, F)
    n_fast, n_u = r.shape
    n_y = Cp.shape[0]
    n_slow = n_fast // F
    n_hold = n_slow * F
    e3 = eps_h[:n_hold].reshape(n_slow, F, n_y)
    # row m holds slow step m's inputs in lifted_step's order
    v = np.hstack((r[:n_hold].reshape(n_slow, -1),
                   d[:n_hold].reshape(n_slow, -1), e3[:, 0], eps_l[:n_slow]))
    with np.errstate(all="ignore"):     # past a tripped guard, inf and NaN
        X, out = ss_filter(A, B, C, D, v)
        # the plant state after each slow step, as the per-step guard reads it
        bounded = np.abs(X[1:, :Ap.shape[0]]).max(axis=1, initial=0.0) <= 1e100
        # allocated after the runner so as not to add to its memory peak
        u = np.empty((n_fast, n_u))
        y = np.empty((n_fast, n_y))
        u[:n_hold].reshape(n_slow, -1)[:] = out[:, :F * n_u]
        y3 = y[:n_hold].reshape(n_slow, F, n_y)
        y3[:] = out[:, F * n_u:].reshape(n_slow, F, n_y)
        y3[:, 1:] += e3[:, 1:]
        yl = y3[:, 0] + eps_l[:n_slow]
    status = int(np.argmin(bounded)) if not bounded.all() else -1
    return u, y, yl, status
