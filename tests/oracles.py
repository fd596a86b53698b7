"""Independent references for the seeking laws and the games, written term by term.

``control.stacked_*`` is each law's one definition and the integrator runs
it.  The tests check it against these: the per-player law as the paper
writes it, one sum per term, and the assembled Kronecker form of the
estimate dynamics.  A game's one gradient is its vectorized
``profile_gradient``; the built-in games are checked against the per-player
gradients below, gradient(i, x_i, x_others) with x_others the other
players' decisions stacked in index order.

The run folds a drift-free loop's RK4 step by probing ``affine.rk4_step``
block by block; ``taylor_rk4`` writes the same step as the dense Taylor
polynomial of dt A.

The simulator reduces its recorded states a block at a time and formats
its CSV a chunk of rows at a time; ``recorded_series`` takes one record at a
time and ``csv_writer_trajectory`` writes through ``csv.writer`` row by row.
"""

import csv

import numpy as np

from nashseek.graph import laplacian
from nashseek.scenarios import PRICE_INTERCEPT, PRICE_SLOPE


def vehicle_gradient(offsets):
    """Player i's own-gradient in the vehicle formation game with anchors offsets (N, 2)."""
    n = len(offsets)

    def gradient(i, x_i, x_others):
        others_sum = np.asarray(x_others, dtype=float).reshape(n - 1, 2).sum(axis=0)
        return (3.0 * x_i - 2.0 * offsets[i] + others_sum) / n

    return gradient


def turbine_gradient(table):
    """Player i's own-gradient in the turbine market game with generator table rows."""

    def gradient(i, x_i, x_others):
        total = float(x_i[0]) + float(np.sum(x_others))
        val = (table[i].gamma2 + 2.0 * table[i].gamma3 * x_i[0] - PRICE_INTERCEPT
               + PRICE_SLOPE * total + PRICE_SLOPE * x_i[0])
        return np.array([val])

    return gradient


def per_player_gradient_matrix(gradient, profiles):
    """gradient called once per player and leading index of the (..., N, N, m) profiles."""
    n = profiles.shape[-3]
    out = np.empty(profiles.shape[:-2] + profiles.shape[-1:])
    for lead in np.ndindex(profiles.shape[:-3]):
        p = profiles[lead]
        for i in range(n):
            out[lead + (i,)] = gradient(i, p[i, i], np.delete(p[i], i, axis=0).reshape(-1))
    return out


def player_law(i, chain, y, x_hat, grads, gains, g, obs=None, z=None):
    """Player i's (u_i, dy_i, dx_hat_i, dz_i) under the seeking law.

    chain and z are (n, N, m), y and grads (N, m), x_hat (N, N, m).  With
    obs and the observer chain z this is the output-feedback law: u_i and
    dy_i feed back z's derivative levels, and dz_i is the observer rate,
    driven by the decision chain[0, i] alone.  Otherwise it is the
    state-feedback law and dz_i is None.
    """
    n, eps, k = gains.order_n, gains.epsilon, gains.k
    levels = chain[:, i] if obs is None else z[:, i]
    u = -gains.alpha1 * grads[i] - gains.alpha2 * y[i]
    dy = gains.alpha1 / eps ** (n - 1) * grads[i]
    for l in range(1, n):
        u = u - eps ** (n - l) * k[l - 1] * levels[l]
        dy = dy + eps ** (1 - l) * k[l - 1] * levels[l]

    dx_hat = np.zeros_like(x_hat[i])
    for j in range(g.n_nodes):
        a = g.weights[i, j]
        dx_hat -= gains.alpha3 * a * (x_hat[i] - x_hat[j])
        dx_hat[j] -= gains.alpha3 * a * (x_hat[i, j] - chain[0, j])

    dz = None
    if obs is not None:
        innovation = chain[0, i] - z[0, i]
        dz = np.empty_like(z[:, i])
        for l in range(1, n + 1):
            above = z[l, i] if l < n else 0.0
            dz[l - 1] = above + eps ** l * obs.beta[l - 1] / obs.mu ** l * innovation
    return u, dy, dx_hat, dz


def kronecker_estimate_form(g):
    """(L kron I_N, M): the N^2 x N^2 matrices of the stacked estimate dynamics.

    The estimates are stacked row-major over (estimating player i, estimated
    player j), so M is diagonal with M[i*N + j, i*N + j] = a_ij.
    """
    n = g.n_nodes
    return np.kron(laplacian(g), np.eye(n)), np.diag(g.weights.ravel())


def recorded_series(layout, states, x_star):
    """One lane's recorded series from its (size,) state at each record, one record at a time.

    Returns (decisions (T, N, m), estimate disagreement, error norm, and in
    output mode the largest |e_0|, else None), each norm as np.linalg.norm
    takes it.
    """
    decisions, disagreement, errors, observer = [], [], [], []
    for s in states:
        x = layout.chain(s)[0]
        decisions.append(x)
        disagreement.append(np.linalg.norm(layout.x_hat(s) - x[None]))
        errors.append(np.linalg.norm(x - x_star))
        if layout.output_mode:
            observer.append(np.max(np.abs(layout.z(s)[0])))
    return (np.array(decisions), np.array(disagreement), np.array(errors),
            np.array(observer) if layout.output_mode else None)


def csv_writer_trajectory(traj, path):
    """The trajectory CSV as csv.writer writes it, one row of float reprs at a time."""
    n_samples, n_players, m = traj.decisions.shape
    header = ["t"]
    header += [f"x_{i + 1}_{c + 1}" for i in range(n_players) for c in range(m)]
    header += ["err_norm", "est_disagreement"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in range(n_samples):
            row = [repr(float(traj.times[s]))]
            row += [repr(float(v)) for v in traj.decisions[s].ravel()]
            row.append("" if traj.error_norms is None else repr(float(traj.error_norms[s])))
            row.append(repr(float(traj.estimate_disagreement[s])))
            writer.writerow(row)


def taylor_rk4(op, dt):
    """(Phi, c) of one classical RK4 step of the probed s' = A s + b, s <- Phi s + c.

    With M = dt A, RK4 on an affine map is Phi = I + M + M^2/2 + M^3/6 +
    M^4/24 and c = dt (I + M/2 + M^2/6 + M^3/24) b, each term formed densely.
    """
    size = op.b.size
    m = np.zeros((size, size))
    np.add.at(m, (op.rows, op.cols), dt * op.vals)
    eye = np.eye(size)
    m2 = m @ m
    m3 = m2 @ m
    phi = eye + m + m2 / 2.0 + m3 / 6.0 + m3 @ m / 24.0
    c = dt * ((eye + m / 2.0 + m2 / 6.0 + m3 / 24.0) @ op.b)
    return phi, c
