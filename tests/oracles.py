"""Independent oracles shared by the test suite.

Everything here is deliberately written against the mathematics, not against
the package internals: brute-force sums, quadrature, closed forms, and the
textbook Kalman recursion.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, stats


def brute_force_generator(b_val, a_val, f_val, atoms, masses, level, phi, grad_at,
                          hess_at, x):
    """Plain-python generator value at a point for an atomic driver."""
    d = len(x)
    val = 0.0
    for i in range(d):
        val += b_val[i] * grad_at[i]
        for j in range(d):
            val += a_val[i][j] * hess_at[i][j]
    for z, m in zip(atoms, masses):
        u = [f_val * zi for zi in z]
        shifted = phi(np.array(x) + np.array(u))
        comp = 0.0
        if math.sqrt(sum(ui * ui for ui in u)) <= level:
            comp = sum(ui * gi for ui, gi in zip(u, grad_at))
        val += m * (shifted - phi(np.array(x)) - comp)
    return val


def quad_radial(fn, density, lo, hi):
    """Integral of fn(r) * density(r) over (lo, hi) by adaptive quadrature."""
    val, _ = integrate.quad(lambda r: fn(r) * density(r), lo, hi, limit=200)
    return val


def radial_jump_term(phi, x, f, level, densities, grad_at, seams=()):
    """int [phi(x + f z) - phi(x) - 1{|f z| <= level} f z grad_at] nu(dz) for a
    1-d nu with density densities[0](r) at z = r > 0 and densities[1](r) at
    z = -r, phi a float function and grad_at its derivative at x.

    Adaptive quadrature on each side, split at level / |f| and wherever
    x + f z crosses a point of seams (where phi is only C^2); an
    IntegrationWarning is raised as an error."""
    total = 0.0
    for sign, density in zip((1.0, -1.0), densities):
        u = sign * f
        edges = [0.0]
        for c in sorted([level / abs(u)] + [(s - x) / u for s in seams]):
            if c > edges[-1] + 1e-9:       # cuts a rounding error apart are one
                edges.append(c)
        edges.append(math.inf)

        def integrand(r):
            jump = phi(x + u * r) - phi(x) - (u * r * grad_at if r <= level / abs(u) else 0.0)
            return jump * density(r)

        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            for a, b in zip(edges[:-1], edges[1:]):
                total += integrate.quad(integrand, a, b, epsabs=1e-14, epsrel=1e-12,
                                        limit=200)[0]
    return total


def ou_euler_chain_variance(theta, sigma, h, n_steps, v0=0.0):
    """Exact variance of the Euler chain for the mean-reverting benchmark."""
    A = (1.0 - theta * h) ** 2
    q = sigma ** 2 * h
    if A == 1.0:
        return v0 + n_steps * q
    return A ** n_steps * v0 + q * (1.0 - A ** n_steps) / (1.0 - A)


def ou_mean(theta, x0, t):
    return x0 * math.exp(-theta * t)


def poisson_marginal_expectation(phi, x0, jump, rate, drift, t):
    """E phi(x0 + jump*N_t + drift*t) for a Poisson count N_t of given rate."""
    lam = rate * t
    kmax = int(lam + 12 * math.sqrt(lam + 1.0) + 20)
    ks = np.arange(kmax + 1)
    pmf = stats.poisson.pmf(ks, lam)
    pts = x0 + jump * ks + drift * t
    return float(pmf @ phi(pts[:, None]))


def discrete_kalman(grid, increments, a, q2, m0, P0):
    """Exact filter of the Euler-discretized linear-Gaussian model.

    State x_{i+1} = (1 + a dt) x_i + sqrt(q2 dt) xi; per-cell observation
    increment y_i = x_i dt + sqrt(dt) eta.  Returns (t, m, P) rows aligned
    with the grid, posterior after absorbing cell i-1's increment.
    """
    dts = np.diff(grid)
    m, P = float(m0), float(P0)
    out = [(float(grid[0]), m, P)]
    for i, dt in enumerate(dts):
        y = float(increments[i])
        K = P * dt / (dt * dt * P + dt)
        m = m + K * (y - dt * m)
        P = (1.0 - K * dt) * P
        F = 1.0 + a * dt
        m = F * m
        P = F * F * P + q2 * dt
        out.append((float(grid[i + 1]), m, P))
    return out


def riccati_closed_form(a, sigma2, P0, t):
    """Closed-form solution of P' = sigma2 + 2 a P - P^2."""
    r = math.sqrt(a * a + sigma2)
    p_plus, p_minus = a + r, a - r
    if P0 == p_plus:
        return p_plus
    C = (P0 - p_plus) / (P0 - p_minus)
    e = C * math.exp(-2.0 * r * t)
    return (p_plus - p_minus * e) / (1.0 - e)


def bl_gap_normal_oracle(fns, mean1, mean2, sd=1.0):
    """Max dictionary gap between two normal laws via quadrature."""
    best = 0.0
    for _, fn in fns:
        def e(mu):
            val, _ = integrate.quad(
                lambda x: fn(np.array([[x]]))[0]
                * math.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi)),
                mu - 10 * sd, mu + 10 * sd, limit=200)
            return val
        best = max(best, abs(e(mean1) - e(mean2)))
    return best
