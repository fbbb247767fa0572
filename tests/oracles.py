"""Independent reference values used across the test suite.

Everything here is computed by routes that share no code with the package:
mpmath special functions and quadrature at high precision, analytic
Hermite-function algebra, closed-form Yule-process moments, and a grid scan
of the envelope's monotonicity.
"""

import math

import numpy as np


def airy_level_oracle(n_levels=3, dps=30):
    """Eigenvalues of -f'' + |x| f via Airy zeros.

    Odd levels are roots of Ai(-lambda) = 0 (Dirichlet at 0), even levels
    roots of Ai'(-lambda) = 0 (Neumann at 0), found by bisection on
    mpmath's Airy evaluation.
    """
    import mpmath as mp

    mp.mp.dps = dps

    def bisect(fun, lo, hi, iters=200):
        flo = fun(lo)
        for _ in range(iters):
            mid = (lo + hi) / 2
            fm = fun(mid)
            if fm == 0:
                return mid
            if (flo < 0) == (fm < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return (lo + hi) / 2

    ai = lambda lam: mp.airyai(-lam)
    aip = lambda lam: mp.airyai(-lam, 1)

    # bracket the first few roots on a coarse scan
    def roots_of(fun, count):
        found = []
        prev_x, prev_f = mp.mpf("0.1"), fun(mp.mpf("0.1"))
        x = mp.mpf("0.1")
        while len(found) < count:
            x += mp.mpf("0.05")
            f = fun(x)
            if (f < 0) != (prev_f < 0):
                found.append(bisect(fun, prev_x, x))
            prev_x, prev_f = x, f
        return found

    need_even = (n_levels + 1) // 2
    need_odd = n_levels // 2
    evens = roots_of(aip, need_even)
    odds = roots_of(ai, need_odd)
    out = []
    for n in range(n_levels):
        src = evens if n % 2 == 0 else odds
        out.append(float(src[n // 2]))
    return np.array(out)


def hermite_function(n, x):
    """Normalized Hermite functions, eigenfunctions at alpha = 2."""
    x = np.asarray(x, dtype=float)
    h0 = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    if n == 0:
        return h0
    h1 = np.sqrt(2.0) * x * h0
    if n == 1:
        return h1
    hm, hc = h0, h1
    for k in range(2, n + 1):
        hn = np.sqrt(2.0 / k) * x * hc - np.sqrt((k - 1) / k) * hm
        hm, hc = hc, hn
    return hc


def hermite_mixing_entry(i, j, alpha=2.0, x_max=12.0, n_pts=20001):
    """Direct quadrature of (<phi_j, x phi_i'> - <x phi_j', phi_i>)/(2(2+alpha))
    with analytic Hermite functions."""
    x = np.linspace(-x_max, x_max, n_pts)
    dx = x[1] - x[0]
    fi = hermite_function(i, x)
    fj = hermite_function(j, x)
    dfi = np.gradient(hermite_function(i, x), dx, edge_order=2)
    dfj = np.gradient(hermite_function(j, x), dx, edge_order=2)
    term1 = np.trapezoid(fj * x * dfi, x)
    term2 = np.trapezoid(x * dfj * fi, x)
    return (term1 - term2) / (2.0 * (2.0 + alpha))


def yule_mean(t):
    return math.exp(t)

def yule_second_factorial(t):
    return 2.0 * math.exp(t) * (math.exp(t) - 1.0)


def weyl_constant_quadrature(alpha, dps=30):
    """c_alpha = (2/pi) int_0^1 sqrt(1 - u^alpha) du by mpmath quadrature at
    `dps` digits, split at the interior points where the integrand turns:
    u^alpha rises from 0 to 1 on [0, 1], steeply near 0 for small alpha and
    near 1 for large alpha."""
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpf(alpha)
        f = lambda u: mp.sqrt(1 - u ** a)
        knots = sorted({mp.mpf(0), mp.mpf(10) ** -8, mp.mpf(10) ** -3, 1 - 1 / (1 + a),
                        1 - mp.mpf(10) ** -3, 1 - mp.mpf(10) ** -8, mp.mpf(1)})
        return float(2 / mp.pi * mp.quad(f, knots))


def monotone_on_grid(L, a, b, alpha, eta):
    """Whether y -> (y/r)^alpha (1 + f-) is non-decreasing on a grid of 1000
    y values for each of 40 radii spanning four decades (the grid scan that
    found the envelope's eta by bisection before its closed form)."""
    r0 = (2.0 * L) ** (1.0 / b)
    for r in np.geomspace(r0, r0 * 1e4, 40):
        # resolve the region around the cap; beyond it the map is clearly
        # increasing, so scan up to twice the cap location
        u_cap = ((eta - L * r ** (-b)) / L)
        u_hi = 2.0 * max(u_cap, 0.0) ** (1.0 / a) if u_cap > 0 else 1.0
        y = np.linspace(0.0, max(u_hi, 1.0) * r, 1000)
        vals = (y / r) ** alpha * (1.0 - np.minimum(L * ((y / r) ** a + r ** (-b)), eta))
        if np.any(np.diff(vals) < -1e-15):
            return False
    return True


def functional_by_ancestor_walk(pop, fn, t_end):
    """Sum of the path functional fn over the particles alive at t_end, one
    particle at a time: each ancestor is found by following parent links
    until the birth time is at most the snapshot time, and read from that
    snapshot.  The reference for PathFunctional.on_population."""
    xs, ys = pop.snapshots[t_end]
    total = 0
    for i in range(len(xs)):
        if fn.kind == "one":
            ok = True
        elif fn.kind == "x_indicator":
            ok = xs[i] > fn.x0
        elif fn.kind == "r_indicator":
            ok = np.hypot(xs[i], ys[i]) > fn.r0
        else:  # x_cylinder
            ok = True
            for s, a in zip(fn.times, fn.thresholds):
                j = i
                while pop.birth[j] > s:
                    j = pop.parent[j]
                ok = ok and pop.snapshots[s][0][j] > a
        total += 1 if ok else 0
    return float(total)
