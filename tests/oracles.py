"""Independent reference values for the first-law integrals.

Everything here is deliberately disjoint from the package internals: the
closed-form states are rewritten inline, eigensystems come from bare
``numpy.linalg.eigh`` calls without the package's validation, gauge or
branch tracking, and the time integrals come from adaptive quadrature over
central-difference derivatives instead of the package's fixed-grid
trapezoid pipeline.

``FROZEN`` holds (heat, coherent energy) values produced by the
high-precision mpmath route; regenerate them with

    python3 tests/oracles.py

which requires mpmath and prints the table at 40 working digits.
``heat_and_coherent`` is the fast scipy route used inside the tests to
cross-check the package at a few time points without any frozen data.
``bloch_heat`` integrates the qubit heat ``(E0 - E1)/2 z dq / (2 q)``,
``q = z^2 + x^2``, in time with scipy for any ``alpha``, ``w0`` and decay
rate, from the matrix entries and their time derivatives.
``bloch_heat_exact`` evaluates the same heat from its antiderivative in
``g = exp(-gamma t)`` at 60 digits with mpmath, where the cancellations
that double precision must avoid do not matter. ``negativity_exact``
diagonalises the partial transpose of the closed-form joint state with
mpmath at 60 digits by default.
"""

import math

import numpy as np

W0_DEFAULT = 1.0 / (1.0 + math.exp(-1.0))
ALPHA_DEFAULT = 1.0 / math.sqrt(2.0)

# (side, t) -> (heat, coherent_energy), defaults: alpha = 1/sqrt(2),
# beta = 1, gamma_rate = 1, energy gap 1. mpmath, dps = 40, rounded to
# 12 significant digits.
FROZEN = {
    ("system", 0.5): (0.0106022768438, -0.101516743345),
    ("system", 2.0): (0.0685763260675, -0.268364526514),
    ("system", 10.0): (0.103457395345, -0.334505483932),
    ("environment", 0.5): (-0.0752040475774, 0.166118514079),
    ("environment", 2.0): (-0.102355031557, 0.302143232004),
    ("environment", 10.0): (-0.103471465078, 0.334519553665),
}

# Long-time system heat (t = 40, indistinguishable from the limit at
# double precision).
ASYMPTOTIC_SYSTEM_HEAT = 0.103471465197


def state_matrix(side, t, alpha=ALPHA_DEFAULT, w0=W0_DEFAULT):
    """Closed-form marginal state, written independently of the package."""
    g = math.exp(-t)
    d = 1.0 - g
    if side == "environment":
        g, d = d, g
    a2 = alpha * alpha
    b2 = 1.0 - a2
    w1 = 1.0 - w0
    top = (a2 + b2 * d) * w0 + a2 * g * w1
    bot = b2 * g * w0 + (b2 + a2 * d) * w1
    off = alpha * math.sqrt(b2) * math.sqrt(g)
    return np.array([[top, off], [off, bot]])


def _spectral(side, t):
    lam, vec = np.linalg.eigh(state_matrix(side, t))
    return lam, np.abs(vec) ** 2


def _integrands(side, t, h=1e-6):
    """(heat, coherent) integrands via central differences.

    The Hamiltonian is diag(0, 1), so only the excited row of the
    overlap table contributes.
    """
    lo = max(t - h, 0.0)
    lam_m, w_m = _spectral(side, lo)
    lam_p, w_p = _spectral(side, t + h)
    lam, w = _spectral(side, t)
    span = (t + h) - lo
    dlam = (lam_p - lam_m) / span
    dw = (w_p - w_m) / span
    heat = float(np.sum(w[1, :] * dlam))
    coherent = float(np.sum(lam * dw[1, :]))
    return heat, coherent


def heat_and_coherent(side, t_final):
    """Integrate the two first-law terms from 0 to t_final with quad."""
    from scipy.integrate import quad

    heat, _ = quad(lambda t: _integrands(side, t)[0], 0.0, t_final,
                   epsabs=1e-11, epsrel=1e-11, limit=200)
    coh, _ = quad(lambda t: _integrands(side, t)[1], 0.0, t_final,
                  epsabs=1e-11, epsrel=1e-11, limit=200)
    return heat, coh


def _entries(side, t, alpha, w0, gamma):
    """(z, x^2) of the closed-form marginal and their time derivatives."""
    g = math.exp(-gamma * t)
    keep, dkeep = (g, -gamma * g) if side == "system" else \
        (-math.expm1(-gamma * t), gamma * g)
    a2 = alpha * alpha
    b2 = 1.0 - a2
    w1 = 1.0 - w0
    top = (a2 + b2 * (1.0 - keep)) * w0 + a2 * keep * w1
    bot = b2 * keep * w0 + (b2 + a2 * (1.0 - keep)) * w1
    dtop = (-b2 * w0 + a2 * w1) * dkeep
    dbot = (b2 * w0 - a2 * w1) * dkeep
    x2 = 4.0 * a2 * b2 * keep
    return top - bot, x2, dtop - dbot, 4.0 * a2 * b2 * dkeep


def bloch_heat(side, t_final, alpha, w0, gamma=1.0):
    """Qubit heat from 0 to ``t_final`` for the gap-one Hamiltonian
    ``diag(0, 1)``, by adaptive quadrature in time.

    The integrand is smooth but has steep steps where ``q`` is small: near
    ``t = 0`` on the environment side at high temperature, and where ``z``
    crosses zero when the initial coherence is small. Breakpoints at
    geometric times and at the zero of ``z`` let quad resolve them.
    """
    from scipy.integrate import quad

    def integrand(t):
        z, x2, dz, dx2 = _entries(side, t, alpha, w0, gamma)
        return -0.5 * z * (2.0 * z * dz + dx2) / (2.0 * (z * z + x2))

    points = [t_final * 10.0 ** -k for k in range(1, 20)]
    z0, _, _, _ = _entries(side, 0.0, alpha, w0, gamma)
    z_end, _, _, _ = _entries(side, 1e3 / gamma, alpha, w0, gamma)
    if z0 * z_end < 0.0:
        # z is monotone in t: find its zero by bisection
        lo, hi = 0.0, 1e3 / gamma
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _entries(side, mid, alpha, w0, gamma)[0] * z0 > 0.0:
                lo = mid
            else:
                hi = mid
        if lo < t_final:
            points.append(lo)
    heat, _ = quad(integrand, 0.0, t_final, points=sorted(points),
                   epsabs=1e-12, epsrel=1e-12, limit=500)
    return heat


def bloch_heat_exact(side, times, alpha, w0, gamma=1.0):
    """The heat of ``bloch_heat`` at each of ``times``, from 60 digits.

    ``I(g) = z1 g + 1/2 sum_i z(r_i) log(g - r_i)`` over the roots ``r_i``
    of ``q = z^2 + x^2`` (partial fractions of ``z q' / (2 q)``), with the
    lines of ``z`` and ``x^2`` in ``g`` from ``_entries`` written out.
    Needs mpmath.
    """
    import mpmath as mp

    with mp.workdps(60):
        a2 = mp.mpf(alpha) ** 2
        b2 = 1 - a2
        w0 = mp.mpf(w0)
        w1 = 1 - w0
        lead = w0 - w1
        slope = -2 * (b2 * w0 - a2 * w1)
        if side == "system":
            z0, z1, c0, c1 = lead, slope, 0, 4 * a2 * b2
        else:
            z0, z1, c0, c1 = lead + slope, -slope, 4 * a2 * b2, -4 * a2 * b2
        if c0 == 0 and c1 == 0:
            def primitive(g):
                return z1 * g
        elif z1 == 0:
            def primitive(g):
                return z0 / 2 * mp.log(z0 * z0 + c0 + c1 * g)
        else:
            roots = mp.polyroots([z1 * z1, 2 * z0 * z1 + c1, z0 * z0 + c0],
                                 maxsteps=200, extraprec=200)

            def primitive(g):
                return z1 * g + sum(mp.re((z0 + z1 * r) * mp.log(g - r))
                                    for r in roots if z0 + z1 * r != 0) / 2
        start = primitive(mp.mpf(1))
        return [float(-(primitive(mp.exp(-gamma * mp.mpf(t))) - start) / 2)
                for t in times]


def negativity_exact(alpha, w0, gamma, t, dps=60):
    """Negativity of the closed-form joint state at ``t``, from an mpmath
    eigensolve of its partial transpose at ``dps`` digits.

    The matrix is written out entry by entry from the family's formula
    in the basis ``|g,E0>, |g,E1>, |e,E0>, |e,E1>``, with the exchange
    amplitudes ``sqrt(exp(-gamma t))`` and ``sqrt(1 - exp(-gamma t))``.
    The answer is exact to about ``10**-dps`` in absolute terms. Needs
    mpmath.
    """
    import mpmath as mp

    if dps < 50:
        raise ValueError(f"dps must be at least 50, got {dps}")
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        b = mp.sqrt(1 - a * a)
        w0 = mp.mpf(w0)
        w1 = 1 - w0
        x = -mp.mpf(gamma) * mp.mpf(t)
        sg, sd = mp.sqrt(mp.exp(x)), mp.sqrt(-mp.expm1(x))
        rho = mp.matrix([
            [a * a * w0, a * b * w0 * sd, a * b * w0 * sg, 0],
            [a * b * w0 * sd, a * a * w1 * sg ** 2 + b * b * w0 * sd ** 2,
             (a * a * w1 + b * b * w0) * sd * sg, a * b * w1 * sg],
            [a * b * w0 * sg, (a * a * w1 + b * b * w0) * sd * sg,
             a * a * w1 * sd ** 2 + b * b * w0 * sg ** 2, a * b * w1 * sd],
            [0, a * b * w1 * sg, a * b * w1 * sd, b * b * w1]])
        # transpose the first qubit: swap the off-diagonal 2x2 blocks
        pt = rho.copy()
        for i in range(2):
            for j in range(2):
                pt[i, 2 + j], pt[2 + i, j] = rho[2 + i, j], rho[i, 2 + j]
        lam = mp.eigsy(pt, eigvals_only=True)
        return float(-sum(min(v, 0) for v in lam))


def _regenerate():
    """Print the FROZEN table at 40 working digits (needs mpmath)."""
    import mpmath as mp

    mp.mp.dps = 40
    w0 = 1 / (1 + mp.exp(-1))
    alpha2 = mp.mpf(1) / 2

    def entries(side, t):
        g = mp.exp(-t)
        d = 1 - g
        if side == "environment":
            g, d = d, g
        b2 = 1 - alpha2
        w1 = 1 - w0
        top = (alpha2 + b2 * d) * w0 + alpha2 * g * w1
        bot = b2 * g * w0 + (b2 + alpha2 * d) * w1
        off = mp.sqrt(alpha2) * mp.sqrt(b2) * mp.sqrt(g)
        return top, bot, off

    def spectral(side, t):
        a, b, c = entries(side, t)
        mean = (a + b) / 2
        disc = mp.sqrt(((a - b) / 2) ** 2 + c * c)
        lam = [mean - disc, mean + disc]
        weights = []
        for lv in lam:
            vx, vy = (c, lv - a) if abs(c) > mp.mpf("1e-30") \
                else (1 if lv == a else 0, 1 if lv != a else 0)
            n2 = vx * vx + vy * vy
            weights.append(vy * vy / n2)
        return lam, weights

    h = mp.mpf("1e-12")

    def heat_integrand(side, t):
        lam_m, w_m = spectral(side, t - h)
        lam_p, w_p = spectral(side, t + h)
        _, w = spectral(side, t)
        return sum(wk * (lp - lm) / (2 * h)
                   for wk, lp, lm in zip(w, lam_p, lam_m))

    def coh_integrand(side, t):
        _, w_m = spectral(side, t - h)
        _, w_p = spectral(side, t + h)
        lam, _ = spectral(side, t)
        return sum(lk * (wp - wm) / (2 * h)
                   for lk, wp, wm in zip(lam, w_p, w_m))

    for side in ("system", "environment"):
        for t in (mp.mpf("0.5"), mp.mpf(2), mp.mpf(10)):
            q = mp.quad(lambda x: heat_integrand(side, x), [h, t])
            c = mp.quad(lambda x: coh_integrand(side, x), [h, t])
            print(f'    ("{side}", {float(t)}): '
                  f'({mp.nstr(q, 12)}, {mp.nstr(c, 12)}),')
    q40 = mp.quad(lambda x: heat_integrand("system", x), [h, mp.mpf(40)])
    print(f"ASYMPTOTIC_SYSTEM_HEAT = {mp.nstr(q40, 12)}")


if __name__ == "__main__":
    _regenerate()
