"""Recompute every frozen reference value in tests/_frozen.py from scratch.

All computations run in mpmath at 30 significant digits and, where two
independent routes exist, cross-assert them before printing. This script is
deliberately unaware of the fraccount package: it must never import it.

Usage: python3 tests/regen_oracles.py   (takes a few minutes)
"""
import mpmath as mp
import sympy

mp.mp.dps = 30


def ML(a, b, x, tol=mp.mpf("1e-40")):
    s = mp.mpc(0) if isinstance(x, mp.mpc) else mp.mpf(0)
    small = 0
    for r in range(3000):
        t = x ** r * mp.rgamma(a * r + b)
        s += t
        if abs(t) < tol * (abs(s) + 1):
            small += 1
            if small >= 3:
                return s
        else:
            small = 0
    raise RuntimeError("no convergence")


def taylor_coeffs(f, kmax, radius=mp.mpf("0.1"), N=128):
    # trapezoid rule on the circle |u| = radius: exponentially accurate
    # Taylor coefficients of an analytic f, all orders from one sample set
    samples = [f(radius * mp.expj(2 * mp.pi * j / N)) for j in range(N)]
    out = []
    for k in range(kmax + 1):
        acc = mp.mpc(0)
        for j, val in enumerate(samples):
            acc += val * mp.expj(-2 * mp.pi * j * k / N)
        c = acc / (N * radius ** k)
        assert abs(c.imag) < mp.mpf("1e-20") * (abs(c.real) + 1)
        out.append(c.real)
    return out


def fmt(v):
    return mp.nstr(v, 17)


# ---- scalar goldens ----
v_erfc = mp.e * mp.erfc(1)
v_series = mp.nsum(lambda r: (-1) ** r / mp.gamma(r / 2 + 1), [0, mp.inf])
assert abs(v_erfc - v_series) < mp.mpf("1e-30")
print("ML_HALF_AT_MINUS_ONE =", fmt(v_erfc))


def rising(g, r):
    out = mp.mpf(1)
    for i in range(r):
        out *= g + i
    return out


v3 = mp.fsum(rising(2, r) * (-1) ** r / (mp.factorial(r) * mp.gamma(r + 2)) for r in range(80))
print("GENML_1_2_2_AT_MINUS_ONE =", fmt(v3))
print("GENML_AT_ZERO_BETA_1P6 =", fmt(1 / mp.gamma(mp.mpf("1.6"))))
print("EXP_P03 =", fmt(mp.exp(mp.mpf("0.3"))))
print("EXP_M1 =", fmt(mp.exp(-1)))
print("EXP_M05 =", fmt(mp.exp(mp.mpf("-0.5"))))
print("GAMMA_1P5 =", fmt(mp.gamma(mp.mpf("1.5"))))
print("RECIP_GAMMA_M05 =", fmt(1 / mp.gamma(mp.mpf("-0.5"))))
print("TWO_OVER_SQRT_PI =", fmt(2 / mp.sqrt(mp.pi)))
print("JOINT11_NU1 =", fmt(mp.mpf("0.5") * mp.exp(-1)))

X = sympy.symbols("x")
poly10 = sympy.expand(sympy.prod([X - i for i in range(10)]))
print("STIRLING_ROW_10 =", tuple(int(poly10.coeff(X, h)) for h in range(11)))


# ---- space-time fractional family ----
def stfp_pgf(alpha, nu, lam, T, t, rho, u):
    F = (t / T) ** (nu / alpha)
    g_T = ML(nu, 1, -(lam ** alpha) * T ** nu * (1 - u) ** alpha)
    g_t = ML(nu, 1, -(lam ** alpha) * t ** nu * (1 - u) ** alpha)
    return rho * (1 - F) + rho * F * g_T + (1 - rho) * g_t


def stfp_pk_series(alpha, nu, lam, s, k, terms=800):
    x = (lam ** alpha) * s ** nu
    tot = mp.fsum((-x) ** r * mp.rgamma(nu * r + 1)
                  * mp.gamma(alpha * r + 1) * mp.rgamma(alpha * r + 1 - k)
                  for r in range(terms))
    return (-1) ** k / mp.factorial(k) * tot


def stfp_mixture(alpha, nu, lam, T, t, rho, k):
    F = (t / T) ** (nu / alpha)
    return ((1 - rho) * stfp_pk_series(alpha, nu, lam, t, k)
            + rho * ((1 if k == 0 else 0) * (1 - F) + F * stfp_pk_series(alpha, nu, lam, T, k)))


def stfp_combo(alpha, nu, rho, kmax):
    lam, T, t = mp.mpf(1), mp.mpf(1), mp.mpf("0.5")
    alpha, nu, rho = mp.mpf(alpha), mp.mpf(nu), mp.mpf(rho)
    cau = taylor_coeffs(lambda u: stfp_pgf(alpha, nu, lam, T, t, rho, u), kmax)
    vals = []
    for k in range(kmax + 1):
        vb = stfp_mixture(alpha, nu, lam, T, t, rho, k)
        assert abs(cau[k] - vb) / abs(vb) < mp.mpf("1e-14")
        vals.append(vb)
    return vals


print("STFP_PMF_GRID = {")
for alpha in ("0.6", "0.8", "1"):
    for nu in ("0.5", "0.8"):
        for rho in ("0", "0.4"):
            vals = stfp_combo(alpha, nu, rho, 8)
            print(f"    ({float(alpha)}, {float(nu)}, {float(rho)}): "
                  f"({', '.join(fmt(v) for v in vals)}),")
print("}")
print("STFP_PMF_EXAMPLE = (")
print("    " + ", ".join(fmt(v) for v in stfp_combo("0.8", "0.6", "0.3", 10)))
print(")")


def stfp_point(alpha, nu, lam, T, t, kmax):
    # uncoupled pmf at one point, both routes
    alpha, nu, lam, T, t = (mp.mpf(v) for v in (alpha, nu, lam, T, t))
    cau = taylor_coeffs(lambda u: stfp_pgf(alpha, nu, lam, T, t, 0, u), kmax)
    vals = []
    for k in range(kmax + 1):
        vb = stfp_mixture(alpha, nu, lam, T, t, 0, k)
        assert abs(cau[k] - vb) / abs(vb) < mp.mpf("1e-14")
        vals.append(vb)
    return vals


print("STFP_PMF_NU01 = (")
print("    " + ", ".join(fmt(v) for v in stfp_point("0.3", "0.1", 1, 1, 1, 3)))
print(")")


# ---- fractional negative binomial family ----
_srows = {}


def stirling1(k, h):
    if k not in _srows:
        poly = sympy.expand(sympy.prod([X - i for i in range(k)])) if k else sympy.Integer(1)
        _srows[k] = [int(poly.coeff(X, j)) for j in range(k + 1)]
    return _srows[k][h]


def fw_2psi2(alpha, nu, h, z, terms=600):
    return mp.fsum(mp.gamma(1 + alpha * j) * mp.gamma(1 + j)
                   * mp.rgamma(1 - h + alpha * j) * mp.rgamma(1 + nu * j)
                   * z ** j / mp.factorial(j) for j in range(terms))


def nb_core(qv, alpha, nu, k):
    A = 1 / qv - 1
    if A == 0:
        return mp.mpf(1 if k == 0 else 0)
    L = mp.log(1 + A)
    if k == 0:
        return ML(nu, 1, -(L ** alpha))
    s = mp.fsum(L ** (-h) * stirling1(k, h) * fw_2psi2(alpha, nu, h, -(L ** alpha))
                for h in range(1, k + 1))
    return (1 / mp.factorial(k)) * ((-A) / (1 + A)) ** k * s


def nb_q(t, T, lm):
    return (1 - lm) / (1 - (1 - t / T) * lm)


def nb_pgf(alpha, nu, lm, T, t, rho, r, u):
    p, qt, F = 1 - lm, nb_q(t, T, lm), t / T

    def g(s, u):
        L = mp.log((1 - (1 - s) * u) / s)
        return ML(nu, 1, -(L ** alpha)) ** r

    return rho * (1 - F) + rho * F * g(p, u) + (1 - rho) * g(qt, u)


def nb_combo(alpha, nu, rho, kmax=6):
    lm, T, t = mp.mpf("0.6"), mp.mpf(1), mp.mpf("0.5")
    alpha, nu, rho = mp.mpf(alpha), mp.mpf(nu), mp.mpf(rho)
    cau = taylor_coeffs(lambda u: nb_pgf(alpha, nu, lm, T, t, rho, 1, u), kmax)
    p, qt, F = 1 - lm, nb_q(t, T, lm), t / T
    vals = []
    for k in range(kmax + 1):
        vb = ((1 - rho) * nb_core(qt, alpha, nu, k)
              + rho * ((1 if k == 0 else 0) * (1 - F) + F * nb_core(p, alpha, nu, k)))
        assert abs(cau[k] - vb) / abs(vb) < mp.mpf("1e-13")
        vals.append(vb)
    return vals


print("NEGBIN_PMF_GRID = {")
for alpha in ("0.6", "0.8", "1"):
    for nu in ("0.5", "0.8"):
        for rho in ("0", "0.4"):
            vals = nb_combo(alpha, nu, rho)
            print(f"    ({float(alpha)}, {float(nu)}, {float(rho)}): "
                  f"({', '.join(fmt(v) for v in vals)}),")
print("}")

vals2 = taylor_coeffs(
    lambda u: nb_pgf(mp.mpf("0.8"), mp.mpf("0.5"), mp.mpf("0.6"),
                     mp.mpf(1), mp.mpf("0.5"), mp.mpf("0.4"), 2, u), 6)
print("NEGBIN_PMF_R2 = (")
print("    " + ", ".join(fmt(v) for v in vals2))
print(")")


def nb_core_taylor(qv, alpha, nu, kmax):
    # Taylor coefficients u^0..u^kmax of E_nu(-C(u)), C(u) = log^alpha((1 - (1-q) u)/q),
    # by power-series arithmetic: C = L^alpha (1 + y)^alpha with y = log(1 - (1-q) u)/L,
    # and E_nu(-C0 - D) = sum_m (-D)^m/m! E_nu^(m)(-C0) with D(0) = 0
    L, c, n = -mp.log(qv), 1 - qv, kmax + 1
    tol = mp.mpf(10) ** (5 - mp.mp.dps)

    def mul(a, b):
        return [mp.fsum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n)]

    y = [mp.mpf(0)] + [-(c ** m) / (m * L) for m in range(1, n)]
    C, y_j, binom = [mp.mpf(0)] * n, [mp.mpf(1)] + [mp.mpf(0)] * kmax, mp.mpf(1)
    for j in range(n):
        C = [a + binom * b for a, b in zip(C, y_j)]
        binom *= (alpha - j) / (j + 1)
        y_j = mul(y_j, y)
    z0, D = -(L ** alpha), [mp.mpf(0)] + [L ** alpha * v for v in C[1:]]

    def ml_derivative(m):
        s, small, r = mp.mpf(0), 0, m
        while small < 3:
            t = mp.factorial(r) / mp.factorial(r - m) * z0 ** (r - m) * mp.rgamma(nu * r + 1)
            s += t
            small = small + 1 if abs(t) < tol * abs(s) else 0
            r += 1
        return s

    out, D_m = [mp.mpf(0)] * n, [mp.mpf(1)] + [mp.mpf(0)] * kmax
    for m in range(n):
        e = (-1) ** m * ml_derivative(m) / mp.factorial(m)
        out = [a + e * b for a, b in zip(out, D_m)]
        D_m = mul(D_m, D)
    return out


# deep entries at p=0.5, alpha=0.6, nu=0.5, t=T: the Fox-Wright closed form
# against the Taylor coefficients of the pgf, at 60 digits
with mp.workdps(60):
    ks_deep = (0, 40, 120, 170)
    qd, ad, nd = mp.mpf("0.5"), mp.mpf("0.6"), mp.mpf("0.5")
    cau = nb_core_taylor(qd, ad, nd, max(ks_deep))
    deep = []
    for k in ks_deep:
        vb = nb_core(qd, ad, nd, k)
        assert abs(cau[k] - vb) / abs(vb) < mp.mpf("1e-40")
        deep.append(vb)
print("NEGBIN_PMF_DEEP = {")
print("    " + ", ".join(f"{k}: {fmt(v)}" for k, v in zip(ks_deep, deep)) + ",")
print("}")


# ---- weighted transforms ----
from math import comb

NMAX = 200


def pois(lam, n):
    return mp.exp(-lam) * lam ** n / mp.factorial(n)


def q_kernel(k, n, F, rho):
    if n == 0:
        return mp.mpf(1 if k == 0 else 0)
    binpart = mp.mpf(comb(n, k)) * F ** k * (1 - F) ** (n - k) if k <= n else mp.mpf(0)
    rhopart = mp.mpf(0)
    if k == 0:
        rhopart += 1 - F
    if k == n:
        rhopart += F
    return (1 - rho) * binpart + rho * rhopart


lam, F, rho = mp.mpf(1), mp.mpf("0.5"), mp.mpf("0.3")
ratios = []
for k in range(6):
    num = mp.fsum(q_kernel(k, n, F, rho) * pois(lam, n) * n for n in range(k, NMAX))
    den = mp.fsum(q_kernel(k, n, F, rho) * pois(lam, n) for n in range(k, NMAX))
    ratios.append(num / den)
print("WEIGHTS_IN_TIME_SIZEBIAS = (")
print("    " + ", ".join(fmt(v) for v in ratios))
print(")")


def sizebias_closed(lam, rho, t, k):
    if k == 0:
        return (1 - rho) * mp.exp(-lam * t) * (1 - t) + rho * (1 - t)
    return ((1 - rho) * (lam * t) ** k / mp.factorial(k) * mp.exp(-lam * t)
            * (1 - t + mp.mpf(k) / lam)
            + rho * t * lam ** (k - 1) / mp.factorial(k - 1) * mp.exp(-lam))


# closed form must match the kernel double-sum before freezing
for lam_ in (mp.mpf(1), mp.mpf(2)):
    for rho_ in (mp.mpf(0), mp.mpf("0.3"), mp.mpf(1)):
        for t_ in (mp.mpf("0.4"), mp.mpf("0.75"), mp.mpf(1)):
            for k in range(9):
                direct = mp.fsum(q_kernel(k, n, t_, rho_) * pois(lam_, n) * n
                                 for n in range(k, NMAX)) / lam_
                assert abs(direct - sizebias_closed(lam_, rho_, t_, k)) < mp.mpf("1e-25")

print("SIZEBIAS_PMF_EXAMPLE = (")
print("    " + ", ".join(fmt(sizebias_closed(mp.mpf(1), mp.mpf("0.3"), mp.mpf("0.4"), k))
                         for k in range(7)))
print(")")
