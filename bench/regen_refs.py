"""Recompute the high-precision pmf entries in bench/refs.py.

Each entry is the closed-form series of the paper, summed in mpmath at 60
digits, and cross-asserted against a second route: Taylor coefficients of
the probability generating function by the trapezoid rule on |u| = 1/2.
The script never imports fraccount.

Usage: python3 bench/regen_refs.py > bench/refs.py   (needs mpmath; ~6 min)
"""
import mpmath as mp

mp.mp.dps = 60

# (alpha, nu, lam, T, rho, t) -> counts k; these points sit in the tables grid
STFP_POINTS = {
    ("0.6", "0.5", "1.2", "1", "0.4", "0.6"): (0, 1, 3, 10, 25, 40),
    ("0.8", "0.8", "0.5", "1", "0.2", "0.35"): (0, 2, 7, 20, 40),
}
# (p, alpha, nu, rho, T, t) -> counts k, hyperbolic schedule with weight 1-p
NEGBIN_POINTS = {
    ("0.5", "0.8", "0.6", "0.4", "1", "0.5"): (0, 1, 4, 12, 30, 40),
    ("0.3", "0.6", "0.5", "0", "1", "0.45"): (0, 3, 20, 50, 80),
}


def ml(a, b, x):
    s, small = mp.mpf(0) if not isinstance(x, mp.mpc) else mp.mpc(0), 0
    for r in range(20000):
        term = x ** r * mp.rgamma(a * r + b)
        s += term
        small = small + 1 if abs(term) < mp.mpf(10) ** (-70) * (abs(s) + 1) else 0
        if small >= 3:
            return s
    raise RuntimeError("Mittag-Leffler series did not converge")


def taylor(f, k, radius=mp.mpf("0.5"), nodes=512):
    acc = mp.mpc(0)
    for j in range(nodes):
        w = mp.expj(2 * mp.pi * j / nodes)
        acc += f(radius * w) * w ** (-k)
    return (acc / (nodes * radius ** k)).real


# ---- space-time fractional Poisson ----
def stfp_core(alpha, nu, lam, s, k):
    # ((-1)^k/k!) sum_r (-lam^alpha s^nu)^r Gamma(alpha r+1)/(Gamma(nu r+1) Gamma(alpha r+1-k))
    x = lam ** alpha * s ** nu
    tot, small = mp.mpf(0), 0
    for r in range(20000):
        term = (-x) ** r * mp.rgamma(nu * r + 1) * mp.gamma(alpha * r + 1) * mp.rgamma(alpha * r + 1 - k)
        tot += term
        small = small + 1 if abs(term) < mp.mpf(10) ** (-70) * (abs(tot) + 1) else 0
        if small >= 3 and r > k:
            return (-1) ** k / mp.factorial(k) * tot
    raise RuntimeError("count series did not converge")


def stfp_entry(alpha, nu, lam, T, rho, t, k):
    F = (t / T) ** (nu / alpha)
    out = (1 - rho) * stfp_core(alpha, nu, lam, t, k) + rho * F * stfp_core(alpha, nu, lam, T, k)
    return out + rho * (1 - F) if k == 0 else out


def stfp_pgf(alpha, nu, lam, T, rho, t, u):
    F = (t / T) ** (nu / alpha)
    run = ml(nu, 1, -(lam ** alpha) * t ** nu * (1 - u) ** alpha)
    held = ml(nu, 1, -(lam ** alpha) * T ** nu * (1 - u) ** alpha)
    return (1 - rho) * run + rho * (1 - F) + rho * F * held


# ---- fractional negative binomial, shape 1 ----
_stirling = [[1]]


def stirling1(k, h):
    while len(_stirling) <= k:
        m, prev = len(_stirling) - 1, _stirling[-1]
        _stirling.append([(prev[j - 1] if j >= 1 else 0) - m * (prev[j] if j <= m else 0)
                          for j in range(m + 2)])
    return _stirling[k][h]


def fox_wright(alpha, nu, h, z):
    # sum_j Gamma(1+alpha j) Gamma(1+j) / (Gamma(1-h+alpha j) Gamma(1+nu j)) z^j / j!
    tot, small = mp.mpf(0), 0
    for j in range(20000):
        term = mp.gamma(1 + alpha * j) * mp.rgamma(1 - h + alpha * j) * mp.rgamma(1 + nu * j) * z ** j
        tot += term
        small = small + 1 if abs(term) < mp.mpf(10) ** (-70) * (abs(tot) + 1) else 0
        if small >= 3:
            return tot
    raise RuntimeError("Fox-Wright series did not converge")


def negbin_core(level, alpha, nu, k):
    L = -mp.log(level)
    if k == 0:
        return ml(nu, 1, -(L ** alpha))
    s = mp.fsum(stirling1(k, h) * L ** (-h) * fox_wright(alpha, nu, h, -(L ** alpha))
                for h in range(1, k + 1))
    return (-1) ** k * (1 - level) ** k / mp.factorial(k) * s


def negbin_level(p, T, t):
    return p / (1 - (1 - t / T) * (1 - p))


def negbin_entry(p, alpha, nu, rho, T, t, k):
    F = t / T
    out = (1 - rho) * negbin_core(negbin_level(p, T, t), alpha, nu, k) + rho * F * negbin_core(p, alpha, nu, k)
    return out + rho * (1 - F) if k == 0 else out


def negbin_pgf(p, alpha, nu, rho, T, t, u):
    def core(level):
        return ml(nu, 1, -(mp.log((1 - (1 - level) * u) / level) ** alpha))

    F = t / T
    return (1 - rho) * core(negbin_level(p, T, t)) + rho * (1 - F) + rho * F * core(p)


def compute(points, entry, pgf):
    out = {}
    for key, ks in points.items():
        args = [mp.mpf(x) for x in key]
        samples = {}
        for k in ks:
            series = entry(*args, k)
            contour = taylor(lambda u: pgf(*args, u), k)
            assert abs(series - contour) <= mp.mpf(10) ** (-30) * max(abs(series), mp.mpf(10) ** (-40)), (key, k)
            samples[k] = series
        out[tuple(float(x) for x in key)] = samples
    return out


def emit(name, table):
    print(f"{name} = {{")
    for key, samples in table.items():
        body = ", ".join(f"{k}: {mp.nstr(v, 17)}" for k, v in samples.items())
        print(f"    {key}: {{{body}}},")
    print("}")


if __name__ == "__main__":
    print('"""High-precision pmf entries; generated by bench/regen_refs.py (mpmath, 60 digits).')
    print("Do not edit by hand: rerun the script instead.")
    print()
    print("STFP keys are (alpha, nu, lam, T, rho, t); NEGBIN keys are (p, alpha, nu,")
    print('rho, T, t) under the hyperbolic schedule with mixing weight 1-p."""')
    print()
    emit("STFP", compute(STFP_POINTS, stfp_entry, stfp_pgf))
    print()
    emit("NEGBIN", compute(NEGBIN_POINTS, negbin_entry, negbin_pgf))
