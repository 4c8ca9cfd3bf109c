"""Fractional operators.

Caputo time derivatives (exact termwise on power series, quadrature on
callables), the discrete fractional difference on pmf tables, and the
logarithmic-kernel operator family that the heavy-tailed count pgfs are
eigenfunctions of.

Both quadrature operators share one core: after normalizing the integration
variable to y in (0,1), each is (|L|^(1-a)/Gamma(1-a)) * integral of
(1-y)^(-a) g'(yL) dy for the right g and L. The core uses a double-exponential
node map, so the (1-y)^(-a) endpoint weight and an integrable singularity of
g' at 0 are both absorbed by the transform.

The core takes an array integrand: it forms every finite-difference stencil
point of the coarse and the node-doubled rule, calls g once on all of them,
and sums the weighted differences; an integrand that returns one row per
function integrates each row on its own.  The package's callers pass array
integrands (_caputo_quadrature, _operator_quadrature); a per-point adapter
serves only the public scalar APIs, calling f once per point, in order.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure
from .pmftable import PmfTable
from .specfun import gamma_ratio_signed, gen_binom

_NOMINAL_STEP_REL = 1e-5  # finite-difference step relative to the interval
_NODES = 129  # tanh-sinh nodes of the coarse rule; the check rule doubles them
_MERGE_TOL = 1e-12  # PowerSeriesInT.build merges exponents this close


@dataclass(frozen=True)
class PowerSeriesInT:
    """Finite power series sum_i coeff_i * t^(exponent_i), exponents >= 0 and
    strictly increasing."""

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "terms", tuple((float(c), float(e)) for c, e in self.terms)
        )
        prev = -1.0
        for c, e in self.terms:
            if not e >= 0.0:
                raise DomainError(f"exponent {e} must be nonnegative")
            if not e > prev:
                raise DomainError(f"exponents must be strictly increasing, got {e} after {prev}")
            prev = e

    @classmethod
    def build(cls, pairs) -> "PowerSeriesInT":
        """Sort by exponent and merge coefficients of exponents that coincide
        within _MERGE_TOL (they arise when two analytic pieces share a power)."""
        items = sorted(((float(e), float(c)) for c, e in pairs))
        merged: list[tuple[float, float]] = []
        for e, c in items:
            if merged and abs(e - merged[-1][1]) <= _MERGE_TOL:
                merged[-1] = (merged[-1][0] + c, merged[-1][1])
            else:
                merged.append((c, e))
        return cls(terms=tuple(merged))

    def __call__(self, t: float) -> float:
        return math.fsum(c * t ** e for c, e in self.terms)


def caputo_derivative_series(f: PowerSeriesInT, nu: float, t: float) -> float:
    """Caputo derivative of order nu of a power series, exact termwise.

    Power rule: t^mu maps to Gamma(mu+1)/Gamma(mu-nu+1) * t^(mu-nu); a
    constant term contributes nothing (the derivative is taken first).
    """
    if not (0.0 < nu <= 1.0):
        raise DomainError(f"nu must be in (0,1], got {nu}")
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    out = []
    for c, mu in f.terms:
        if mu == 0.0:
            continue
        out.append(c * gamma_ratio_signed(mu + 1.0, mu - nu + 1.0) * t ** (mu - nu))
    return math.fsum(out)


# ---- quadrature core ----

@functools.lru_cache(maxsize=2)
def _tanh_sinh_nodes(n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Nodes y in (0,1), log(1-y) and dy/du of the double-exponential
    (tanh-sinh) map at n_nodes equally spaced u, plus the spacing in u."""
    half = n_nodes // 2
    # the deepest node sits at y ~ exp(-2*(pi/2)*sinh(wmax)); power-law mass
    # y^mu below it is lost, so exponents mu <~ 0.15 are outside the reliable
    # range of this rule (the node-doubling check usually flags them)
    wmax = 4.3
    step = wmax / half
    y, log1my, dyd = [], [], []
    for i in range(-half, half + 1):
        u = i * step
        x = (math.pi / 2.0) * math.sinh(u)
        # y = 1/(1+e^(-2x)), 1-y = 1/(1+e^(2x)); both formed without cancellation
        log1my.append(-_softplus(2.0 * x))
        y.append(1.0 / (1.0 + math.exp(-2.0 * x)))
        dyd.append((math.pi / 2.0) * math.cosh(u) / (2.0 * math.cosh(x) ** 2))
    nodes = tuple(np.array(v) for v in (y, log1my, dyd))
    for v in nodes:
        v.flags.writeable = False
    return (*nodes, step)


def _softplus(x: float) -> float:
    # log(1 + e^x) without overflow
    if x > 36.0:
        return x
    return math.log1p(math.exp(x))


def _stencils(span: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finite-difference stencils for d/dw g at every node w = y*span of the
    oriented interval from 0 to span (span may be negative).

    Central differences with a step that shrinks near 0 so an integrable
    singularity of g' there is resolved; near the far end the stencil turns
    one-sided (pointing back inside) at full step, because g is smooth there
    and a shrinking step would only amplify roundoff.  Returns the (n, 3)
    points (w+h, w-h, unused) or (w, w-h, w-2h), which of them are used, and
    the signed step h per node.
    """
    y = _tanh_sinh_nodes(n_nodes)[0]
    sgn = 1.0 if span >= 0.0 else -1.0
    h_nom = abs(span) * _NOMINAL_STEP_REL
    if h_nom == 0.0:
        raise QuadratureFailure(f"an interval of length {abs(span)} leaves no finite-difference step")
    w = y * span
    pos = w * sgn          # distance from 0 along the interval
    central = abs(span) - pos >= 2.0 * h_nom
    # pos/64 resolves an s^(mu-1) singularity with ~(1/64)^2/3 relative
    # truncation error while the shrinking step keeps the stencil inside
    h = np.minimum(h_nom, pos / 64.0)
    h[h <= 0.0] = h_nom  # pos/64 underflows (w ~ 0): fall back, the weight ~y zeroes it
    hw = np.where(central, h, h_nom) * sgn
    # only the fallback's w - h leaves the interval, past its endpoint 0: clip it there
    points = (np.maximum if span >= 0.0 else np.minimum)(
        np.stack([np.where(central, w + hw, w), w - hw, w - 2.0 * hw], axis=1), 0.0)
    used = np.ones(points.shape, dtype=bool)
    used[:, 2] = ~central
    return points, used, hw


def _stable_quadrature(g_many: Callable[[np.ndarray], Sequence], alpha: float, span: float, what: str):
    """(|span|^(1-alpha) / Gamma(1-alpha)) * integral_0^1 (1-y)^(-alpha) g'(y*span) dy
    by the tanh-sinh rule at _NODES and 2*_NODES nodes, with g' by finite
    differences.  g_many is called once, on every stencil point of both
    rules (coarse before fine, nodes ascending, each stencil in order), and
    returns g there, or one row of g per function.  The finer value is
    returned (a list of them for rows); a shift beyond 1e-4 relative raises
    QuadratureFailure, at the first row that shifts."""
    sizes = (_NODES, 2 * _NODES)
    rules = [_stencils(span, n) for n in sizes]
    values = np.asarray(
        g_many(np.concatenate([points[used] for points, used, _ in rules])), dtype=np.float64
    )
    scale = abs(span) ** (1.0 - alpha) / math.gamma(1.0 - alpha)
    weights = [np.array([math.exp(-alpha * v) for v in _tanh_sinh_nodes(n)[1].tolist()]) for n in sizes]
    out = []
    for rest in values.reshape(-1, values.shape[-1]):
        integrals = []
        for n, (points, used, hw), weight in zip(sizes, rules, weights):
            _, _, dyd, step = _tanh_sinh_nodes(n)
            g, m = np.zeros(points.shape), int(used.sum())
            g[used], rest = rest[:m], rest[m:]
            gp = np.where(
                used[:, 2], 3.0 * g[:, 0] - 4.0 * g[:, 1] + g[:, 2], g[:, 0] - g[:, 1]
            ) / (2.0 * hw)
            integrals.append(scale * math.fsum((weight * gp * dyd * step).tolist()))
        coarse, fine = integrals
        # the 1e-8 floor keeps finite-difference noise (~1e-13 at desk scale) from
        # tripping the relative test when the true value is 0
        if abs(fine - coarse) > 1e-4 * max(abs(fine), 1e-8):
            raise QuadratureFailure(
                f"{what}: node doubling moved the value from {coarse:.10g} to {fine:.10g}"
            )
        out.append(fine)
    return out if values.ndim > 1 else out[0]


def _per_point(f: Callable[[float], float]) -> Callable[[np.ndarray], list[float]]:
    # scalar integrand adapter: one call per point, in order, on Python floats
    return lambda points: [f(x) for x in points.tolist()]


def _caputo_quadrature(f_many: Callable[[np.ndarray], Sequence], nu: float, t: float):
    """caputo_derivative_quadrature with an array integrand: f_many maps an
    array of points in (0, t] to f at each of them, or to one row of values
    per function, and a list of derivatives comes back."""
    if not (0.0 < nu < 1.0):
        raise DomainError(f"nu must be strictly inside (0,1), got {nu}")
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    return _stable_quadrature(f_many, nu, t, "caputo_derivative_quadrature")


def caputo_derivative_quadrature(f: Callable[[float], float], nu: float, t: float) -> float:
    """Caputo derivative of order nu in (0,1) of a callable, by quadrature:
    (1/Gamma(1-nu)) * integral_0^t (t-s)^(-nu) f'(s) ds.

    f' is taken by finite differences with nominal relative step 1e-5.
    Independent cross-check of caputo_derivative_series; the node-doubled
    result is returned and a shift beyond 1e-4 relative raises
    QuadratureFailure.  The core works on an array integrand; f is called
    once per stencil point (882 times), in order.
    """
    return _caputo_quadrature(_per_point(f), nu, t)


def frac_difference(pmf: PmfTable, alpha: float, k: int) -> float:
    """Fractional backward difference of order alpha of a pmf sequence at k:
    sum_j (-1)^j C(alpha, j) pmf[k-j], j = 0..k."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must be in (0,1], got {alpha}")
    if not (0 <= k <= pmf.K):
        raise DomainError(f"k={k} outside table support 0..{pmf.K}")
    return math.fsum(
        (-1.0) ** j * gen_binom(alpha, j) * pmf[k - j] for j in range(k + 1)
    )


@dataclass(frozen=True)
class OperatorOAlphaSpec:
    """Parameter block of the logarithmic-kernel operator: order alpha and the
    affine argument map a + b*z. All evaluations require z > (1-a)/b."""

    alpha: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must be in (0,1], got {self.alpha}")
        if self.b == 0.0:
            raise DomainError("b must be nonzero")

    @property
    def lower_limit(self) -> float:
        return (1.0 - self.a) / self.b


def _operator_quadrature(
    spec: OperatorOAlphaSpec, f_many: Callable[[np.ndarray], Sequence[float]], z: float
) -> float:
    """operator_O_alpha_quadrature with an array integrand: f_many maps an
    array of points in (lower_limit, z] to f at each of them.  It is called
    once, on the 882 stencil points mapped by tau = (e^w - a)/b with math.exp
    per point, or at alpha = 1 on the backward stencil (z, z-h, z-2h)."""
    lo = spec.lower_limit
    if not z > lo:
        raise DomainError(f"z={z} is not above the lower limit {lo}")
    x = spec.a + spec.b * z
    if not x > 0.0:
        raise DomainError(f"a + b*z = {x} must be positive")
    W = math.log(x)
    if W == 0.0:
        raise DomainError("z equals the lower limit; operator undefined there")

    if spec.alpha == 1.0:
        # backward stencil keeps every evaluation inside the domain (lo, z]
        h = abs(z - lo) * _NOMINAL_STEP_REL
        f0, f1, f2 = np.asarray(f_many(np.array([z, z - h, z - 2.0 * h])), dtype=np.float64).tolist()
        return (spec.a / spec.b + z) * ((3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h))

    def g_many(w: np.ndarray) -> Sequence[float]:
        return f_many(np.array([(math.exp(v) - spec.a) / spec.b for v in w.tolist()]))

    return _stable_quadrature(g_many, spec.alpha, W, "operator_O_alpha_quadrature")


def operator_O_alpha_quadrature(
    spec: OperatorOAlphaSpec, f: Callable[[float], float], z: float
) -> float:
    """The order-alpha logarithmic-kernel operator applied to f at z.

    After substituting w = log(a + b*tau) the operator is a Caputo derivative
    in w from 0 to W = log(a + b*z); normalizing by y = w/W gives the
    (1-y)^(-alpha) weighted form evaluated here. The formula is even in the
    sign of W, so arguments with a + b*z < 1 (shrinking maps, b < 0) are
    handled by the same expression. At alpha = 1 the operator collapses to
    (a/b + z) f'(z).  f is called once per point, in order.
    """
    return _operator_quadrature(spec, _per_point(f), z)


def operator_O_alpha_on_log_powers(
    spec: OperatorOAlphaSpec, beta: float, z: float
) -> float:
    """Closed form of the operator on f(tau) = log^beta(a + b*tau):
    Gamma(beta+1)/Gamma(beta+1-alpha) * log^(beta-alpha)(a+b*z).

    beta = 0 is the constant function and maps to 0 (the operator is
    regularized); requires a + b*z > 1 so the log power is real and positive.
    """
    if not beta > -1.0:
        raise DomainError(f"beta must exceed -1, got {beta}")
    lo = spec.lower_limit
    if not z > lo:
        raise DomainError(f"z={z} is not above the lower limit {lo}")
    x = spec.a + spec.b * z
    if not x > 1.0:
        raise DomainError(f"a + b*z = {x} must exceed 1 for a real log power")
    if beta == 0.0:
        return 0.0
    L = math.log(x)
    return gamma_ratio_signed(beta + 1.0, beta + 1.0 - spec.alpha) * L ** (beta - spec.alpha)
