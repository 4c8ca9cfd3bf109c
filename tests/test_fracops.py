import math
import random

import numpy as np
import pytest

from fraccount.errors import DomainError, QuadratureFailure
from fraccount.fracops import (
    OperatorOAlphaSpec,
    PowerSeriesInT,
    _caputo_quadrature,
    _operator_quadrature,
    _stencils,
    caputo_derivative_quadrature,
    caputo_derivative_series,
    frac_difference,
    operator_O_alpha_on_log_powers,
    operator_O_alpha_quadrature,
)
from fraccount.pmftable import PmfTable
from fraccount.specfun import gen_binom, mittag_leffler

import _frozen as FR


# ---- power series container ----

def test_power_series_validation():
    with pytest.raises(DomainError):
        PowerSeriesInT(((1.0, -0.5),))
    with pytest.raises(DomainError):
        PowerSeriesInT(((1.0, 1.0), (2.0, 1.0)))  # not strictly increasing


def test_power_series_build_merges():
    ps = PowerSeriesInT.build([(2.0, 1.0), (0.5, 1.0 + 1e-14), (1.0, 0.0)])
    assert len(ps.terms) == 2
    assert ps.terms[0] == (1.0, 0.0)
    assert ps.terms[1][0] == pytest.approx(2.5)
    assert ps(2.0) == pytest.approx(1.0 + 2.5 * 2.0)


# ---- Caputo, termwise ----

@pytest.mark.parametrize("nu", [0.3, 0.6, 1.0])
def test_caputo_series_power_rule_at_nu(nu):
    ps = PowerSeriesInT(((1.0, nu),))
    for t in (0.2, 1.0, 4.0):
        assert caputo_derivative_series(ps, nu, t) == pytest.approx(math.gamma(nu + 1.0), rel=1e-13)


def test_caputo_series_constant_is_zero():
    ps = PowerSeriesInT(((7.3, 0.0),))
    assert caputo_derivative_series(ps, 0.5, 1.0) == 0.0


def test_caputo_series_classical_derivative():
    ps = PowerSeriesInT(((1.0, 2.0),))
    assert caputo_derivative_series(ps, 1.0, 3.0) == pytest.approx(6.0, rel=1e-14)


def test_caputo_series_domain_errors():
    ps = PowerSeriesInT(((1.0, 1.0),))
    with pytest.raises(DomainError):
        caputo_derivative_series(ps, 0.5, 0.0)
    with pytest.raises(DomainError):
        caputo_derivative_series(ps, 1.5, 1.0)


# ---- Caputo, quadrature ----

def test_caputo_quadrature_power_examples():
    got = caputo_derivative_quadrature(lambda s: math.sqrt(s), 0.5, 1.0)
    assert got == pytest.approx(FR.GAMMA_1P5, abs=1e-4)
    got = caputo_derivative_quadrature(lambda s: s, 0.5, 1.0)
    assert got == pytest.approx(FR.TWO_OVER_SQRT_PI, abs=1e-4)


def test_caputo_quadrature_constant():
    assert caputo_derivative_quadrature(lambda s: 3.7, 0.5, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_caputo_quadrature_domain():
    with pytest.raises(DomainError):
        caputo_derivative_quadrature(lambda s: s, 1.0, 1.0)  # order must be < 1
    with pytest.raises(DomainError):
        caputo_derivative_quadrature(lambda s: s, 0.5, -1.0)


@pytest.mark.parametrize("nu", [0.3, 0.5, 0.8])
def test_caputo_series_vs_quadrature(nu):
    # randomized two-term series with exponents in the rule's reliable range
    rng = random.Random(101 + int(nu * 10))
    for _ in range(6):
        e1, e2 = sorted((rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)))
        if e2 - e1 < 1e-3:
            e2 += 0.1
        ps = PowerSeriesInT.build(
            [(rng.uniform(-2, 2), e1), (rng.uniform(-2, 2), e2)]
        )
        for t in (0.4, 1.0, 2.3):
            a = caputo_derivative_series(ps, nu, t)
            b = caputo_derivative_quadrature(lambda s, ps=ps: ps(s), nu, t)
            assert abs(a - b) <= 1e-3 * max(1.0, abs(a))


def test_caputo_quadrature_linearity():
    f = lambda s: s ** 1.3
    g = lambda s: 0.4 * s ** 0.7 + s * s
    a, b = 1.7, -0.6
    lhs = caputo_derivative_quadrature(lambda s: a * f(s) + b * g(s), 0.6, 1.5)
    rhs = (a * caputo_derivative_quadrature(f, 0.6, 1.5)
           + b * caputo_derivative_quadrature(g, 0.6, 1.5))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_caputo_quadrature_flags_unresolvable_exponent():
    # nearly all of the derivative mass of s^0.02 lies below the deepest node;
    # the doubling check must refuse rather than return silently wrong numbers
    with pytest.raises(QuadratureFailure):
        caputo_derivative_quadrature(lambda s: s ** 0.02, 0.5, 1.0)


# ---- the array-integrand core against the scalar core it replaced ----

def _ref_fd_derivative(g, w, span, h_nom):
    sgn = 1.0 if span >= 0.0 else -1.0
    pos = w * sgn
    rem = abs(span) - pos
    if rem >= 2.0 * h_nom:
        h = min(h_nom, pos / 64.0)
        if h <= 0.0:
            h = h_nom
        hw = h * sgn
        return (g(w + hw) - g(w - hw)) / (2.0 * hw)
    hw = h_nom * sgn
    return (3.0 * g(w) - 4.0 * g(w - hw) + g(w - 2.0 * hw)) / (2.0 * hw)


def _ref_weighted_deriv_integral(g, alpha, span, n_nodes):
    half = n_nodes // 2
    step = 4.3 / half
    h_nom = abs(span) * 1e-5
    acc = []
    for i in range(-half, half + 1):
        u = i * step
        x = (math.pi / 2.0) * math.sinh(u)
        log1my = -(x * 2.0 if 2.0 * x > 36.0 else math.log1p(math.exp(2.0 * x)))
        y = 1.0 / (1.0 + math.exp(-2.0 * x))
        dyd = (math.pi / 2.0) * math.cosh(u) / (2.0 * math.cosh(x) ** 2)
        gp = _ref_fd_derivative(g, y * span, span, h_nom)
        acc.append(math.exp(-alpha * log1my) * gp * dyd * step)
    return abs(span) ** (1.0 - alpha) / math.gamma(1.0 - alpha) * math.fsum(acc)


def _ref_quadrature(g, alpha, span, n_nodes=129):
    # node-doubled value; the doubling check is the same expression
    _ref_weighted_deriv_integral(g, alpha, span, n_nodes)
    return _ref_weighted_deriv_integral(g, alpha, span, 2 * n_nodes)


def _recorded(f):
    # f, plus the list of points it was called at
    points = []

    def g(x):
        assert type(x) is float
        points.append(x)
        return f(x)

    return g, points


@pytest.mark.parametrize("f, nu, t", [
    (lambda s: s**1.5, 0.6, 0.8),  # the benchmark's traced probe
    (lambda s: math.sqrt(s) - 0.3 * s, 0.3, 2.3),
    (lambda s: math.exp(-s) * s**0.4, 0.9, 0.05),
    (lambda s: s**1.5, 0.6, 1e-270),  # the smallest stencil point is 5.3e-321, pos/64 > 0 at every node
])
def test_caputo_quadrature_matches_scalar_core(f, nu, t):
    got, points = _recorded(f)
    want, ref_points = _recorded(f)
    assert caputo_derivative_quadrature(got, nu, t).hex() == _ref_quadrature(want, nu, t).hex()
    assert len(points) == 882 and points == ref_points


@pytest.mark.parametrize("spec, f, z", [
    # the benchmark's traced probe
    (OperatorOAlphaSpec(alpha=0.5, a=1.0, b=1.0), lambda tau: math.log(1.0 + tau) ** 0.9, 1.5),
    # a shrinking map: the span log(a + b*z) is negative
    (OperatorOAlphaSpec(alpha=0.7, a=2.0, b=-1.0), lambda tau: tau * tau - tau, 1.5),
    # the smallest span above 0: log(1 + z) = 4.4e-16
    (OperatorOAlphaSpec(alpha=0.5, a=1.0, b=1.0), lambda tau: math.log(1.0 + tau) ** 0.9, 4.5e-16),
])
def test_operator_quadrature_matches_scalar_core(spec, f, z):
    got, points = _recorded(f)
    want, ref_points = _recorded(f)
    ref = _ref_quadrature(
        lambda w: want((math.exp(w) - spec.a) / spec.b), spec.alpha, math.log(spec.a + spec.b * z)
    )
    assert operator_O_alpha_quadrature(spec, got, z).hex() == ref.hex()
    assert len(points) == 882 and points == ref_points
    # the array route: one call on the same points, in order, and the same bits
    calls = []
    many = _operator_quadrature(spec, lambda taus: calls.append(taus) or [f(x) for x in taus.tolist()], z)
    assert many.hex() == ref.hex()
    assert len(calls) == 1 and calls[0].tolist() == ref_points


@pytest.mark.parametrize("span", [1e-300, -1e-300, 1e-310])
def test_stencils_stay_in_the_interval_where_the_step_underflows(span):
    # pos/64 underflows at the deepest nodes; the nominal step they fall back
    # to put w - h outside the interval, so the integrand saw s < 0
    for n in (129, 258):
        points, used, _ = _stencils(span, n)
        assert ((min(span, 0.0) <= points[used]) & (points[used] <= max(span, 0.0))).all()


def test_quadrature_refuses_an_interval_with_no_step():
    # at a subnormal span the nominal step itself underflows to 0
    with pytest.raises(QuadratureFailure, match="^an interval of length 1e-320 leaves no finite-difference step$"):
        caputo_derivative_quadrature(lambda s: s, 0.5, 1e-320)


@pytest.mark.parametrize("spec, z", [
    (OperatorOAlphaSpec(alpha=1.0, a=1.0, b=1.0), 1.5),
    (OperatorOAlphaSpec(alpha=1.0, a=2.0, b=-1.0), 1.5),  # lower limit 1
])
def test_operator_quadrature_at_order_one_is_one_array_call(spec, z):
    # (a/b + z) f'(z) from the backward stencil (z, z - h, z - 2h)
    f = lambda tau: math.log(1.0 + tau) ** 0.9
    got, points = _recorded(f)
    want = operator_O_alpha_quadrature(spec, got, z)
    calls = []
    many = _operator_quadrature(spec, lambda taus: calls.append(taus) or [f(x) for x in taus.tolist()], z)
    assert many.hex() == want.hex()
    assert len(calls) == 1 and calls[0].tolist() == points and len(points) == 3


def test_caputo_quadrature_integrates_each_row():
    # rows of one array call keep the bits of their own calls, and the first
    # row that fails its node-doubling check raises
    fs = [lambda s: s**1.5, lambda s: math.sqrt(s) - 0.3 * s, lambda s: math.exp(-s) * s**0.4]
    rows = _caputo_quadrature(lambda pts: np.array([[f(x) for x in pts.tolist()] for f in fs]), 0.6, 0.8)
    assert [r.hex() for r in rows] == [caputo_derivative_quadrature(f, 0.6, 0.8).hex() for f in fs]
    rough = lambda s: s**0.01  # mass below the deepest node
    with pytest.raises(QuadratureFailure) as many:
        _caputo_quadrature(lambda pts: np.array([[f(x) for x in pts.tolist()] for f in (fs[0], rough)]), 0.6, 0.8)
    with pytest.raises(QuadratureFailure) as single:
        caputo_derivative_quadrature(rough, 0.6, 0.8)
    assert str(many.value) == str(single.value)


# ---- fractional difference ----

def _poisson_table(lam: float, K: int) -> PmfTable:
    probs = [math.exp(-lam) * lam ** k / math.factorial(k) for k in range(K + 1)]
    return PmfTable.from_probs(probs)


def test_frac_difference_k0_is_identity():
    tbl = _poisson_table(1.0, 10)
    assert frac_difference(tbl, 0.7, 0) == tbl[0]


def test_frac_difference_unit_mass():
    tbl = PmfTable.from_probs([1.0] + [0.0] * 8)
    for alpha in (0.4, 0.8, 1.0):
        for k in range(8):
            want = (-1.0) ** k * gen_binom(alpha, k)
            assert frac_difference(tbl, alpha, k) == pytest.approx(want, rel=1e-13)


def test_frac_difference_classical_at_one():
    tbl = _poisson_table(1.0, 10)
    assert frac_difference(tbl, 1.0, 2) == pytest.approx(tbl[2] - tbl[1], rel=1e-13)


def test_frac_difference_bounds():
    tbl = _poisson_table(1.0, 5)
    with pytest.raises(DomainError):
        frac_difference(tbl, 0.5, 6)
    with pytest.raises(DomainError):
        frac_difference(tbl, 1.2, 1)


def test_frac_difference_linearity():
    t1 = _poisson_table(1.0, 8)
    t2 = _poisson_table(2.0, 8)
    mix = PmfTable.from_probs([0.3 * a + 0.7 * b for a, b in zip(t1.probs, t2.probs)])
    for k in (0, 3, 7):
        want = 0.3 * frac_difference(t1, 0.6, k) + 0.7 * frac_difference(t2, 0.6, k)
        assert frac_difference(mix, 0.6, k) == pytest.approx(want, rel=1e-12, abs=1e-15)


# ---- logarithmic-kernel operator ----

def test_operator_spec_validation():
    with pytest.raises(DomainError):
        OperatorOAlphaSpec(alpha=0.0, a=1.0, b=1.0)
    with pytest.raises(DomainError):
        OperatorOAlphaSpec(alpha=0.5, a=1.0, b=0.0)
    spec = OperatorOAlphaSpec(alpha=0.5, a=1.0, b=2.0)
    assert spec.lower_limit == 0.0


def test_operator_log_power_example():
    spec = OperatorOAlphaSpec(alpha=0.5, a=1.0, b=1.0)
    got = operator_O_alpha_quadrature(spec, lambda tau: math.log(1.0 + tau) ** 0.5, 1.0)
    assert got == pytest.approx(FR.GAMMA_1P5, abs=1e-4)


def test_operator_annihilates_constants():
    spec = OperatorOAlphaSpec(alpha=0.5, a=1.0, b=1.0)
    assert operator_O_alpha_quadrature(spec, lambda tau: 2.2, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_operator_closed_form_log_powers():
    spec = OperatorOAlphaSpec(alpha=0.5, a=0.0, b=1.0)
    got = operator_O_alpha_on_log_powers(spec, 1.0, math.e)
    assert got == pytest.approx(FR.TWO_OVER_SQRT_PI, rel=1e-12)
    # beta = alpha collapses the log power: constant Gamma(alpha+1)
    spec2 = OperatorOAlphaSpec(alpha=0.5, a=1.0, b=1.0)
    assert operator_O_alpha_on_log_powers(spec2, 0.5, 4.0) == pytest.approx(
        math.gamma(1.5), rel=1e-12
    )
    assert operator_O_alpha_on_log_powers(spec2, 0.0, 4.0) == 0.0


def test_operator_closed_vs_quadrature():
    # closed form and quadrature must agree on log powers away from beta=alpha
    for alpha, beta, z in ((0.5, 0.9, 1.5), (0.7, 1.4, 2.0), (0.4, 0.6, 1.0)):
        spec = OperatorOAlphaSpec(alpha=alpha, a=1.0, b=1.0)
        closed = operator_O_alpha_on_log_powers(spec, beta, z)
        quad = operator_O_alpha_quadrature(
            spec, lambda tau, beta=beta: math.log(1.0 + tau) ** beta, z
        )
        assert quad == pytest.approx(closed, abs=1e-4, rel=1e-4)


@pytest.mark.parametrize("alpha", [0.4, 0.7])
@pytest.mark.parametrize("gam", [0.5, 1.0, 2.0])
def test_operator_eigenfunction_identity(alpha, gam):
    spec = OperatorOAlphaSpec(alpha=alpha, a=1.0, b=1.0)

    def f(tau):
        return mittag_leffler(alpha, 1.0, -gam * math.log(1.0 + tau) ** alpha).value

    for z in (0.3, 0.8, 1.5, 3.0):
        got = operator_O_alpha_quadrature(spec, f, z)
        assert abs(got + gam * f(z)) <= 1e-3


def test_operator_alpha_one_reduces_to_scaled_derivative():
    spec = OperatorOAlphaSpec(alpha=1.0, a=1.0, b=1.0)
    # f(tau) = tau^2: (a/b + z) f'(z) = (1 + z) * 2z
    got = operator_O_alpha_quadrature(spec, lambda tau: tau * tau, 1.3)
    assert got == pytest.approx((1.0 + 1.3) * 2.6, rel=1e-8)


def test_operator_linearity():
    spec = OperatorOAlphaSpec(alpha=0.6, a=1.0, b=1.0)
    f = lambda tau: math.log(1.0 + tau) ** 1.2
    g = lambda tau: math.log(1.0 + tau) ** 0.8
    a, b = 0.9, -1.4
    lhs = operator_O_alpha_quadrature(spec, lambda tau: a * f(tau) + b * g(tau), 2.0)
    rhs = (a * operator_O_alpha_quadrature(spec, f, 2.0)
           + b * operator_O_alpha_quadrature(spec, g, 2.0))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_operator_domain_checks():
    spec = OperatorOAlphaSpec(alpha=0.5, a=1.0, b=1.0)
    with pytest.raises(DomainError):
        operator_O_alpha_quadrature(spec, lambda tau: tau, -0.5)
    with pytest.raises(DomainError):
        operator_O_alpha_on_log_powers(spec, -1.5, 1.0)
    # shrinking map: a + b*z must stay positive
    neg = OperatorOAlphaSpec(alpha=0.5, a=2.0, b=-1.0)
    with pytest.raises(DomainError):
        operator_O_alpha_quadrature(neg, lambda tau: tau, 2.5)
    # the log power needs a + b*z > 1, not only > 0
    with pytest.raises(DomainError, match=r"^a \+ b\*z = 0.5 must exceed 1 for a real log power$"):
        operator_O_alpha_on_log_powers(neg, 1.0, 1.5)
    # above the lower limit, but a + b*z rounds to 1
    with pytest.raises(DomainError, match="^z equals the lower limit; operator undefined there$"):
        operator_O_alpha_quadrature(spec, lambda tau: tau, 1e-300)


@pytest.mark.parametrize("call", [
    lambda: caputo_derivative_quadrature(lambda s: s, 0.5, math.nan),
    lambda: caputo_derivative_series(PowerSeriesInT(((1.0, 1.0),)), 0.5, math.nan),
    lambda: PowerSeriesInT(((1.0, math.nan),)),
    lambda: operator_O_alpha_quadrature(OperatorOAlphaSpec(0.5, 1.0, math.nan), lambda tau: tau, 1.5),
    lambda: operator_O_alpha_quadrature(OperatorOAlphaSpec(0.5, math.nan, 1.0), lambda tau: tau, 1.5),
    lambda: operator_O_alpha_quadrature(OperatorOAlphaSpec(0.5, 1.0, 1.0), lambda tau: tau, math.nan),
    lambda: operator_O_alpha_on_log_powers(OperatorOAlphaSpec(0.5, 1.0, 1.0), math.nan, 1.5),
    lambda: operator_O_alpha_on_log_powers(OperatorOAlphaSpec(0.5, 1.0, 1.0), 0.5, math.nan),
], ids=["caputo_quadrature_t", "caputo_series_t", "series_exponent", "operator_b", "operator_a",
        "operator_z", "log_powers_beta", "log_powers_z"])
def test_nan_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
