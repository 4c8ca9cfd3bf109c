import concurrent.futures
import math

import pytest

from fraccount.errors import (
    CancellationLoss,
    DomainError,
    InvalidSpec,
    NonConvergent,
    OutOfRange,
)
from fraccount.specfun import (
    FoxWrightSpec,
    _mittag_leffler_many,
    SpecfunConfig,
    fox_wright,
    gamma_ratio_signed,
    gen_binom,
    gen_mittag_leffler,
    mittag_leffler,
    recip_gamma_signed,
    stirling_first,
)

import _frozen as FR


# ---- two-parameter series ----

@pytest.mark.parametrize("x", [-3.0, -1.0, -0.25, 0.0, 0.5, 2.0])
def test_ml_exp_reduction(x):
    got = mittag_leffler(1.0, 1.0, x)
    assert got.value == pytest.approx(math.exp(x), rel=1e-12)


def test_ml_trivial_at_zero():
    got = mittag_leffler(0.7, 1.0, 0.0)
    assert got.value == 1.0
    assert got.abs_error_estimate == 0.0


def test_ml_golden_half_order():
    got = mittag_leffler(0.5, 1.0, -1.0)
    assert got.value == pytest.approx(FR.ML_HALF_AT_MINUS_ONE, rel=1e-9)


def test_ml_beta_two_identity():
    # E_{1,2}(x) = (e^x - 1)/x
    got = mittag_leffler(1.0, 2.0, 0.7)
    assert got.value == pytest.approx((math.exp(0.7) - 1.0) / 0.7, rel=1e-12)


@pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (1.5, 1.0), (-0.3, 1.0), (0.5, 0.0), (0.5, -2.0)])
def test_ml_domain_errors(alpha, beta):
    with pytest.raises(DomainError):
        mittag_leffler(alpha, beta, -1.0)


def test_ml_term_budget():
    with pytest.raises(NonConvergent):
        mittag_leffler(0.5, 1.0, -1.0, SpecfunConfig(max_terms=5))


def test_ml_cancellation_guard():
    # deeply alternating sum: max term dwarfs the value by far more than 1e8
    with pytest.raises(CancellationLoss):
        mittag_leffler(1.0, 1.0, -60.0)


def test_series_failure_messages_pinned():
    # labels are formatted only when a series fails; the text stays exact
    few = SpecfunConfig(max_terms=3)
    with pytest.raises(CancellationLoss) as exc:
        mittag_leffler(0.6, 1.0, -10.0)
    assert str(exc.value) == (
        "mittag_leffler(0.6,1.0,-10.0): max term 8.43e+18 dwarfs sum -7.84e+04; "
        "result has no trustworthy digits"
    )
    with pytest.raises(NonConvergent) as exc:
        gen_mittag_leffler(0.5, 1.5, 2.0, -0.75, few)
    assert str(exc.value) == (
        "gen_mittag_leffler(0.5,1.5,2.0,-0.75): no convergence within 3 terms "
        "(partial sum 0.897806)"
    )
    with pytest.raises(NonConvergent) as exc:
        fox_wright(FoxWrightSpec(((1.0, 0.5),), ((1.0, 0.5),)), 0.3, few)
    assert str(exc.value) == (
        "fox_wright(margin=0.0,z=0.3): no convergence within 3 terms (partial sum 1.345)"
    )
    with pytest.raises(NonConvergent) as exc:
        mittag_leffler(1.0, 1.0, 1e300)
    assert str(exc.value) == "mittag_leffler(1.0,1.0,1e+300): term 3 is not finite"


def test_ml_diagnostics_populated():
    got = mittag_leffler(0.8, 1.0, -0.7)
    assert got.terms_used > 3
    assert got.abs_error_estimate >= 0.0
    assert got.max_term_magnitude >= 1.0  # r=0 term is 1


# ---- the array route ----

def _ml_outcome(fn):
    # hex of every value, or the refusal raised
    try:
        return [v.hex() for v in fn()]
    except (CancellationLoss, NonConvergent) as exc:
        return f"{type(exc).__name__}: {exc}"


ML_MANY_POINTS = [
    -6.0, -2.5, -1.0, -0.3, -1e-300, 0.0, -0.0, 1e-300, 1e-20, 0.25, 1.7, 3.0, 40.0,
    # near overflow: at alpha = beta = 1 the largest power passes exp(709.0)
    # from x ~ 713, and the sum is inf from x ~ 709.8
    650.0, 709.5, 713.0, 713.6, 714.0, 800.0, 1e300,
]


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.8, 1.0), (1.0, 1.0), (0.3, 1.7), (0.6, 1)])
def test_ml_many_matches_scalar(alpha, beta):
    # each point's value (or refusal) is its scalar call's, and the points
    # that answer give the same bits in one array call
    cfg = SpecfunConfig()
    want = [_ml_outcome(lambda: [mittag_leffler(alpha, beta, x, cfg).value]) for x in ML_MANY_POINTS]
    got = [_ml_outcome(lambda: _mittag_leffler_many(alpha, beta, [x], cfg).tolist()) for x in ML_MANY_POINTS]
    assert got == want
    answered = [x for x, w in zip(ML_MANY_POINTS, want) if isinstance(w, list)]
    assert len(answered) >= 10
    many = _mittag_leffler_many(alpha, beta, answered)
    assert [v.hex() for v in many.tolist()] == [w[0] for w in want if isinstance(w, list)]


def test_ml_many_leading_underflow_does_not_stop_the_sum():
    # at beta = 200 the leading terms underflow to 0 before the series grows
    # past a double: counted as small, they would stop the sum at 0
    want = "NonConvergent: mittag_leffler(0.5,200.0,1000000.0): term 143 is not finite"
    assert _ml_outcome(lambda: [mittag_leffler(0.5, 200.0, 1e6).value]) == want
    assert _ml_outcome(lambda: _mittag_leffler_many(0.5, 200.0, [1e6]).tolist()) == want


def test_ml_many_refuses_as_the_first_refused_point():
    with pytest.raises(CancellationLoss) as scalar:
        mittag_leffler(0.6, 1, -8)
    with pytest.raises(CancellationLoss) as many:
        _mittag_leffler_many(0.6, 1, [0.5, -8, 1e300, -20])
    assert str(many.value) == str(scalar.value)
    assert str(scalar.value).startswith("mittag_leffler(0.6,1,-8): max term")
    # a non-finite term first, then no stop within the budget
    assert _ml_outcome(lambda: _mittag_leffler_many(0.5, 1.0, [0.2, 1e300, -8.0])) == (
        "NonConvergent: mittag_leffler(0.5,1.0,1e+300): term 3 is not finite"
    )
    few = SpecfunConfig(max_terms=5)
    assert _ml_outcome(lambda: _mittag_leffler_many(0.5, 1.0, [0.0, -1.0, 1e300], few)) == (
        _ml_outcome(lambda: [mittag_leffler(0.5, 1.0, -1.0, few).value])
    )


# ---- three-parameter series ----

@pytest.mark.parametrize("x", [-0.9, -0.3, 0.4])
@pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (0.8, 1.3)])
def test_genml_reduces_at_weight_one(alpha, beta, x):
    a = gen_mittag_leffler(alpha, beta, 1.0, x)
    b = mittag_leffler(alpha, beta, x)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_genml_golden_values():
    got = gen_mittag_leffler(1.0, 2.0, 2.0, -1.0)
    assert got.value == pytest.approx(FR.GENML_1_2_2_AT_MINUS_ONE, rel=1e-12)
    got0 = gen_mittag_leffler(0.6, 1.6, 2.0, 0.0)
    assert got0.value == pytest.approx(FR.GENML_AT_ZERO_BETA_1P6, rel=1e-12)


def test_genml_nonpositive_weight_truncates():
    # weight -2 kills every term past r=2; compare with the explicit polynomial
    alpha, beta, x = 0.6, 1.1, 0.8
    got = gen_mittag_leffler(alpha, beta, -2.0, x)
    expect = (recip_gamma_signed(beta)
              - 2.0 * x * recip_gamma_signed(alpha + beta)
              + x * x * recip_gamma_signed(2 * alpha + beta))
    assert got.value == pytest.approx(expect, rel=1e-13)


def test_genml_weight_zero_is_constant():
    got = gen_mittag_leffler(0.7, 1.4, 0.0, -5.0)
    assert got.value == pytest.approx(recip_gamma_signed(1.4), rel=1e-14)


# ---- Fox-Wright sums ----

def test_foxwright_exp_identity():
    spec = FoxWrightSpec(upper=((1.0, 1.0),), lower=((1.0, 1.0),))
    got = fox_wright(spec, 0.3)
    assert got.value == pytest.approx(FR.EXP_P03, rel=1e-12)


@pytest.mark.parametrize("nu", [0.5, 0.8, 1.0])
@pytest.mark.parametrize("z", [-1.2, -0.4, 0.6])
def test_foxwright_matches_ml_route(nu, z):
    # single upper (1,1) cancels the factorial, leaving the two-parameter series
    spec = FoxWrightSpec(upper=((1.0, 1.0),), lower=((1.0, nu),))
    a = fox_wright(spec, z)
    b = mittag_leffler(nu, 1.0, z)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_foxwright_at_zero_is_gamma_ratio():
    spec = FoxWrightSpec(upper=((2.5, 0.7),), lower=((1.3, 0.9),))
    got = fox_wright(spec, 0.0)
    expect = math.gamma(2.5) / math.gamma(1.3)
    assert got.value == pytest.approx(expect, rel=1e-14)
    assert got.terms_used == 1


def test_foxwright_margin_rejected():
    with pytest.raises(InvalidSpec):
        FoxWrightSpec(upper=((1.0, 2.0),), lower=((1.0, 1.0),))  # margin exactly -1
    with pytest.raises(InvalidSpec):
        FoxWrightSpec(upper=((1.0, 1.0),), lower=((1.0, -0.5),))  # bad slope


def test_foxwright_lower_pole_zeroes_leading_term():
    # lower gamma at argument 0 for j=0: sum over j>=1 of j z^j / j! = z e^z
    spec = FoxWrightSpec(upper=((1.0, 1.0),), lower=((0.0, 1.0),))
    z = 0.45
    got = fox_wright(spec, z)
    assert got.value == pytest.approx(z * math.exp(z), rel=1e-12)


# ---- generalized binomial ----

def test_gen_binom_values():
    assert gen_binom(0.37, 0) == 1.0
    assert gen_binom(0.37, 1) == pytest.approx(0.37)
    assert gen_binom(3.0, 5) == 0.0
    assert gen_binom(0.5, 2) == pytest.approx(-0.125)
    assert gen_binom(4.0, 2) == pytest.approx(6.0)
    with pytest.raises(DomainError):
        gen_binom(0.5, -1)


def test_gen_binom_alternating_sum_telescopes():
    # sum_j (-1)^j C(alpha, j) = (-1)^m C(alpha-1, m) for partial sums
    alpha, m = 0.7, 6
    s = sum((-1) ** j * gen_binom(alpha, j) for j in range(m + 1))
    assert s == pytest.approx((-1) ** m * gen_binom(alpha - 1.0, m), rel=1e-12)


# ---- Stirling numbers ----

def test_stirling_known_values():
    assert stirling_first(0, 0) == 1
    assert stirling_first(1, 1) == 1
    assert stirling_first(3, 0) == 0
    assert stirling_first(4, 2) == 11
    row4 = [stirling_first(4, h) for h in range(5)]
    assert row4 == [0, -6, 11, -6, 1]
    row10 = tuple(stirling_first(10, h) for h in range(11))
    assert row10 == FR.STIRLING_ROW_10


@pytest.mark.parametrize("k", range(2, 12))
def test_stirling_row_sums(k):
    # row sums vanish for k >= 2; absolute row sums equal k!
    assert sum(stirling_first(k, h) for h in range(k + 1)) == 0
    assert sum(abs(stirling_first(k, h)) for h in range(k + 1)) == math.factorial(k)


def test_stirling_out_of_range():
    with pytest.raises(OutOfRange):
        stirling_first(171, 1)
    with pytest.raises(OutOfRange):
        stirling_first(-1, 0)
    with pytest.raises(OutOfRange):
        stirling_first(4, 5)


def test_stirling_concurrent_fill_is_idempotent():
    def row40():
        return tuple(stirling_first(40, h) for h in range(41))

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(lambda _: row40(), range(16)))
    assert all(r == results[0] for r in results)
    # spot value: s(k,1) = (-1)^(k-1) (k-1)!
    assert results[0][1] == -math.factorial(39)


def test_stirling_rows_reach_the_cap():
    # row 170 is the deepest whose entries all convert to a finite double
    row = [stirling_first(170, h) for h in range(171)]
    assert sum(abs(x) for x in row) == math.factorial(170)
    assert all(math.isfinite(float(x)) for x in row)


# ---- signed reciprocal gamma ----

def test_recip_gamma_basics():
    assert recip_gamma_signed(1.0) == 1.0
    for w in (0.0, -1.0, -2.0, -3.0):
        assert recip_gamma_signed(w) == 0.0
    assert recip_gamma_signed(-0.5) == pytest.approx(FR.RECIP_GAMMA_M05, rel=1e-12)
    assert recip_gamma_signed(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    assert recip_gamma_signed(2.5) == pytest.approx(1.0 / math.gamma(2.5), rel=1e-14)


def test_recip_gamma_sign_pattern():
    assert recip_gamma_signed(-0.5) < 0.0
    assert recip_gamma_signed(-1.5) > 0.0
    assert recip_gamma_signed(-2.5) < 0.0


def test_gamma_ratio_signed():
    assert gamma_ratio_signed(5.0, 3.0) == pytest.approx(12.0, rel=1e-14)
    assert gamma_ratio_signed(2.0, -1.0) == 0.0  # denominator pole
    assert gamma_ratio_signed(2.0, -0.5) == pytest.approx(FR.RECIP_GAMMA_M05, rel=1e-12)
    with pytest.raises(DomainError):
        gamma_ratio_signed(-1.0, 2.0)


# ---- configuration ----

def test_config_validation():
    with pytest.raises(InvalidSpec):
        SpecfunConfig(rel_tol=0.0)
    with pytest.raises(InvalidSpec):
        SpecfunConfig(max_terms=0)
    with pytest.raises(InvalidSpec):
        SpecfunConfig(cancellation_limit=0.5)


@pytest.mark.parametrize("call, error", [
    (lambda: gamma_ratio_signed(math.nan, 1.0), DomainError),
    (lambda: gamma_ratio_signed(1.0, math.nan), DomainError),
    (lambda: gamma_ratio_signed(1.0, -math.inf), DomainError),
    (lambda: recip_gamma_signed(math.nan), DomainError),
    (lambda: recip_gamma_signed(-math.inf), DomainError),
    (lambda: mittag_leffler(0.5, math.nan, 1.0), DomainError),
    (lambda: SpecfunConfig(cancellation_limit=math.nan), InvalidSpec),
], ids=["ratio_numerator", "ratio_denominator", "ratio_denominator_-inf", "recip_gamma",
        "recip_gamma_-inf", "ml_beta", "cancellation_limit"])
def test_nan_arguments_are_refused(call, error):
    with pytest.raises(error):
        call()
