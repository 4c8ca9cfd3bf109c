import collections
import concurrent.futures
import math
import random
from dataclasses import replace

import pytest

from fraccount import specfun
from fraccount.errors import (
    CancellationLoss,
    DomainError,
    InvalidSpec,
    NonConvergent,
    OutOfRange,
)
from fraccount.specfun import (
    DEFAULT_CONFIG,
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
from fraccount.stfpoisson import StfpParams, _count_series

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


def test_ml_term_budget(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
    with pytest.raises(NonConvergent):
        mittag_leffler(0.5, 1.0, -1.0)


def test_ml_cancellation_guard():
    # deeply alternating sum: max term dwarfs the value by far more than 1e8
    with pytest.raises(CancellationLoss):
        mittag_leffler(1.0, 1.0, -60.0)


def test_series_failure_messages_pinned(monkeypatch):
    # labels are formatted only when a series fails; the text stays exact
    with pytest.raises(CancellationLoss) as exc:
        mittag_leffler(0.6, 1.0, -10.0)
    assert str(exc.value) == (
        "mittag_leffler(0.6,1.0,-10.0): max term 8.43e+18 dwarfs sum -7.84e+04; "
        "result has no trustworthy digits"
    )
    with pytest.raises(NonConvergent) as exc:
        mittag_leffler(1.0, 1.0, 1e300)
    assert str(exc.value) == "mittag_leffler(1.0,1.0,1e+300): term 3 is not finite"
    monkeypatch.setattr(specfun, "_MAX_TERMS", 3)
    with pytest.raises(NonConvergent) as exc:
        gen_mittag_leffler(0.5, 1.5, 2.0, -0.75)
    assert str(exc.value) == (
        "gen_mittag_leffler(0.5,1.5,2.0,-0.75): no convergence within 3 terms "
        "(partial sum 0.897806)"
    )
    with pytest.raises(NonConvergent) as exc:
        fox_wright(FoxWrightSpec(((1.0, 0.5),), ((1.0, 0.5),)), 0.3)
    assert str(exc.value) == (
        "fox_wright(margin=0.0,z=0.3): no convergence within 3 terms (partial sum 1.345)"
    )


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
    # that answer give the same bits in one array call; the array route sums
    # at beta = 1 only, so another beta checks the scalar route alone
    want = [_ml_outcome(lambda: [mittag_leffler(alpha, float(beta), x).value]) for x in ML_MANY_POINTS]
    answered = [x for x, w in zip(ML_MANY_POINTS, want) if isinstance(w, list)]
    assert len(answered) >= 10
    if beta != 1.0:
        return
    got = [_ml_outcome(lambda: _mittag_leffler_many(alpha, [x]).tolist()) for x in ML_MANY_POINTS]
    assert got == want
    many = _mittag_leffler_many(alpha, answered)
    assert [v.hex() for v in many.tolist()] == [w[0] for w in want if isinstance(w, list)]


def test_ml_many_leading_underflow_does_not_stop_the_sum():
    # at beta = 200 the leading terms underflow to 0 before the series grows
    # past a double: counted as small, they would stop the sum at 0.  The
    # array route sums at beta = 1, whose r = 0 term is 1.0, so only the
    # scalar route meets this case
    want = "NonConvergent: mittag_leffler(0.5,200.0,1000000.0): term 143 is not finite"
    assert _ml_outcome(lambda: [mittag_leffler(0.5, 200.0, 1e6).value]) == want


def test_ml_many_refuses_as_the_first_refused_point(monkeypatch):
    with pytest.raises(CancellationLoss) as scalar:
        mittag_leffler(0.6, 1, -8)
    with pytest.raises(CancellationLoss) as many:
        _mittag_leffler_many(0.6, [0.5, -8, 1e300, -20])
    # the array route names beta as 1.0
    assert str(many.value) == str(scalar.value).replace("(0.6,1,", "(0.6,1.0,")
    assert str(scalar.value).startswith("mittag_leffler(0.6,1,-8): max term")
    # a non-finite term first, then no stop within the budget
    assert _ml_outcome(lambda: _mittag_leffler_many(0.5, [0.2, 1e300, -8.0])) == (
        "NonConvergent: mittag_leffler(0.5,1.0,1e+300): term 3 is not finite"
    )
    monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
    assert _ml_outcome(lambda: _mittag_leffler_many(0.5, [0.0, -1.0, 1e300])) == (
        _ml_outcome(lambda: [mittag_leffler(0.5, 1.0, -1.0).value])
    )


def _sweep(rng, n):
    # alpha in (0, 1] and x of either sign: |x| log-uniform from 1e-320 to
    # 1e3, uniform below 50 (where negative sums cancel) or below 1e3 (where
    # terms overflow), and one point in twenty a subnormal, a zero or 1e300
    edges = (5e-324, -5e-324, 1e-310, -1e-310, 0.0, -0.0, 1e300, -1e300)
    for _ in range(n):
        alpha, sign, pick = 1.0 - rng.random(), rng.choice((1.0, -1.0)), rng.random()
        if pick < 0.05:
            yield alpha, rng.choice(edges)
        elif pick < 0.4:
            yield alpha, sign * 10.0 ** rng.uniform(-320.0, 3.0)
        else:
            yield alpha, sign * rng.uniform(0.0, 50.0 if pick < 0.7 else 1e3)


def test_ml_many_matches_scalar_in_a_seeded_sweep():
    # one point a call, and runs of ten points at one alpha, whose call
    # returns every value or raises what its first refused point raises
    rng = random.Random(2301)
    points = list(_sweep(rng, 3000))
    want = [_ml_outcome(lambda: [mittag_leffler(alpha, 1.0, x).value]) for alpha, x in points]
    for (alpha, x), w in zip(points, want):
        assert _ml_outcome(lambda: _mittag_leffler_many(alpha, [x]).tolist()) == w, (alpha, x)
    for lo in range(0, len(points), 10):
        alpha, run = points[lo][0], [x for _, x in points[lo : lo + 10]]
        outs = [_ml_outcome(lambda: [mittag_leffler(alpha, 1.0, x).value]) for x in run]
        first = next((o for o in outs if isinstance(o, str)), [v for o in outs for v in o])
        assert _ml_outcome(lambda: _mittag_leffler_many(alpha, run).tolist()) == first, (alpha, run)
    refused = collections.Counter(w.split(":")[0] for w in want if isinstance(w, str))
    assert len(want) - sum(refused.values()) > 1000
    assert min(refused["CancellationLoss"], refused["NonConvergent"]) > 100


def test_overflowing_partial_sum_is_refused():
    # every term of E_{0.5,200}(50) is finite, but the partial sum passes a
    # double at term 2618: the sum is refused, not returned as inf, and the
    # refusal names the partial sum, not the term
    want = "NonConvergent: mittag_leffler(0.5,200.0,50.0): partial sum at term 2618 is not finite"
    assert _ml_outcome(lambda: [mittag_leffler(0.5, 200.0, 50.0).value]) == want
    # so do the three-parameter and Fox-Wright sums, which returned inf too
    assert _ml_outcome(lambda: [gen_mittag_leffler(1.0, 2.0, 2.0, 720.0).value]) == (
        "NonConvergent: gen_mittag_leffler(1.0,2.0,2.0,720.0): partial sum at term 617 is not finite")
    assert _ml_outcome(lambda: [fox_wright(FoxWrightSpec(((1.0, 1.0),), ((1.0, 1.0),)), 713.0).value]) == (
        "NonConvergent: fox_wright(margin=0.0,z=713.0): partial sum at term 668 is not finite")


# (alpha, beta, x) whose largest term has an exponent of ~709.4: past 709,
# yet finite in math.exp, which is the one overflow rule of every series
NEAR_OVERFLOW = [(1.0, 1.0, 713.604052), (0.5, 1.0, 26.713368), (0.8, 1.0, 191.763467),
                 (0.6, 1.7, 51.731042), (0.3, 1.0, 7.178558), (1.0, 20.0, 841.658709)]


@pytest.mark.parametrize("alpha, beta, x", NEAR_OVERFLOW)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_largest_term_just_below_overflow(alpha, beta, x, sign):
    x *= sign
    exponent = max(r * math.log(abs(x)) - math.lgamma(alpha * r + beta) for r in range(5000))
    assert 709.0 < exponent <= 709.78
    want = _ml_outcome(lambda: [mittag_leffler(alpha, beta, x).value])
    if beta == 1.0:  # the array route sums at beta = 1 only
        assert _ml_outcome(lambda: _mittag_leffler_many(alpha, [x]).tolist()) == want
    # at x > 0 the sum passes a double; at x < 0 the finite max term, past
    # exp(709), dwarfs the sum
    if sign > 0.0:
        assert want.startswith("NonConvergent: ") and ": partial sum at term " in want
        assert want.endswith(" is not finite")
    else:
        assert want.startswith(f"CancellationLoss: mittag_leffler({alpha},{beta},{x}): max term 1.23e+308")


# ---- the series the traced benchmark sums (bench/layers.py) ----

BENCH_U_GRID = [(i - 10) / 10.0 for i in range(20)]  # the CLI's pgf grid, u < 1
BENCH_NU_GRID = [i / 20.0 for i in range(1, 21)]  # the CLI's figure1 grid


def test_bench_mittag_leffler_calls_answer():
    # the STFP pgf arguments at alpha = 0.8, nu = 0.6, lam = 1, t = 0.5
    for u in BENCH_U_GRID:
        got = mittag_leffler(0.6, 1.0, -(0.5 ** 0.6) * (1.0 - u) ** 0.8)
        assert math.isfinite(got.value) and 3 <= got.terms_used < 100
    for v in BENCH_NU_GRID:
        got = gen_mittag_leffler(v, v + 1.0, 2.0, -(0.5 ** v))
        assert math.isfinite(got.value) and got.terms_used >= 3


def test_bench_fox_wright_specs_match_the_count_series():
    # h = 1..40 at the level p = 0.5 of a K=40 negbin table, cancellation
    # limit lifted: (-1)^h/h! times each sum is the STFP count entry h at
    # rate -log p and time 1
    alpha, nu, rate = 0.8, 0.6, -math.log(0.5)
    lifted = replace(DEFAULT_CONFIG, cancellation_limit=1e300)
    entries = _count_series(StfpParams(alpha, nu, rate, 1.0), [1.0], range(41))[0][:, 0]
    for h in range(1, 41):
        spec = FoxWrightSpec(upper=((1.0, alpha), (1.0, 1.0)), lower=((1.0 - h, alpha), (1.0, nu)))
        got = fox_wright(spec, -(rate ** alpha), lifted)
        assert got.terms_used >= 3
        assert (-1.0) ** h / math.factorial(h) * got.value == pytest.approx(entries[h], rel=1e-13, abs=0.0)


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
    with pytest.raises(InvalidSpec, match="upper gamma slopes must be positive, got -1.0"):
        FoxWrightSpec(upper=((1.0, -1.0),), lower=((1.0, 1.0),))


def test_foxwright_upper_pole_rejected():
    with pytest.raises(InvalidSpec, match=r"^upper gamma pole at term 0 \(argument -1.0\); sum undefined$"):
        fox_wright(FoxWrightSpec(upper=((-1.0, 1.0),), lower=((1.0, 1.0),)), 0.5)


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
    # past a double the value overflows with the sign of Gamma(w)
    assert recip_gamma_signed(-180.3) == -math.inf


def test_gamma_ratio_signed():
    assert gamma_ratio_signed(5.0, 3.0) == pytest.approx(12.0, rel=1e-14)
    assert gamma_ratio_signed(2.0, -1.0) == 0.0  # denominator pole
    assert gamma_ratio_signed(2.0, -0.5) == pytest.approx(FR.RECIP_GAMMA_M05, rel=1e-12)
    with pytest.raises(DomainError):
        gamma_ratio_signed(-1.0, 2.0)


# ---- configuration ----

def test_config_validation():
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
