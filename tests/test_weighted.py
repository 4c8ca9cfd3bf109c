import math
import tracemalloc

import pytest

import numpy as np

from fraccount.errors import DegenerateWeights, DomainError, NonConvergent
from fraccount.pmftable import PmfTable
from fraccount.weighted import (
    WeightFn,
    _binomials,
    _kernel,
    _pascal,
    covariance_corrected,
    covariance_increment,
    q_kernel,
    weighted_pmf,
    weighted_process_pmf,
    weights_in_time,
)
from tests import _frozen as FR


def poisson_table(lam: float, K: int) -> PmfTable:
    return PmfTable.from_probs(
        [math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) for k in range(K + 1)]
    )


class TestQKernel:
    def test_rows_sum_to_one(self):
        for n in range(31):
            for F in (0.0, 0.3, 0.7, 1.0):
                for rho in (0.0, 0.5, 1.0):
                    row = math.fsum(q_kernel(k, n, F, rho) for k in range(n + 1))
                    assert abs(row - 1.0) <= 1e-12

    def test_empty_pool_counts_zero(self):
        assert q_kernel(0, 0, 0.3, 0.7) == 1.0

    def test_coupled_branch_all_or_nothing(self):
        # full coupling leaves no mass strictly between 0 and n
        assert q_kernel(1, 2, 0.4, 1.0) == 0.0
        assert q_kernel(0, 2, 0.4, 1.0) == pytest.approx(0.6, rel=1e-15)
        assert q_kernel(2, 2, 0.4, 1.0) == pytest.approx(0.4, rel=1e-15)

    def test_uncoupled_is_binomial(self):
        got = q_kernel(2, 5, 0.3, 0.0)
        assert got == pytest.approx(math.comb(5, 2) * 0.3**2 * 0.7**3, rel=1e-14)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            q_kernel(3, 2, 0.5, 0.0)
        with pytest.raises(DomainError):
            q_kernel(-1, 2, 0.5, 0.0)
        with pytest.raises(DomainError):
            q_kernel(1, 2, 1.5, 0.0)
        with pytest.raises(DomainError):
            q_kernel(1, 2, 0.5, -0.1)


class TestWeightFn:
    def test_unit_weight_leaves_base_unchanged(self):
        base = poisson_table(1.0, 40)
        wf = WeightFn.from_base(lambda k: 1.0, base)
        out = weighted_pmf(base, wf)
        for k in range(41):
            assert abs(out[k] - base[k]) <= 1e-12

    def test_proportional_weights_agree(self):
        base = poisson_table(1.3, 50)
        wa = WeightFn.from_base(lambda k: float(k * k + 1), base)
        wb = WeightFn.from_base(lambda k: 7.5 * (k * k + 1), base)
        ta, tb = weighted_pmf(base, wa), weighted_pmf(base, wb)
        for k in range(51):
            assert abs(ta[k] - tb[k]) <= 1e-12

    def test_size_bias_shifts_poisson(self):
        # w(k) = k on Poisson(lam) gives the unit-shifted Poisson
        lam = 1.7
        base = poisson_table(lam, 60)
        wf = WeightFn.from_base(lambda k: float(k), base)
        assert wf.normalizer == pytest.approx(lam, rel=1e-12)
        out = weighted_pmf(base, wf)
        assert out[0] == 0.0
        for k in range(1, 30):
            want = math.exp(-lam + (k - 1) * math.log(lam) - math.lgamma(k))
            assert out[k] == pytest.approx(want, rel=1e-12)

    def test_negative_weight_rejected(self):
        base = poisson_table(1.0, 20)
        with pytest.raises(DegenerateWeights):
            WeightFn.from_base(lambda k: -1.0 if k == 3 else 1.0, base)

    def test_unstable_normalizer_rejected(self):
        # weight grows fast enough that the top half of the table dominates
        base = poisson_table(1.0, 20)
        with pytest.raises(DegenerateWeights):
            WeightFn.from_base(lambda k: math.exp(0.25 * k * k), base)

    def test_base_truncation_is_not_blamed_on_the_weights(self):
        # the base alone shifts ~1e-8 between its halves at K=20: a constant
        # weight shifts no more and is accepted; growing weights still refuse
        base = poisson_table(1.0, 20)
        assert WeightFn.from_base(lambda k: 1.0, base).normalizer == base.head_mass()
        for w in (lambda k: float(k), lambda k: float(k) ** 3, math.exp):
            with pytest.raises(DegenerateWeights, match="weights grow too fast"):
                WeightFn.from_base(w, base)

    def test_nonfinite_weight_rejected(self):
        base = poisson_table(1.0, 20)
        with pytest.raises(DegenerateWeights):
            WeightFn.from_base(lambda k: math.inf if k == 5 else 1.0, base)

    def test_zero_normalizer_rejected(self):
        base = poisson_table(1.0, 20)
        with pytest.raises(DegenerateWeights, match=r"^normalizer over truncated support is 0.0$"):
            WeightFn.from_base(lambda k: 0.0, base)
        with pytest.raises(DegenerateWeights, match=r"^normalizer must be finite positive, got 0.0$"):
            WeightFn(lambda k: 1.0, 0.0)


class TestWeightsInTime:
    def test_size_bias_frozen_values(self):
        base = poisson_table(1.0, 200)
        wf = WeightFn.from_base(lambda k: float(k), base)
        got = weights_in_time(base, wf, 0.5, 0.3, 5)
        for g, want in zip(got, FR.WEIGHTS_IN_TIME_SIZEBIAS):
            assert g == pytest.approx(want, rel=1e-12)

    def test_horizon_ratio_is_weight_itself(self):
        # F = 1 collapses the kernel to the identity, so ratios equal w(k)
        base = poisson_table(0.8, 80)
        wf = WeightFn.from_base(lambda k: float(3 * k + 2), base)
        got = weights_in_time(base, wf, 1.0, 0.6, 10)
        for k, g in enumerate(got):
            assert g == pytest.approx(3.0 * k + 2.0, rel=1e-12)

    def test_constant_weight_gives_constant_ratio(self):
        base = poisson_table(1.2, 80)
        wf = WeightFn.from_base(lambda k: 4.0, base)
        for g in weights_in_time(base, wf, 0.35, 0.8, 8):
            assert g == pytest.approx(4.0, rel=1e-12)

    def test_zero_kernel_mass_rejected(self):
        base = PmfTable.from_probs([1.0])
        wf = WeightFn.from_base(lambda k: 1.0, base)
        with pytest.raises(DegenerateWeights):
            weights_in_time(base, wf, 0.5, 0.0, 2)


class TestWeightedProcessPmf:
    def test_size_bias_frozen_example(self):
        base = poisson_table(1.0, 200)
        wf = WeightFn.from_base(lambda k: float(k), base)
        tbl = weighted_process_pmf(base, wf, 0.4, 0.3, 6)
        for k, want in enumerate(FR.SIZEBIAS_PMF_EXAMPLE):
            assert tbl[k] == pytest.approx(want, rel=1e-12)

    def test_size_bias_closed_form_uncoupled(self):
        lam, t = 1.0, 0.4
        base = poisson_table(lam, 200)
        wf = WeightFn.from_base(lambda k: float(k), base)
        tbl = weighted_process_pmf(base, wf, t, 0.0, 12)
        assert tbl[0] == pytest.approx(math.exp(-lam * t) * (1.0 - t), rel=1e-12)
        for k in range(1, 13):
            want = (
                (lam * t) ** k / math.factorial(k)
                * math.exp(-lam * t)
                * (1.0 - t + k / lam)
            )
            assert tbl[k] == pytest.approx(want, rel=1e-12)

    def test_size_bias_closed_form_coupled_zero_bin(self):
        lam, t, rho = 1.0, 0.4, 0.3
        base = poisson_table(lam, 200)
        wf = WeightFn.from_base(lambda k: float(k), base)
        tbl = weighted_process_pmf(base, wf, t, rho, 4)
        want = (1.0 - rho) * math.exp(-lam * t) * (1.0 - t) + rho * (1.0 - t)
        assert tbl[0] == pytest.approx(want, rel=1e-12)

    def test_factors_through_time_t_weights(self):
        # weighting the pool then observing equals observing then reweighting
        # with the time-t ratio vector
        base = poisson_table(1.0, 200)
        wf = WeightFn.from_base(lambda k: float(k), base)
        F, rho, K = 0.6, 0.4, 40
        proc = PmfTable.from_probs(
            [
                math.fsum(q_kernel(k, n, F, rho) * base[n] for n in range(k, len(base)))
                for k in range(K + 1)
            ]
        )
        ratios = weights_in_time(base, wf, F, rho, K)
        direct = weighted_process_pmf(base, wf, F, rho, K)
        refactored = weighted_pmf(proc, WeightFn.from_base(lambda k: ratios[k], proc))
        for k in range(K + 1):
            assert abs(direct[k] - refactored[k]) <= 1e-10

    def test_rejects_negative_truncation(self):
        base = poisson_table(1.0, 40)
        wf = WeightFn.from_base(lambda k: 1.0, base)
        with pytest.raises(DomainError):
            weighted_process_pmf(base, wf, 0.5, 0.0, -1)


class TestCovariance:
    def test_worked_values(self):
        assert covariance_corrected(1.0, 1.0, 0.25, 0.5) == pytest.approx(0.375, abs=1e-15)
        assert covariance_corrected(2.0, 0.5, 0.2, 0.8) == pytest.approx(0.48, abs=1e-15)

    def test_no_coupling_reduces_to_poisson(self):
        assert covariance_corrected(1.4, 0.0, 0.3, 0.9) == pytest.approx(1.4 * 0.3, rel=1e-15)

    def test_horizon_time_removes_correction(self):
        assert covariance_corrected(2.0, 0.7, 0.3, 1.0) == pytest.approx(0.6, rel=1e-15)

    def test_increment_decomposition(self):
        # Cov(N(t)-N(s), N(s)) = Cov(N(t), N(s)) - Var(N(s))
        for lam, rho, s, t in ((1.0, 1.0, 0.25, 0.5), (2.0, 0.5, 0.2, 0.8), (0.7, 0.3, 0.1, 0.9)):
            want = covariance_corrected(lam, rho, s, t) - covariance_corrected(lam, rho, s, s)
            assert covariance_increment(lam, rho, s, t) == pytest.approx(want, abs=1e-14)

    def test_rejects_unordered_times(self):
        with pytest.raises(DomainError):
            covariance_corrected(1.0, 0.5, 0.7, 0.3)
        with pytest.raises(DomainError):
            covariance_increment(1.0, 0.5, 0.2, 1.2)
        with pytest.raises(DomainError):
            covariance_corrected(0.0, 0.5, 0.1, 0.2)


@pytest.mark.parametrize("fn", [covariance_corrected, covariance_increment])
@pytest.mark.parametrize("args", [
    (math.nan, 0.3, 0.2, 0.5), (1.0, math.nan, 0.2, 0.5), (1.0, 0.3, math.nan, 0.5), (1.0, 0.3, 0.2, math.nan),
])
def test_covariance_rejects_nan(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize("fn", [covariance_corrected, covariance_increment])
@pytest.mark.parametrize("args", [
    (math.inf, 0.3, 0.2, 0.5), (1.0, math.inf, 0.2, 0.5), (1.0, 0.3, math.inf, 0.5), (1.0, 0.3, 0.2, math.inf),
])
def test_covariance_rejects_inf(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


# ---- the array kernel against the per-term double sum ----

def _reference_q(k, n, F, rho):
    # the scalar kernel, term by term in the order the array pass keeps
    if n == 0:
        return 1.0
    val = (1.0 - rho) * math.comb(n, k) * F**k * (1.0 - F) ** (n - k)
    if k == 0:
        val += rho * (1.0 - F)
    if k == n:
        val += rho * F
    return val


def _reference_sums(base, w, F, rho, K):
    num, den = [], []
    for k in range(K + 1):
        qp = [(n, _reference_q(k, n, F, rho) * base[n]) for n in range(k, len(base))]
        num.append(math.fsum(q * w(n) for n, q in qp))
        den.append(math.fsum(q for _, q in qp))
    return num, den


def _hex(values):
    return [float(v).hex() for v in values]


def _grid_weight(k):
    return float(k * k + 1)


@pytest.mark.parametrize("N", [1, 41, 201])
@pytest.mark.parametrize("F", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
def test_tables_match_per_term_double_sum_bit_for_bit(N, F, rho):
    base = poisson_table(1.3, N - 1)
    wf = WeightFn.from_base(_grid_weight, base)
    for K in (0, 5, 20, N + 10):
        num, den = _reference_sums(base, _grid_weight, F, rho, K)
        got = weighted_process_pmf(base, wf, F, rho, K)
        assert _hex(got.probs) == _hex(a / wf.normalizer for a in num)
        zero = next((k for k, b in enumerate(den) if not b > 0.0), None)
        if zero is None:
            assert _hex(weights_in_time(base, wf, F, rho, K)) == _hex(a / b for a, b in zip(num, den))
        else:
            with pytest.raises(DegenerateWeights, match=f"kernel average at k={zero} is"):
                weights_in_time(base, wf, F, rho, K)


@pytest.mark.parametrize("F", [0.0, 0.37, 1.0, -0.0])
@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
def test_q_kernel_is_a_cell_of_the_array(F, rho):
    k, n = np.arange(41)[:, None], np.arange(61)
    grid = _kernel(F, rho, k, n)
    for kk in range(41):
        for nn in range(kk, 61):
            cell = q_kernel(kk, nn, F, rho)
            assert cell.hex() == float(grid[kk, nn]).hex() == _reference_q(kk, nn, F, rho).hex()


@pytest.mark.parametrize("k, n", [(0, 10**7), (3, 10**7), (10**7 - 1, 10**7), (10**7, 10**7), (3, 10**20)])
def test_q_kernel_on_a_large_pool_forms_only_its_own_powers(k, n):
    tracemalloc.start()
    try:
        cell = q_kernel(k, n, 0.999999, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cell.hex() == _reference_q(k, n, 0.999999, 0.3).hex()
    assert peak < 100_000


def test_refusal_order():
    base = poisson_table(1.0, 40)
    bad_at_3 = WeightFn(w=lambda k: -1.0 if k == 3 else 1.0, normalizer=1.0)
    good = WeightFn.from_base(lambda k: 1.0, base)
    with pytest.raises(DomainError, match="truncation index"):
        weighted_process_pmf(base, bad_at_3, math.nan, 0.3, -1)
    for fn in (weighted_process_pmf, weights_in_time):
        # the first bad weight comes before a bad F
        with pytest.raises(DegenerateWeights, match="weight at k=3"):
            fn(base, bad_at_3, math.nan, 0.3, 5)
        # a NaN F is a domain error, and comes before a bad rho
        with pytest.raises(DomainError, match="F must lie in"):
            fn(base, good, math.nan, 2.0, 5)
        with pytest.raises(DomainError, match="coupling weight"):
            fn(base, good, 0.5, math.nan, 5)
    # a zero kernel average is refused at the first k that has one
    with pytest.raises(DegenerateWeights, match="kernel average at k=1 is 0.0"):
        weights_in_time(base, good, 0.0, 0.3, 5)
    with pytest.raises(DegenerateWeights, match="kernel average at k=41 is 0.0"):
        weights_in_time(base, good, 0.5, 0.3, 45)


def test_binomial_past_a_double_is_non_convergent():
    base = PmfTable.from_probs(
        [math.exp(-300.0 + k * math.log(300.0) - math.lgamma(k + 1)) for k in range(1200)]
    )
    wf = WeightFn.from_base(lambda k: float(k), base)
    builds, messages = _pascal.cache_info().misses, []
    for _ in range(2):  # refused on every call, and no matrix is built or cached
        with pytest.raises(NonConvergent, match="binomial coefficient") as err:
            weighted_process_pmf(base, wf, 0.5, 0.3, 600)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and _pascal.cache_info().misses == builds
    with pytest.raises(NonConvergent, match="binomial coefficient"):
        q_kernel(600, 1199, 0.5, 0.3)
    # the rows a shallow table reads all fit a double
    num, _ = _reference_sums(base, lambda k: float(k), 0.5, 0.3, 20)
    got = weighted_process_pmf(base, wf, 0.5, 0.3, 20)
    assert _hex(got.probs) == _hex(a / wf.normalizer for a in num)


# ---- the binomial matrix cached by table shape ----

@pytest.mark.parametrize("rows, cols", [(1, 1), (21, 201), (41, 61), (171, 400)])
def test_cached_binomials_are_read_only_and_exact(rows, cols):
    got = _binomials(np.arange(rows)[:, None], np.arange(cols))
    assert got is _binomials(np.arange(rows)[:, None], np.arange(cols))
    assert got.shape == (rows, cols) and not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0] = 2.0
    assert [float(v).hex() for v in got.ravel()] == [
        float(math.comb(n, k)).hex() for k in range(rows) for n in range(cols)
    ]


def test_tables_alternating_shapes_match_the_double_sum():
    # three shapes in turn, so a cache of two evicts on every call
    cases = [(poisson_table(1.3, 200), 20), (poisson_table(2.1, 60), 40), (poisson_table(0.7, 29), 5)]
    for F, rho in [(0.37, 0.3), (0.9, 0.0), (0.2, 1.0)] * 2:
        for base, K in cases:
            wf = WeightFn.from_base(_grid_weight, base)
            num, den = _reference_sums(base, _grid_weight, F, rho, K)
            assert _hex(weighted_process_pmf(base, wf, F, rho, K).probs) == _hex(a / wf.normalizer for a in num)
            assert _hex(weights_in_time(base, wf, F, rho, K)) == _hex(a / b for a, b in zip(num, den))
            assert _pascal.cache_info().currsize <= 2


@pytest.mark.parametrize("fn", [weighted_process_pmf, weights_in_time])
@pytest.mark.parametrize("F, rho", [(0.0, 0.0), (0.0, 0.3)])
def test_row_sum_past_a_double_raises_as_fsum_does(fn, F, rho):
    # a head a hair past 1 under the largest weight: the k = 0 sum overflows
    base = PmfTable.from_probs([0.5, 0.5000000001])
    wf = WeightFn(w=lambda k: 1.7976931348623157e308, normalizer=1.0)
    with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
        fn(base, wf, F, rho, 3)
