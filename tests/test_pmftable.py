import math
from dataclasses import replace

import numpy as np
import pytest

from fraccount.errors import CancellationLoss, DomainError
from fraccount.fnegbin import Example31Profile, NegBinParams, pmf_negbin_r1
from fraccount import fnegbin, pmftable, stfpoisson, weighted
from fraccount.pmftable import PmfTable, _branch_table, _branch_transform, _exact_row_sums, _live_levels
from fraccount.stfpoisson import StfpParams, governing_residual, pmf
from fraccount.weighted import WeightFn, q_kernel, weighted_process_pmf, weights_in_time


# a branch of weight 0: its entries must never enter the table
UNTOUCHED = np.full(3, np.nan)


def test_table_mixes_in_the_shared_order():
    run, held, frac, rho = (0.5, 0.3, 0.2), (0.1, 0.6, 0.3), 0.4, 0.3
    got = _branch_table({"t": np.array(run), "T": np.array(held)}, "t", "T", frac, rho, 2)
    want = []
    for k in range(3):
        val = (1.0 - rho) * run[k]
        if k == 0:
            val += rho * (1.0 - frac)
        want.append(val + rho * frac * held[k])
    assert got.probs == tuple(want)


@pytest.mark.parametrize("frac, rho", [(0.0, 0.3), (0.4, 0.0), (0.0, 1.0)])
def test_table_never_reads_a_held_branch_of_weight_zero(frac, rho):
    got = _branch_table({"t": np.array([0.5, 0.3, 0.2]), "T": UNTOUCHED}, "t", "T", frac, rho, 2)
    assert not any(np.isnan(got.probs))
    assert got.probs[1:] == ((1.0 - rho) * 0.3, (1.0 - rho) * 0.2)


def test_table_never_reads_a_running_branch_of_weight_zero():
    got = _branch_table({"t": UNTOUCHED[:2], "T": np.array([0.25, 0.75])}, "t", "T", 0.5, 1.0, 1)
    assert not any(np.isnan(got.probs))
    assert got.probs == (0.5 + 0.125, 0.375)


def test_table_held_at_the_running_level_reads_the_running_entries():
    # fully coupled at the horizon: the held branch is the running one
    got = _branch_table({"T": np.array([0.25, 0.75])}, "T", "T", 1.0, 1.0, 1)
    assert got.probs == (0.25, 0.75)
    two = _branch_table({"T": np.array([0.25, 0.75])}, "T", "T", 0.5, 0.4, 1)
    assert two.probs == (0.6 * 0.25 + 0.4 * 0.5 + 0.2 * 0.25, 0.6 * 0.75 + 0.2 * 0.75)


def test_transform_association_and_weight_zero_branches():
    def branch(values):
        # transform(level) from a dict; a level left out must never be read
        def transform(level):
            if level not in values:
                raise AssertionError("branch of weight 0 was evaluated")
            calls.append(level)
            return values[level]
        return transform

    calls = []
    run, held, frac, rho = 0.7, 0.2, 0.4, 0.3
    got = _branch_transform(branch({"t": run, "T": held}), "t", "T", frac, rho)
    assert got == (1.0 - rho) * run + (rho * (1.0 - frac) + rho * frac * held)
    assert calls == ["t", "T"]  # running first
    assert _branch_transform(branch({"t": run}), "t", "T", 0.0, 0.3) == 0.7 * run + 0.3
    assert _branch_transform(branch({"T": held}), "t", "T", frac, 1.0) == (1.0 - frac) + frac * held
    calls.clear()
    assert _branch_transform(branch({"T": run}), "T", "T", 1.0, 1.0) == run
    assert calls == ["T"]  # held at the running level is not evaluated again


@pytest.mark.parametrize("frac, rho, want", [
    (0.0, 0.0, [0.5]), (0.3, 0.4, [0.5]), (0.3, 1.0, [0.5]), (0.0, 1.0, []),
])
def test_live_levels_held_at_the_running_level(frac, rho, want):
    # one level at most: at rho = 1 it is read only while the held branch weighs
    assert _live_levels(0.5, 0.5, frac, rho) == want


# the live levels at t of a horizon-1 mixture, "run" and "held" naming the
# running and the held level: the held branch weighs from t > 0 on, and
# reads the running one at t = T
LIVE_GRID = [
    (0.0, 0.0, ["run"]), (0.0, 0.4, ["run"]), (0.0, 1.0, []),
    (0.3, 0.0, ["run"]), (0.3, 0.4, ["run", "held"]), (0.3, 1.0, ["held"]),
    (1.0, 0.0, ["run"]), (1.0, 0.4, ["run"]), (1.0, 1.0, ["run"]),
]


@pytest.mark.parametrize("t, rho, want", LIVE_GRID)
def test_live_levels_of_the_time_grid(t, rho, want):
    # running level t, held level T = 1, with F = t^(1/2)
    levels = {"run": t, "held": 1.0}
    assert _live_levels(t, 1.0, t ** 0.5, rho) == [levels[w] for w in want]


def _spy(monkeypatch, module, name, calls):
    # record the levels (the series' times, or _core_pmf's success levels) of every call
    real = getattr(module, name)

    def call(*args, **kwargs):
        calls.append(list(args[1] if name == "_count_series" else args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, call)


@pytest.mark.parametrize("t, rho, want", LIVE_GRID)
def test_tables_and_residuals_sum_the_live_levels_in_one_series_call(monkeypatch, t, rho, want):
    calls = []
    _spy(monkeypatch, stfpoisson, "_count_series", calls)
    _spy(monkeypatch, fnegbin, "_core_pmf", calls)
    pmf(replace(_P, rho=rho), t, 5)
    assert calls == [[{"run": t, "held": 1.0}[w] for w in want]]
    calls.clear()
    nb = replace(_NB, rho=rho)
    pmf_negbin_r1(nb, t, 5)
    assert calls == [[{"run": nb.q(t), "held": nb.p}[w] for w in want]]
    if t > 0.0:
        # the residual's one call adds T where rho weighs the horizon table;
        # the quadrature's stencil call follows where the running branch weighs
        levels = [{"run": t, "held": 1.0}[w] for w in want]
        levels += [1.0] * (rho != 0.0 and 1.0 not in levels)
        for method in ("series", "quadrature"):
            calls.clear()
            stfpoisson._governing_residuals(replace(_P, rho=rho), t, range(3), method)
            assert calls[0] == levels
            assert len(calls) == 1 + (method == "quadrature" and rho != 1.0)


@pytest.mark.parametrize("probs, message", [
    ([1.5], "probability at k=0 is 1.5; outside [-1e-12, 1]"),
    ([0.5, -1e-9], "probability at k=1 is -1e-09; outside [-1e-12, 1]"),
    ([0.6, 0.6], "tail mass -0.19999999999999996 outside [-1e-09, 1]"),
])
def test_from_probs_refuses_what_cancellation_left(probs, message):
    with pytest.raises(CancellationLoss) as exc:
        PmfTable.from_probs(probs)
    assert str(exc.value) == message


def test_table_shape_checks():
    with pytest.raises(DomainError, match="at least the k=0 entry"):
        PmfTable.from_probs([])
    with pytest.raises(DomainError, match="K=2 disagrees with 2 entries"):
        PmfTable(probs=(0.5, 0.5), K=2, tail_mass=0.0)


# ---- integer indices at every public entry point ----

_P = StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=0.3)
_NB = NegBinParams(p=0.4, r=1, alpha=0.8, nu=0.6, rho=0.3, T=1.0, q_profile=Example31Profile(lambda_mix=0.6))
_BASE = PmfTable.from_probs([0.5 ** (k + 1) for k in range(120)])
_WF = WeightFn.from_base(lambda k: k + 1.0, _BASE)

INDEXED = {  # entry point, as a function of its index
    "pmf": lambda K: pmf(_P, 0.5, K).probs,
    "pmf_negbin_r1": lambda K: pmf_negbin_r1(_NB, 0.5, K).probs,
    "governing_residual": lambda k: governing_residual(_P, 0.5, k),
    "q_kernel k": lambda k: q_kernel(k, 3, 0.5, 0.2),
    "q_kernel n": lambda n: q_kernel(1, n, 0.5, 0.2),
    "weighted_process_pmf": lambda K: weighted_process_pmf(_BASE, _WF, 0.5, 0.2, K).probs,
    "weights_in_time": lambda K: weights_in_time(_BASE, _WF, 0.5, 0.2, K),
}
REFUSED = {  # the message at 2.5 and at -1
    "pmf": ("truncation index must be an integer, got 2.5", "truncation index must be >= 0, got -1"),
    "pmf_negbin_r1": ("truncation index must be an integer, got 2.5", "truncation index must be >= 0, got -1"),
    "governing_residual": ("count index must be an integer, got 2.5", "count index must be >= 0, got -1"),
    "q_kernel k": ("need integers k and n, got k=2.5, n=3", "need 0 <= k <= n, got k=-1, n=3"),
    "q_kernel n": ("need integers k and n, got k=1, n=2.5", "need 0 <= k <= n, got k=1, n=-1"),
    "weighted_process_pmf": ("truncation index must be an integer, got 2.5", "truncation index must be >= 0, got -1"),
    "weights_in_time": ("truncation index must be an integer, got 2.5", "truncation index must be >= 0, got -1"),
}


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_index_must_be_an_int_or_numpy_integer(name):
    # a non-integer index is refused as a DomainError, the package's own
    # class, not a bare TypeError; a numpy integer reads as its int
    fn = INDEXED[name]
    for bad, message in zip((2.5, -1), REFUSED[name]):
        with pytest.raises(DomainError) as exc:
            fn(bad)
        assert str(exc.value) == message
    with pytest.raises(DomainError):
        fn(np.float64(2.0))
    assert fn(np.int64(2)) == fn(2)


# ---- exactly rounded row sums ----

def _fsum_or_refusal(row):
    # math.fsum's bits, or the class and message it raises
    try:
        return math.fsum(row).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _assert_rows_match_fsum(x):
    got = _exact_row_sums(x)
    for row, value in zip(x.tolist(), got.tolist()):
        want = _fsum_or_refusal(row)
        if isinstance(want, tuple):  # a refused sum reads nan, and math.fsum raises it again
            assert math.isnan(value), want
        else:
            assert value.hex() == want, row


def _random_rows(rng, rows, width):
    # signs, mantissas and exponents drawn over the whole double range, subnormals
    # included, with some exact zeros and some rows of one scale
    mant = rng.uniform(-1.0, 1.0, (rows, width))
    spread = rng.integers(-1074, 1000, (rows, width))
    local = rng.integers(-1074, 1000, (rows, 1)) + rng.integers(-60, 8, (rows, width))
    x = np.ldexp(mant, np.where(rng.random((rows, 1)) < 0.5, spread, np.clip(local, -1074, 1000)))
    x[rng.random((rows, width)) < 0.05] = 0.0
    return np.where(rng.random((rows, 1)) < 0.25, np.abs(x), x)  # a row of one sign sums past its largest entry


def test_row_sums_match_fsum_on_wide_rows_of_one_sign_and_scale():
    rng = np.random.default_rng(7)
    for width in (3, 64, 201, 300):
        x = rng.uniform(0.5, 1.0, (30, width)) * np.ldexp(1.0, rng.integers(-1000, 1000, (30, 1)))
        _assert_rows_match_fsum(x)


@pytest.mark.parametrize("seed", range(8))
def test_row_sums_match_fsum_on_random_rows(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        _assert_rows_match_fsum(_random_rows(rng, int(rng.integers(1, 12)), int(rng.integers(1, 301))))


def test_row_sums_match_fsum_where_rows_nearly_cancel():
    # each row and its negation, reversed and nudged by a few units in the last place
    rng = np.random.default_rng(11)
    for width in (1, 2, 7, 150, 300):
        half = rng.standard_normal((20, width)) * np.ldexp(1.0, rng.integers(-300, 300, (20, 1)))
        nudge = 1.0 + 2.0**-52 * rng.integers(-3, 4, (20, width))
        _assert_rows_match_fsum(np.hstack([half, -half[:, ::-1] * nudge]))


def test_row_sums_round_exact_midpoints_as_fsum_does():
    # ties go to even, down from 1 and up from 1 + 2^-52; a far smaller third term breaks the tie
    rows = [[1.0, 2.0**-53, 0.0], [1.0, 2.0**-53, 2.0**-200], [1.0 + 2.0**-52, 2.0**-53, 0.0]]
    got = _exact_row_sums(np.array(rows)).tolist()
    assert got == [1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51]
    assert [v.hex() for v in got] == [math.fsum(row).hex() for row in rows]


def test_row_sums_of_zeros_and_non_finite_rows():
    x = np.array([
        [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0], [1.0, -1.0, 0.0],
        [math.inf, 1.0, 2.0], [-math.inf, 1.0, 0.0], [math.nan, 1.0, 2.0], [math.inf, -math.inf, 1.0],
        [1e308, 1e308, 0.0], [1.7e308, -1.7e308, 1.0], [5e-324, 5e-324, -5e-324],
    ])
    _assert_rows_match_fsum(x)
    got = _exact_row_sums(x)
    assert [v.hex() for v in got[:4].tolist()] == [math.fsum(r).hex() for r in x[:4].tolist()]
    assert np.isnan(got[[6, 7, 8]]).all() and got[4] == math.inf and got[5] == -math.inf
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        math.fsum(x[8].tolist())


def test_row_sums_certify_the_benchmark_shaped_weighted_tables(monkeypatch):
    # Poisson bases of 201 entries, weight k, K = 20 at interior F: every row of both
    # the weighted and the unweighted layer is certified in bulk, none falls back
    seen = []
    monkeypatch.setattr(weighted, "_exact_row_sums", lambda x: seen.append(x.copy()) or _exact_row_sums(x))
    for lam, F, rho in ((1.0, 0.35, 0.3), (2.0, 0.5, 0.0), (3.0, 0.8, 0.6)):
        base = PmfTable.from_probs([math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) for k in range(201)])
        wf = WeightFn.from_base(lambda k: float(k), base)
        weighted_process_pmf(base, wf, F, rho, 20)
        weights_in_time(base, wf, F, rho, 20)
    assert [x.shape for x in seen] == [(21, 201), (42, 201)] * 3

    def no_fallback(row):
        raise AssertionError("a row fell back to math.fsum")

    monkeypatch.setattr(pmftable.math, "fsum", no_fallback)
    for x in seen:
        _exact_row_sums(x)
