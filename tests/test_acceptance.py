"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line and pins its
tolerances and runtime budget inline.  Failures are collected per criterion
so the printed line always appears.
"""

import math
import time
from dataclasses import replace

import numpy as np

from fraccount.cli import _verify_rows
from fraccount.fnegbin import (
    Example31Profile,
    F_negbin,
    NegBinParams,
    pmf_negbin_r1,
)
from fraccount.mcsim import (
    empirical_cov,
    empirical_joint_11,
    empirical_pmf,
    sample_path,
    simulate_paths,
    stfp_sim_config,
    tv_distance,
)
from fraccount.pmftable import PmfTable
from fraccount.specfun import mittag_leffler, recip_gamma_signed, stirling_first
from fraccount.stfpoisson import (
    F_stfp,
    StfpParams,
    joint_prob_brb,
    joint_prob_kps,
    pmf,
)
from fraccount.weighted import WeightFn, q_kernel, weighted_pmf, weighted_process_pmf, weights_in_time
from tests import _frozen as FR

# points each verify equation is checked at: 6 index/coupling combinations x
# 4 counts x 3 times per governing route, 2 indices x 2 couplings x 3
# arguments for the operator identity, 3 log powers, 2 x 2 x 2 eigen points
VERIFY_POINTS = {
    "governing_balance_quadrature": 72,
    "governing_balance_series": 72,
    "log_power_closed_vs_quadrature": 3,
    "ml_eigenfunction_identity": 8,
    "negbin_operator_identity": 12,
}


def _report(num: int, label: str, failures: list, elapsed: float, budget: float | None):
    if budget is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds {budget:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num} ({label}): {status} [{elapsed:.1f}s]"
    print(line, flush=True)
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures[:8])


def test_criterion_1_joint_law_sweep():
    # t=1/2, T=lambda=1; both joint laws over nu in [0.05, 1]
    start = time.perf_counter()
    failures = []
    lam = T = 1.0
    t = 0.5
    kps, brb = {}, {}
    for i in range(1, 21):
        nu = i / 20.0
        kps[nu] = joint_prob_kps(nu, lam, T, t)
        brb[nu] = joint_prob_brb(StfpParams(alpha=1.0, nu=nu, lam=lam, T=T, rho=0.0), t)

    if abs(kps[1.0] - brb[1.0]) > 1e-9:
        failures.append(f"classical rows differ: {kps[1.0]} vs {brb[1.0]}")
    for val in (kps[1.0], brb[1.0]):
        if abs(val - FR.JOINT11_NU1) > 1e-9:
            failures.append(f"classical joint value {val} != {FR.JOINT11_NU1}")
    if abs(kps[0.5] - brb[0.5]) < 1e-3:
        failures.append(f"curves not distinct at nu=0.5: gap {abs(kps[0.5]-brb[0.5])}")
    # the ordering between the two curves must be consistent over the sweep
    signs = {math.copysign(1.0, kps[i / 20.0] - brb[i / 20.0]) for i in range(1, 20)}
    if len(signs) != 1:
        failures.append("kps-brb ordering flips sign across the fractional grid")

    _report(1, "joint-law figure sweep", failures, time.perf_counter() - start, budget=5.0)


def test_criterion_2_classical_reductions():
    start = time.perf_counter()
    failures = []

    lam, t = 1.3, 0.7
    table = pmf(StfpParams(alpha=1.0, nu=1.0, lam=lam, T=1.0, rho=0.0), t, 30)
    for k in range(31):
        want = math.exp(-lam * t + k * math.log(lam * t) - math.lgamma(k + 1))
        if abs(table[k] - want) > 1e-10 * want:
            failures.append(f"poisson reduction k={k}: {table[k]} vs {want}")

    nb = NegBinParams(
        p=0.4, r=1, alpha=1.0, nu=1.0, rho=0.0, T=1.0, q_profile=Example31Profile(0.6)
    )
    qt = nb.q(0.5)
    ntable = pmf_negbin_r1(nb, 0.5, 30)
    for k in range(31):
        want = qt * (1.0 - qt) ** k
        if abs(ntable[k] - want) > 1e-10 * want:
            failures.append(f"geometric reduction k={k}: {ntable[k]} vs {want}")

    _report(2, "classical reductions", failures, time.perf_counter() - start, budget=1.0)


def test_criterion_3_pgf_oracle_equivalence():
    # frozen oracles: pgf finite-difference tables computed independently
    start = time.perf_counter()
    failures = []
    combos = [(a, nu, rho) for a in (0.6, 0.8, 1.0) for nu in (0.5, 0.8) for rho in (0.0, 0.4)]
    assert len(combos) == 12

    for a, nu, rho in combos:
        table = pmf(StfpParams(alpha=a, nu=nu, lam=1.0, T=1.0, rho=rho), 0.5, 8)
        for k, want in enumerate(FR.STFP_PMF_GRID[(a, nu, rho)]):
            if abs(table[k] - want) > 1e-5 * abs(want):
                failures.append(f"stfp ({a},{nu},{rho}) k={k}: {table[k]} vs {want}")

    for a, nu, rho in combos:
        nb = NegBinParams(
            p=0.4, r=1, alpha=a, nu=nu, rho=rho, T=1.0, q_profile=Example31Profile(0.6)
        )
        table = pmf_negbin_r1(nb, 0.5, 6)
        for k, want in enumerate(FR.NEGBIN_PMF_GRID[(a, nu, rho)]):
            if abs(table[k] - want) > 1e-5 * abs(want):
                failures.append(f"negbin ({a},{nu},{rho}) k={k}: {table[k]} vs {want}")

    _report(3, "pgf-oracle equivalence", failures, time.perf_counter() - start, budget=30.0)


def test_criterion_4_governing_equations():
    # the grids and tolerances are the verify suite's own, defined once in the CLI
    start = time.perf_counter()
    rows = _verify_rows()
    per_equation = {}
    for equation, *_ in rows:
        per_equation[equation] = per_equation.get(equation, 0) + 1
    failures = [
        f"{equation} ({point}): {residual} > {tol}"
        for equation, point, residual, tol, status in rows
        if not float(residual) <= float(tol) or status != "pass"
    ]
    if per_equation != VERIFY_POINTS:
        failures.append(f"verify grid points per equation {per_equation} != {VERIFY_POINTS}")
    _report(4, "governing equations", failures, time.perf_counter() - start, budget=None)


def test_criterion_5_normalization_and_mixture():
    start = time.perf_counter()
    failures = []

    # light-tail grids: classical space index, both families
    for nu in (0.5, 0.8, 1.0):
        for rho in (0.0, 0.4):
            st = pmf(StfpParams(alpha=1.0, nu=nu, lam=1.0, T=1.0, rho=rho), 0.5, 40)
            if abs(st.head_mass() + st.tail_mass - 1.0) > 1e-8:
                failures.append(f"stfp mass gap at (nu={nu},rho={rho})")
            if st.tail_mass > 1e-8:
                failures.append(f"stfp tail not light at (nu={nu},rho={rho}): {st.tail_mass}")
            nb = NegBinParams(
                p=0.4, r=1, alpha=1.0, nu=nu, rho=rho, T=1.0, q_profile=Example31Profile(0.6)
            )
            ng = pmf_negbin_r1(nb, 0.5, 80)
            if abs(ng.head_mass() + ng.tail_mass - 1.0) > 1e-8:
                failures.append(f"negbin mass gap at (nu={nu},rho={rho})")
            if ng.tail_mass > 1e-8:
                failures.append(f"negbin tail not light at (nu={nu},rho={rho}): {ng.tail_mass}")

    # three-component mixture reassembly from public tables
    for a, nu, rho in ((0.8, 0.6, 0.3), (0.6, 0.5, 0.4), (1.0, 0.8, 0.7)):
        params = StfpParams(alpha=a, nu=nu, lam=1.0, T=1.0, rho=rho)
        base = replace(params, rho=0.0)
        t = 0.5
        mixed = pmf(params, t, 12)
        core_t = pmf(base, t, 12)
        core_T = pmf(base, params.T, 12)
        hold = F_stfp(params, t)
        for k in range(13):
            delta = 1.0 if k == 0 else 0.0
            want = (1.0 - rho) * core_t[k] + rho * ((1.0 - hold) * delta + hold * core_T[k])
            if abs(mixed[k] - want) > 1e-12:
                failures.append(f"stfp reassembly ({a},{nu},{rho}) k={k}")
        nb = NegBinParams(
            p=0.4, r=1, alpha=a, nu=nu, rho=rho, T=1.0, q_profile=Example31Profile(0.6)
        )
        nb0 = replace(nb, rho=0.0)
        nmixed = pmf_negbin_r1(nb, t, 10)
        ncore_t = pmf_negbin_r1(nb0, t, 10)
        ncore_T = pmf_negbin_r1(nb0, nb.T, 10)
        nhold = F_negbin(nb, t)
        for k in range(11):
            delta = 1.0 if k == 0 else 0.0
            want = (1.0 - rho) * ncore_t[k] + rho * ((1.0 - nhold) * delta + nhold * ncore_T[k])
            if abs(nmixed[k] - want) > 1e-12:
                failures.append(f"negbin reassembly ({a},{nu},{rho}) k={k}")

    # coupling weight invisible at the horizon
    for rho in (0.0, 0.3, 0.7, 1.0):
        st = pmf(StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=rho), 1.0, 10)
        st0 = pmf(StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=0.0), 1.0, 10)
        if any(abs(st[k] - st0[k]) > 1e-12 for k in range(11)):
            failures.append(f"stfp horizon law depends on rho={rho}")

    # kernel rows are distributions
    for n in range(31):
        for F in (0.0, 0.3, 0.7, 1.0):
            for rho in (0.0, 0.5, 1.0):
                row = math.fsum(q_kernel(k, n, F, rho) for k in range(n + 1))
                if abs(row - 1.0) > 1e-12:
                    failures.append(f"kernel row n={n} F={F} rho={rho}: {row}")

    # weighted law factors through the time-t weight vector
    base = PmfTable.from_probs(
        [math.exp(-1.0 - math.lgamma(k + 1)) for k in range(201)]
    )
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
        if abs(direct[k] - refactored[k]) > 1e-10:
            failures.append(f"weighted structure identity k={k}")

    _report(5, "normalization and mixture identities", failures, time.perf_counter() - start, budget=None)


def test_criterion_6_monte_carlo():
    start = time.perf_counter()
    failures = []
    n = 10**6

    params = StfpParams(alpha=1.0, nu=1.0, lam=1.0, T=1.0, rho=0.3)
    cfg = stfp_sim_config(params, seed=20260817, n_paths=n)
    batch = simulate_paths(cfg)
    emp = empirical_pmf(batch, 0.5)
    ana = pmf(params, 0.5, len(emp.table) - 1)
    tv = tv_distance(emp.table, ana)
    if tv >= 5e-3:
        failures.append(f"TV distance {tv} >= 5e-3")

    # covariance of the uniform-profile pool vs the closed form
    for s, t, rho, lam in ((0.25, 0.5, 1.0, 1.0), (0.2, 0.8, 0.5, 2.0)):
        p = StfpParams(alpha=1.0, nu=1.0, lam=lam, T=1.0, rho=rho)
        est = empirical_cov(simulate_paths(stfp_sim_config(p, seed=777, n_paths=n)), s, t)
        want = lam * s * (1.0 + lam * rho * (1.0 - t))
        if abs(est.value - want) > 4.0 * est.stderr:
            failures.append(
                f"cov(s={s},t={t},rho={rho},lam={lam}): {est.value}±{est.stderr} vs {want}"
            )

    got = empirical_joint_11(batch, 0.5, 1.0)
    want = joint_prob_brb(StfpParams(alpha=1.0, nu=1.0, lam=1.0, T=1.0, rho=0.0), 0.5)
    se = math.sqrt(want * (1.0 - want) / n)
    if abs(got - want) > 4.0 * se:
        failures.append(f"joint(1,1): {got} vs {want} (se {se})")

    small = stfp_sim_config(params, seed=42, n_paths=1000)
    b1, b2 = simulate_paths(small), simulate_paths(small)
    if not (
        np.array_equal(b1.times, b2.times)
        and np.array_equal(b1.offsets, b2.offsets)
        and np.array_equal(b1.common, b2.common)
    ):
        failures.append("identical seed produced different outputs")
    if any(sample_path(small, i) != b1.path(i) for i in (0, 99, 999)):
        failures.append("single-path sampler disagrees with the batch")

    _report(6, "Monte Carlo validation", failures, time.perf_counter() - start, budget=60.0)


def test_criterion_7_golden_values():
    start = time.perf_counter()
    failures = []

    got = mittag_leffler(0.5, 1.0, -1.0).value
    if abs(got - FR.ML_HALF_AT_MINUS_ONE) > 1e-9 * FR.ML_HALF_AT_MINUS_ONE:
        failures.append(f"ML(0.5,1;-1) = {got} vs {FR.ML_HALF_AT_MINUS_ONE}")

    # independent triangle by the defining recurrence, plain integers
    tri = {(0, 0): 1}
    for k in range(10):
        for h in range(k + 2):
            tri[(k + 1, h)] = tri.get((k, h - 1), 0) - k * tri.get((k, h), 0)
    for k in range(11):
        for h in range(k + 1):
            if stirling_first(k, h) != tri.get((k, h), 0):
                failures.append(f"stirling({k},{h}) != {tri.get((k, h), 0)}")
    if tuple(stirling_first(10, h) for h in range(11)) != FR.STIRLING_ROW_10:
        failures.append("stirling row 10 disagrees with the frozen row")

    for z in (0.0, -1.0, -2.0, -3.0):
        if recip_gamma_signed(z) != 0.0:
            failures.append(f"recip gamma at {z} is {recip_gamma_signed(z)}, want exact 0")

    _report(7, "special-function goldens", failures, time.perf_counter() - start, budget=None)
