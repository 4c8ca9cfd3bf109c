"""The three workloads: seeded inputs, set-up, one round, and the checks.

Every run reports every end-to-end metric, so each round runs the
workload's own operations (its focus) and a small fixed companion of the
other two kinds: the tables workload also runs one `verify` pass and two
small Monte Carlo batches, the verify workload a few tables and the same
two batches, and the montecarlo workload a few tables and one `verify`
pass. The focus is where the workloads differ; see README.md for the
make-up of each.
"""
from __future__ import annotations

import importlib
import math
import os
import random
import sys
from dataclasses import dataclass, field

import numpy as np

import closed_forms as cf
import refs
from harness import Round

K_TABLE = 40
K_LONG = 80
U_GRID = tuple((i - 10) / 10.0 for i in range(21))  # the CLI's pgf grid
NU_GRID = tuple(i / 20.0 for i in range(1, 21))  # the CLI's figure1 grid
U_SERIES = (-0.5, -0.25, 0.25, 0.5)
T_SPREAD = (0.3, 0.5, 0.7, 0.9, 0.4, 0.6, 0.8)
N_PATHS = 10**6
READ_BLOCK = 1_000
N_SAMPLE_CHECKS = 8
Z = 6.0  # z for Monte Carlo checks: ~2e-9 false alarms per comparison

# STFP tables at K=40: (alpha, nu, lam, rho, t). Points whose t is None take
# a seeded t; the others are the mpmath reference points and stay fixed. The
# series evaluator returns on all of them; alpha=1, nu=0.5 stops from lam~1.2.
STFP_GRID = (
    (0.6, 0.5, 1.2, 0.4, 0.6),
    (0.8, 0.8, 0.5, 0.2, 0.35),
    (0.6, 0.5, 1.0, 0.0, None),
    (0.8, 0.6, 1.0, 0.0, None),
    (0.8, 0.6, 1.0, 0.3, None),
    (1.0, 1.0, 1.0, 0.0, None),
    (1.0, 1.0, 1.0, 0.4, None),
    (1.0, 1.0, 2.0, 0.3, None),
    (1.0, 0.8, 1.5, 0.0, None),
    (1.0, 0.8, 1.5, 0.4, None),
    (0.6, 0.8, 1.5, 0.4, None),
    (0.8, 0.5, 1.5, 0.0, None),
    (0.8, 0.5, 1.5, 0.4, None),
    (0.6, 1.0, 2.0, 0.4, None),
    (1.0, 0.5, 1.0, 0.4, None),
)
# negative binomial r=1 tables: (p, alpha, nu, rho, t, K)
NEGBIN_GRID = (
    (0.5, 0.8, 0.6, 0.4, 0.5, K_TABLE),
    (0.3, 0.6, 0.5, 0.4, None, K_TABLE),
    (0.5, 1.0, 1.0, 0.4, None, K_TABLE),
    (0.7, 1.0, 0.6, 0.0, None, K_TABLE),
    (0.3, 0.6, 0.5, 0.0, 0.45, K_LONG),
)
STFP_PGF_GRID = ((0.8, 0.6, 1.0, 0.3), (1.0, 1.0, 1.0, 0.4), (0.6, 0.5, 1.0, 0.0), (1.0, 0.8, 1.5, 0.4))
NEGBIN_PGF_GRID = ((0.5, 0.8, 0.6, 0.4), (0.3, 1.0, 1.0, 0.0), (0.7, 0.6, 1.0, 0.4))
WEIGHTED_GRID = ((1.0, None, 0.3), (2.0, None, 0.0), (3.0, None, 0.6), (1.5, 1.0, 0.0))  # (lam, F, rho)
BASE_K = 200

# Monte Carlo batches: ("stfp", lam, rho) at alpha=nu=1, or ("negbin", p, rho)
# at alpha=1, nu=0.8; T=1 throughout. Each batch feeds empirical_pmf,
# empirical_cov and empirical_joint_11 at the given numbers of times, then
# the path reads. The companion batches are smaller, to keep rounds short,
# and two, so that a run still times a dozen or more of them.
MC_FOCUS = (("stfp", 1.0, 0.3), ("stfp", 0.5, 0.8), ("negbin", 0.5, 0.4))
MC_COMPANION = (("stfp", 1.0, 0.3), ("stfp", 0.5, 0.8))
FOCUS_USE = ((2, 1, 1), 5_000)  # (pmf, cov, joint) calls per batch, reads
COMPANION_USE = ((1, 1, 1), 2_000)
COMPANION_PATHS = N_PATHS // 4
VERIFY_FOCUS_PASSES = 2  # verify suites per round in the verify workload

# operations that fail today on every run, whatever the seed: the alternating
# series is the only route for these tables and for the pool-size table
FAILING_TABLES = (("stfp", 0.8, 0.6, 10.0), ("stfp", 1.0, 0.5, 2.0), ("negbin", 0.05, 0.8, 0.6))
FAILING_SIM = (1.0, 0.5, 1.0, 0.3)  # (alpha, nu, lam, rho)

VERIFY_GROUPS = (
    "governing_balance_quadrature",
    "governing_balance_series",
    "log_power_closed_vs_quadrature",
    "ml_eigenfunction_identity",
    "negbin_operator_identity",
)


def fresh_import():
    """Import the package from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "fraccount" or m.startswith("fraccount.")]:
        del sys.modules[name]
    fc = importlib.import_module("fraccount")
    importlib.import_module("fraccount.cli")
    importlib.import_module("fraccount.fracops")
    return fc


# ---------------------------------------------------------------- inputs

@dataclass
class Inputs:
    stfp_tables: list = field(default_factory=list)  # (alpha, nu, lam, rho, t)
    negbin_tables: list = field(default_factory=list)  # (p, alpha, nu, rho, t, K)
    stfp_pgf: list = field(default_factory=list)  # (alpha, nu, lam, rho, t)
    negbin_pgf: list = field(default_factory=list)  # (p, alpha, nu, rho, t)
    joint: list = field(default_factory=list)  # (lam, t), T=1
    weighted: list = field(default_factory=list)  # (lam, F, rho)
    batches: list = field(default_factory=list)  # Batch
    verify_passes: int = 1  # full verify suites a round runs
    failing: bool = False
    caputo_points: list = field(default_factory=list)  # (mu, nu, t)


@dataclass
class Batch:
    kind: str
    a: float  # lam (stfp) or p (negbin)
    rho: float
    seed: int
    n_paths: int
    pmf_times: tuple
    cov_pairs: tuple
    joint_times: tuple
    reads: tuple
    sample_checks: tuple


def _jitter(rng: random.Random, x: float, width: float = 0.05) -> float:
    return x * (1.0 + width * (2.0 * rng.random() - 1.0))


def _times(rng, fixed) -> list[float]:
    # seeded times spread over (0.3, 0.9); each moves by at most 5% with the
    # seed, so the work of a table barely depends on the seed
    return [t if t is not None else round(_jitter(rng, T_SPREAD[i % len(T_SPREAD)]), 6)
            for i, t in enumerate(fixed)]


def _tables_inputs(rng, focus: bool) -> dict:
    ts = _times(rng, [g[4] for g in STFP_GRID])
    stfp = [(a, n, lam, rho, t) for (a, n, lam, rho, _), t in zip(STFP_GRID, ts)]
    ts = _times(rng, [g[4] for g in NEGBIN_GRID])
    negbin = [(p, a, n, rho, t, K) for (p, a, n, rho, _, K), t in zip(NEGBIN_GRID, ts)]
    ts = _times(rng, [None] * len(STFP_PGF_GRID))
    spgf = [(a, n, lam, rho, t) for (a, n, lam, rho), t in zip(STFP_PGF_GRID, ts)]
    ts = _times(rng, [None] * len(NEGBIN_PGF_GRID))
    npgf = [(p, a, n, rho, t) for (p, a, n, rho), t in zip(NEGBIN_PGF_GRID, ts)]
    # lam t^nu stays near 0.77, where the nu=0.05 series needs ~100 terms; near
    # 1 its term count, and so the work, would swing with the seed
    joint = [(0.8, round(_jitter(rng, 0.5), 6))]
    weighted = [(round(_jitter(rng, lam, 0.2), 6), F if F is not None else round(rng.uniform(0.2, 0.8), 6), rho)
                for lam, F, rho in WEIGHTED_GRID]
    if focus:
        return dict(stfp_tables=stfp, negbin_tables=negbin, stfp_pgf=spgf, negbin_pgf=npgf,
                    joint=joint, weighted=weighted)
    # companion: one fractional and one classical STFP table, the K=40
    # negbin reference table, one transform grid each, one weighted table
    return dict(stfp_tables=[stfp[0], stfp[6]], negbin_tables=[negbin[0]], stfp_pgf=spgf[:1],
                negbin_pgf=npgf[:1], joint=joint, weighted=weighted[:1])


def _batch(rng, spec, n_paths: int, use) -> Batch:
    kind, a, rho = spec
    (n_pmf, n_cov, n_joint), n_reads = use
    return Batch(
        kind=kind, a=a, rho=rho, seed=rng.getrandbits(63), n_paths=n_paths,
        pmf_times=tuple(round(_jitter(rng, t, 0.1), 6) for t in (0.5, 0.25, 0.75)[:n_pmf]),
        cov_pairs=tuple((round(_jitter(rng, s, 0.1), 6), round(_jitter(rng, t, 0.05), 6))
                        for s, t in ((0.3, 0.7), (0.5, 0.9))[:n_cov]),
        joint_times=tuple(round(_jitter(rng, t, 0.1), 6) for t in (0.4, 0.8)[:n_joint]),
        reads=tuple(rng.randrange(n_paths) for _ in range(n_reads)),
        sample_checks=tuple(rng.randrange(n_paths) for _ in range(N_SAMPLE_CHECKS)),
    )


def make_inputs(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """The workload's inputs, a pure function of (workload, seed). Smoke
    inputs keep the focus only, with 10^5-path batches."""
    rng = random.Random(f"{workload}:{seed}")
    inp = Inputs(**_tables_inputs(rng, focus=workload == "tables"))
    specs, use, n_paths = ((MC_FOCUS, FOCUS_USE, N_PATHS) if workload == "montecarlo"
                           else (MC_COMPANION, COMPANION_USE, COMPANION_PATHS))
    inp.batches = [_batch(rng, s, N_PATHS // 10 if smoke else n_paths, use) for s in specs]
    inp.verify_passes = VERIFY_FOCUS_PASSES if workload == "verify" else 1
    if smoke:
        if workload == "tables":
            inp.batches, inp.verify_passes = [], 0
        elif workload == "verify":
            inp = Inputs(verify_passes=1)
        else:
            inp = Inputs(batches=inp.batches, verify_passes=0)
    inp.failing = workload in ("tables", "montecarlo")
    inp.caputo_points = [(round(rng.uniform(0.5, 2.5), 6), round(rng.uniform(0.3, 0.9), 6),
                          round(rng.uniform(0.5, 1.5), 6)) for _ in range(3)]
    return inp


# ---------------------------------------------------------------- set-up

class State:
    """Parameter objects and simulator configs built from the inputs."""

    def __init__(self, fc, inp: Inputs, workload: str, out_dir: str):
        self.fc = fc
        self.inp = inp
        self.workload = workload
        self.stfp = [(fc.StfpParams(a, n, lam, 1.0, rho), t) for a, n, lam, rho, t in inp.stfp_tables]
        self.negbin = [(_nb(fc, p, a, n, rho), t, K) for p, a, n, rho, t, K in inp.negbin_tables]
        self.stfp_pgf = [(fc.StfpParams(a, n, lam, 1.0, rho), t) for a, n, lam, rho, t in inp.stfp_pgf]
        self.negbin_pgf = [(_nb(fc, p, a, n, rho), t) for p, a, n, rho, t in inp.negbin_pgf]
        self.bases = [fc.PmfTable.from_probs([cf.poisson(lam, k) for k in range(BASE_K + 1)])
                      for lam, _, _ in inp.weighted]
        self.sims = [self._sim_config(b) for b in inp.batches]
        self.expected: dict = {}  # analytic tables for the Monte Carlo checks, filled lazily
        self.verify_out = os.path.join(out_dir, f"verify-{os.getpid()}.csv")
        # warm-up: one call into each path the round takes
        if self.stfp:
            fc.pmf(self.stfp[0][0], self.stfp[0][1], 2)
        if self.negbin:
            fc.pmf_negbin_r1(self.negbin[0][0], self.negbin[0][1], 2)
        if self.sims:
            fc.sample_path(self.sims[0], 0)

    def _sim_config(self, b: Batch):
        fc = self.fc
        if b.kind == "stfp":
            params = fc.StfpParams(1.0, 1.0, b.a, 1.0, b.rho)
            return fc.stfp_sim_config(params, seed=b.seed, n_paths=b.n_paths)
        return fc.negbin_sim_config(_nb(fc, b.a, 1.0, 0.8, b.rho), seed=b.seed, n_paths=b.n_paths)


def _nb(fc, p, alpha, nu, rho):
    return fc.NegBinParams(p=p, r=1, alpha=alpha, nu=nu, rho=rho, T=1.0,
                           q_profile=fc.Example31Profile(1.0 - p))


# ---------------------------------------------------------------- one round

def run_round(st: State, rnd: Round) -> None:
    """One pass over every operation of the workload, focus first.

    The cheap table and transform blocks run again after every long
    operation, so they collect many samples spread over the run. Outside
    the tables workload the one negbin table is a companion, and it runs
    with the cheap blocks for the same reason.
    """
    negbin = [lambda rnd, i=i: _negbin_table(st, rnd, i) for i in range(len(st.negbin))]
    verify = [lambda rnd: _verify(st, rnd)] * st.inp.verify_passes
    batches = [lambda rnd, i=i: _batch_ops(st, rnd, i) for i in range(len(st.sims))]
    long_ops, cheap = {"tables": (negbin + verify + batches, []),
                       "verify": (verify + batches, negbin),
                       "montecarlo": (batches + verify, negbin)}[st.workload]
    for op in long_ops:
        op(rnd)
        for companion in cheap:
            companion(rnd)
        _short_blocks(st, rnd)
    if st.inp.failing:
        _known_failures(st, rnd)


def _close(a: float, b: float, abs_tol: float, rel_tol: float = 0.0) -> bool:
    return abs(a - b) <= abs_tol + rel_tol * abs(b)


def _series_at(table, u: float) -> float:
    return math.fsum(p * u**k for k, p in enumerate(table.probs))


def _check_table(rnd, name, table, K, ref, classical, pgf_at):
    """Checks every table gets: its reference entries, the classical law at
    alpha = nu = 1, and at fractional indices the series against the pgf."""
    rnd.check(len(table) == K + 1 and table.tail_mass >= -1e-9, f"{name}: shape or tail")
    for k, v in (ref or {}).items():
        rnd.check(_close(table[k], v, 1e-12, 1e-9), f"{name}: k={k} is {table[k]!r}, mpmath {v!r}")
    if classical is not None:
        for k in range(K + 1):
            rnd.check(_close(table[k], classical(k), 1e-12), f"{name}: k={k} off the classical law")
    else:
        tail = max(table.tail_mass, 0.0)
        for u in U_SERIES:
            bound = abs(u) ** (K + 1) * tail + 1e-11
            rnd.check(_close(_series_at(table, u), pgf_at(u), bound), f"{name}: series at u={u} off the pgf")


def _short_blocks(st: State, rnd: Round) -> None:
    """The STFP tables, the transform grids and the weighted tables, each
    timed as one block."""
    fc = st.fc
    if st.stfp:
        tables = rnd.op("stfp_tables", "stfp_tables", len(st.stfp),
                        lambda: [fc.pmf(params, t, K_TABLE) for params, t in st.stfp])
        for table, (params, t), (a, n, lam, rho, _) in zip(tables or (), st.stfp, st.inp.stfp_tables):
            classical = (lambda k: cf.stfp_classical_pmf(lam, 1.0, rho, t, k)) if a == n == 1.0 else None
            _check_table(rnd, f"stfp_table[{a},{n},{lam},{rho}]", table, K_TABLE,
                         refs.STFP.get((a, n, lam, 1.0, rho, t)), classical, lambda u: fc.pgf(params, t, u))
    if st.stfp_pgf or st.negbin_pgf or st.inp.joint:
        evals = len(U_GRID) * (len(st.stfp_pgf) + len(st.negbin_pgf)) + 2 * len(NU_GRID) * len(st.inp.joint)
        out = rnd.op("transforms", "transform_evals", evals, lambda: _transforms(st))
        if out is not None:
            _check_transforms(st, rnd, *out)
    if st.bases:
        def sized():
            out = []
            for base, (_, F, rho) in zip(st.bases, st.inp.weighted):
                wf = fc.WeightFn.from_base(lambda k: float(k), base)
                out.append(fc.weighted_process_pmf(base, wf, F, rho, 20))
            return out
        for table, (lam, F, rho) in zip(rnd.op("weighted_tables", "weighted_tables", len(st.bases), sized) or (),
                                        st.inp.weighted):
            rnd.check(all(_close(table[k], cf.sizebiased_pool_pmf(lam, F, rho, k), 1e-12) for k in range(21)),
                      f"weighted[{lam},{F},{rho}]: off the size-biased Poisson pool")


def _transforms(st: State):
    fc = st.fc
    stfp = [[fc.pgf(params, t, u) for u in U_GRID] for params, t in st.stfp_pgf]
    negbin = [[fc.pgf_negbin(params, t, u) for u in U_GRID] for params, t in st.negbin_pgf]
    joint = [[(fc.joint_prob_kps(nu, lam, 1.0, t), fc.joint_prob_brb(fc.StfpParams(1.0, nu, lam, 1.0, 0.0), t))
              for nu in NU_GRID] for lam, t in st.inp.joint]
    return stfp, negbin, joint


def _check_transforms(st: State, rnd: Round, stfp, negbin, joint) -> None:
    for vals, (a, n, lam, rho, t) in zip(stfp, st.inp.stfp_pgf):
        classical = (lambda u: cf.stfp_classical_pgf(lam, 1.0, rho, t, u)) if a == n == 1.0 else None
        _check_pgf_grid(rnd, f"stfp_pgf[{a},{n},{lam},{rho}]", vals, classical)
    for vals, (p, a, n, rho, t) in zip(negbin, st.inp.negbin_pgf):
        classical = (lambda u: cf.negbin_classical_pgf(p, 1.0, rho, t, u)) if a == n == 1.0 else None
        _check_pgf_grid(rnd, f"negbin_pgf[{p},{a},{n},{rho}]", vals, classical)
    for rows, (lam, t) in zip(joint, st.inp.joint):
        kps, brb = rows[-1]
        want = cf.joint_11_classical(lam, 1.0, t)
        rnd.check(_close(kps, brb, 0.0, 1e-12) and _close(kps, want, 0.0, 1e-12),
                  f"joint laws at nu=1: kps {kps!r}, brb {brb!r}, closed form {want!r}")
        rnd.check(all(0.0 <= x <= 1.0 for row in rows for x in row), "joint law outside [0, 1]")


def _check_pgf_grid(rnd, name, vals, classical):
    rnd.check(vals[-1] == 1.0, f"{name}: pgf(1) is {vals[-1]!r}")
    if classical is not None:
        rnd.check(all(_close(v, classical(u), 0.0, 1e-12) for u, v in zip(U_GRID, vals)),
                  f"{name}: off the classical pgf")
    # nonnegative coefficients: increasing on [0, 1] and bounded by pgf(1)
    upper = vals[10:]
    rnd.check(all(x <= y + 1e-12 for x, y in zip(upper, upper[1:])), f"{name}: pgf not increasing on [0,1]")
    rnd.check(all(abs(v) <= 1.0 + 1e-12 for v in vals), f"{name}: |pgf| above 1")


def _negbin_table(st: State, rnd: Round, i: int) -> None:
    fc = st.fc
    (params, t, K), (p, a, n, rho, _, _) = st.negbin[i], st.inp.negbin_tables[i]
    name = f"negbin_table[{p},{a},{n},{rho},K={K}]"
    table = rnd.op(name, "negbin_tables", 1, lambda: fc.pmf_negbin_r1(params, t, K))
    if table is not None:
        classical = (lambda k: cf.negbin_classical_pmf(p, 1.0, rho, t, k)) if a == n == 1.0 else None
        _check_table(rnd, name, table, K, refs.NEGBIN.get((p, a, n, rho, 1.0, t)), classical,
                     lambda u: fc.pgf_negbin(params, t, u))


# the calls cli.main makes into the package for the verify suite, 167 in a
# pass; before each, the pass's clock may stop for a reference timing
VERIFY_CALLS = ("governing_residual", "operator_residual_prop33", "operator_O_alpha_quadrature")


def _verify(st: State, rnd: Round) -> None:
    cli = st.fc.cli
    checkpoint = rnd.rec.checkpoint

    def sliced(fn):
        def call(*args, **kwargs):
            checkpoint()
            return fn(*args, **kwargs)
        return call

    originals = {name: getattr(cli, name) for name in VERIFY_CALLS if hasattr(cli, name)}
    for name, fn in originals.items():
        setattr(cli, name, sliced(fn))
    try:
        code = rnd.op("verify", "", 1, lambda: cli.main(["verify", "--out", st.verify_out]))
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    if code is None:
        return
    rnd.check(code == 0, f"verify exit code {code}")
    with open(st.verify_out, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh.read().split("\r\n") if ln and not ln.startswith("#")]
    rows = [ln.split(",") for ln in lines[1:]]
    rnd.check(lines[0] == "equation,point,residual,tolerance,status", "verify header")
    rnd.check({r[0] for r in rows} == set(VERIFY_GROUPS), "verify groups")
    for r in rows:
        rnd.check(r[4] == "pass" and float(r[2]) <= float(r[3]), f"verify row {r}")
    _check_caputo_power_rule(st, rnd)


def _check_caputo_power_rule(st: State, rnd: Round) -> None:
    # Caputo derivative of s^mu: Gamma(mu+1)/Gamma(mu+1-nu) s^(mu-nu)
    fracops = st.fc.fracops
    for mu, nu, t in st.inp.caputo_points:
        got = fracops.caputo_derivative_quadrature(lambda s, mu=mu: s**mu, nu, t)
        want = math.gamma(mu + 1.0) / math.gamma(mu + 1.0 - nu) * t ** (mu - nu)
        rnd.check(_close(got, want, 0.0, 1e-4), f"Caputo power rule mu={mu} nu={nu} t={t}: {got!r} vs {want!r}")


def _batch_ops(st: State, rnd: Round, i: int) -> None:
    """Simulate one batch, run the estimators on it and read paths from it."""
    fc = st.fc
    b, cfg = st.inp.batches[i], st.sims[i]
    tag = f"{b.kind}[{b.a},{b.rho}]"
    batch = rnd.op(f"simulate:{tag}", "mc_paths", b.n_paths, lambda: fc.simulate_paths(cfg), calls=1,
                 memory=True)
    if batch is None:
        return
    _check_batch(st, rnd, b, cfg, batch, tag)
    for t in b.pmf_times:
        emp = rnd.op(f"empirical_pmf:{tag}:{t}", "mc_estimates", 1, lambda: fc.empirical_pmf(batch, t),
                     memory=True)
        if emp is not None:
            expected = _expected_pmf(st, b, t, len(emp.table) - 1)
            rnd.check(all(cf.proportion_ok(emp.table[k], expected[k], b.n_paths, Z) for k in range(len(emp.table))),
                      f"{tag}: empirical pmf at t={t} off the analytic law")
    for s, t in b.cov_pairs:
        est = rnd.op(f"empirical_cov:{tag}:{s}", "mc_estimates", 1, lambda: fc.empirical_cov(batch, s, t),
                     memory=True)
        if est is not None and b.kind == "stfp":
            want = cf.pool_covariance(b.a, b.rho, s, t)
            rnd.check(abs(est.value - want) <= Z * est.stderr,
                      f"{tag}: covariance at ({s},{t}) is {est.value} ± {est.stderr}, closed form {want}")
    for t in b.joint_times:
        got = rnd.op(f"joint_11:{tag}:{t}", "mc_estimates", 1, lambda: fc.empirical_joint_11(batch, t, 1.0),
                     memory=True)
        if got is not None and b.kind == "stfp":
            rnd.check(cf.proportion_ok(got, cf.joint_11_classical(b.a, 1.0, t), b.n_paths, Z),
                      f"{tag}: joint 1-1 probability at t={t} is {got}")
    # reads in blocks, so the read rate also collects many samples per run
    for lo in range(0, len(b.reads), READ_BLOCK):
        picks = b.reads[lo:lo + READ_BLOCK]
        paths = rnd.op(f"path_reads:{tag}", "path_reads", len(picks), lambda: [batch.path(j) for j in picks])
        if paths is not None:
            rnd.check(all(list(p.event_times) == sorted(p.event_times) for p in paths), f"{tag}: unsorted path")


def _check_batch(st, rnd, b, cfg, batch, tag):
    fc = st.fc
    for i in b.sample_checks:
        rnd.check(fc.sample_path(cfg, i) == batch.path(i), f"{tag}: sample_path({i}) differs from batch.path({i})")
    # times ascend within every path: a descent may sit only at a path start
    descents = (batch.times[1:] < batch.times[:-1]).nonzero()[0] + 1
    path_start = np.zeros(len(batch.times) + 1, dtype=bool)
    path_start[batch.offsets] = True
    rnd.check(bool(path_start[descents].all()), f"{tag}: times not sorted within a path")


def _expected_pmf(st: State, b: Batch, t: float, K: int):
    key = (b.kind, b.a, b.rho, t)
    table = st.expected.get(key)
    if table is None or len(table) <= K:
        if b.kind == "stfp":
            table = [cf.stfp_classical_pmf(b.a, 1.0, b.rho, t, k) for k in range(K + 1)]
        else:
            table = list(st.fc.pmf_negbin_r1(_nb(st.fc, b.a, 1.0, 0.8, b.rho), t, K).probs)
        st.expected[key] = table
    return table


def _known_failures(st: State, rnd: Round) -> None:
    fc = st.fc
    if st.workload == "tables":
        for kind, x, a, n in FAILING_TABLES:
            if kind == "stfp":
                rnd.known_failure(lambda: fc.pmf(fc.StfpParams(a, n, x, 1.0, 0.0), 0.5, K_TABLE))
            else:
                rnd.known_failure(lambda: fc.pmf_negbin_r1(_nb(fc, x, a, n, 0.4), 0.5, K_TABLE))
    else:
        a, n, lam, rho = FAILING_SIM
        rnd.known_failure(lambda: fc.stfp_sim_config(fc.StfpParams(a, n, lam, 1.0, rho), seed=1, n_paths=N_PATHS))
