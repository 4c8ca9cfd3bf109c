"""Per-layer probes for the traced run.

Each probe calls one public function of one module on fixed inputs, inside
a span named after the metric it feeds. The inputs do not depend on the
seed, so the work counts (series terms, integrand calls, epochs) repeat
exactly from run to run and from workload to workload.
"""
from __future__ import annotations

import math
import os
from dataclasses import replace

from workloads import N_PATHS, NU_GRID, U_GRID

SIM_SEED = 20140724
N_READS = 10_000

# metric -> (unit, calls per span); a time metric is the median of its
# reference-relative spans at the reference pace, over the calls each makes
TIMES = {
    "specfun.mittag_leffler_us": ("us", 20),
    "specfun.gen_mittag_leffler_us": ("us", 20),
    "specfun.fox_wright_ms": ("ms", 1),
    "stfpoisson.pmf_ms": ("ms", 1),
    "stfpoisson.pgf_us": ("us", 21),
    "stfpoisson.residual_series_ms": ("ms", 4),
    "stfpoisson.residual_quadrature_ms": ("ms", 4),
    "fnegbin.pmf_ms": ("ms", 1),
    "fnegbin.pmf_k80_ms": ("ms", 1),
    "fnegbin.pgf_us": ("us", 21),
    "fnegbin.operator_residual_ms": ("ms", 6),
    "fracops.caputo_quadrature_ms": ("ms", 1),
    "fracops.operator_quadrature_ms": ("ms", 1),
    "fracops.frac_difference_us": ("us", 41),
    "weighted.from_base_ms": ("ms", 1),
    "weighted.process_pmf_ms": ("ms", 1),
    "pmftable.from_probs_us": ("us", 100),
    "mcsim.sim_config_ms": ("ms", 1),
    "mcsim.simulate_ms": ("ms", 1),
    "mcsim.sample_path_us": ("us", 100),
    "mcsim.counts_at_ms": ("ms", 1),
    "mcsim.empirical_pmf_ms": ("ms", 1),
    "mcsim.empirical_cov_ms": ("ms", 1),
    "mcsim.joint_11_ms": ("ms", 1),
    "mcsim.path_read_us": ("us", N_READS),
    "cli.verify_ms": ("ms", 1),
    "cli.pmf_ms": ("ms", 1),
    "cli.negbin_ms": ("ms", 1),
    "cli.pgf_ms": ("ms", 1),
    "cli.figure1_ms": ("ms", 1),
    "cli.weighted_ms": ("ms", 1),
    "cli.simulate_ms": ("ms", 1),
}
COUNTS = {
    "specfun.mittag_leffler_terms": "count",
    "specfun.fox_wright_terms": "count",
    "fracops.caputo_integrand_evals": "count",
    "fracops.operator_integrand_evals": "count",
    "mcsim.epochs": "count",
    "mcsim.batch_mb": "MB",
}
_SCALE = {"us": 1e6, "ms": 1e3}

CLI_ARGS = {
    "cli.verify_ms": ["verify"],
    "cli.pmf_ms": ["pmf", "--alpha", "0.8", "--nu", "0.6", "--rho", "0.3", "--kmax", "40"],
    "cli.negbin_ms": ["negbin", "--alpha", "0.8", "--nu", "0.6", "--p", "0.5", "--rho", "0.4", "--kmax", "40"],
    "cli.pgf_ms": ["pgf", "--alpha", "0.8", "--nu", "0.6", "--rho", "0.3"],
    "cli.figure1_ms": ["figure1"],
    "cli.weighted_ms": ["weighted", "--rho", "0.3"],
    "cli.simulate_ms": ["simulate", "--rho", "0.3"],
}


class Counted:
    """An integrand that counts its calls."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x: float) -> float:
        self.calls += 1
        return self.f(x)


class Probes:
    """Fixed probe inputs, built once per traced run."""

    def __init__(self, fc, out_dir: str):
        self.fc = fc
        self.out = os.path.join(out_dir, f"probe-{os.getpid()}.csv")
        a, nu, lam, t = 0.8, 0.6, 1.0, 0.5
        self.stfp = fc.StfpParams(a, nu, lam, 1.0, 0.3)
        self.residual_params = fc.StfpParams(0.8, 0.5, 1.0, 1.0, 0.4)
        self.nb = fc.NegBinParams(p=0.5, r=1, alpha=a, nu=nu, rho=0.4, T=1.0,
                                  q_profile=fc.Example31Profile(0.5))
        self.nb_op = fc.NegBinParams(p=0.5, r=1, alpha=0.8, nu=0.8, rho=0.0, T=1.0,
                                     q_profile=fc.Example31Profile(0.5))
        # Mittag-Leffler arguments of the STFP pgf on the CLI grid, u < 1
        self.ml_args = [-(lam**a) * t**nu * (1.0 - u) ** a for u in U_GRID[:-1]]
        self.gml_args = [(v, -lam * t**v) for v in NU_GRID]
        # the Fox-Wright specs h = 1..40 a K=40 negbin table sums at level p
        z = -((-math.log(0.5)) ** a)
        self.fw = [(fc.FoxWrightSpec(upper=((1.0, a), (1.0, 1.0)), lower=((1.0 - h, a), (1.0, nu))), z)
                   for h in range(1, 41)]
        self.fw_cfg = replace(fc.DEFAULT_CONFIG, cancellation_limit=1e300)
        self.table = fc.pmf(self.stfp, t, 40)
        self.probs = list(self.table.probs)
        self.base = fc.PmfTable.from_probs([math.exp(-2.0 + k * math.log(2.0) - math.lgamma(k + 1))
                                            for k in range(201)])
        self.counts: dict[str, float] = {}

    def run_round(self, rec, rnd) -> None:
        """Every probe once; work counts must match the previous round."""
        fc = self.fc
        fracops = fc.fracops
        counts: dict[str, float] = {}
        timed = rec.timed

        with timed("specfun.mittag_leffler_us"):
            counts["specfun.mittag_leffler_terms"] = sum(fc.mittag_leffler(0.6, 1.0, x).terms_used for x in self.ml_args)
        with timed("specfun.gen_mittag_leffler_us"):
            for v, x in self.gml_args:
                fc.gen_mittag_leffler(v, v + 1.0, 2.0, x)
        with timed("specfun.fox_wright_ms"):
            counts["specfun.fox_wright_terms"] = sum(fc.fox_wright(spec, z, self.fw_cfg).terms_used for spec, z in self.fw)

        with timed("stfpoisson.pmf_ms"):
            fc.pmf(self.stfp, 0.5, 40)
        with timed("stfpoisson.pgf_us"):
            for u in U_GRID:
                fc.pgf(self.stfp, 0.5, u)
        with timed("stfpoisson.residual_series_ms"):
            series = [fc.governing_residual(self.residual_params, 0.6, k) for k in range(4)]
        with timed("stfpoisson.residual_quadrature_ms"):
            quad = [fc.governing_residual(self.residual_params, 0.6, k, method="quadrature") for k in range(4)]
        rnd.check(max(series) <= 1e-6 and max(quad) <= 1e-3, f"governing residuals {series} {quad}")

        with timed("fnegbin.pmf_ms"):
            fc.pmf_negbin_r1(self.nb, 0.5, 40)
        with timed("fnegbin.pmf_k80_ms"):
            fc.pmf_negbin_r1(self.nb, 0.5, 80)
        with timed("fnegbin.pgf_us"):
            for u in U_GRID:
                fc.pgf_negbin(self.nb, 0.5, u)
        with timed("fnegbin.operator_residual_ms"):
            ops = [fc.operator_residual_prop33(self.nb_op, 0.5, rho, u) for rho in (0.0, 1.0) for u in (1.05, 1.2, 1.4)]
        rnd.check(max(ops) <= 1e-3, f"operator residuals {ops}")

        f = Counted(lambda s: s**1.5)
        with timed("fracops.caputo_quadrature_ms"):
            got = fracops.caputo_derivative_quadrature(f, 0.6, 0.8)
        counts["fracops.caputo_integrand_evals"] = f.calls
        want = math.gamma(2.5) / math.gamma(1.9) * 0.8**0.9
        rnd.check(abs(got - want) <= 1e-4 * want, f"Caputo power rule: {got} vs {want}")
        spec = fracops.OperatorOAlphaSpec(alpha=0.5, a=1.0, b=1.0)
        g = Counted(lambda tau: math.log(1.0 + tau) ** 0.9)
        with timed("fracops.operator_quadrature_ms"):
            got = fracops.operator_O_alpha_quadrature(spec, g, 1.5)
        counts["fracops.operator_integrand_evals"] = g.calls
        want = fracops.operator_O_alpha_on_log_powers(spec, 0.9, 1.5)
        rnd.check(abs(got - want) <= 1e-4, f"log-power operator: {got} vs {want}")
        with timed("fracops.frac_difference_us"):
            for k in range(41):
                fracops.frac_difference(self.table, 0.8, k)

        with timed("weighted.from_base_ms"):
            wf = fc.WeightFn.from_base(lambda k: float(k), self.base)
        with timed("weighted.process_pmf_ms"):
            fc.weighted_process_pmf(self.base, wf, 0.4, 0.3, 20)
        with timed("pmftable.from_probs_us"):
            for _ in range(100):
                fc.PmfTable.from_probs(self.probs)

        with timed("mcsim.sim_config_ms"):
            cfg = fc.stfp_sim_config(fc.StfpParams(1.0, 1.0, 1.0, 1.0, 0.3), seed=SIM_SEED, n_paths=N_PATHS)
        with timed("mcsim.simulate_ms", memory=True):
            batch = fc.simulate_paths(cfg)
        counts["mcsim.epochs"] = len(batch.times)
        counts["mcsim.batch_mb"] = (batch.offsets.nbytes + batch.times.nbytes + batch.common.nbytes) / 1e6
        picks = range(0, N_PATHS, N_PATHS // 100)
        with timed("mcsim.sample_path_us"):
            for i in picks:
                fc.sample_path(cfg, i)
        with timed("mcsim.counts_at_ms", memory=True):
            batch.counts_at(0.5)
        with timed("mcsim.empirical_pmf_ms", memory=True):
            fc.empirical_pmf(batch, 0.5)
        with timed("mcsim.empirical_cov_ms", memory=True):
            fc.empirical_cov(batch, 0.3, 0.7)
        with timed("mcsim.joint_11_ms", memory=True):
            fc.empirical_joint_11(batch, 0.5, 1.0)
        with timed("mcsim.path_read_us"):
            for i in range(0, N_PATHS, N_PATHS // N_READS):
                batch.path(i)
        del batch

        for metric, argv in CLI_ARGS.items():
            with timed(metric):
                code = fc.cli.main(argv + ["--out", self.out])
            rnd.check(code == 0, f"{' '.join(argv)} exited {code}")

        if self.counts:
            rnd.check(counts == self.counts, f"work counts moved between rounds: {self.counts} -> {counts}")
        self.counts = counts

    def metrics(self, rec) -> dict[str, dict]:
        out = {}
        for metric, (unit, calls) in TIMES.items():
            out[metric] = {"value": rec.seconds(metric) / calls * _SCALE[unit], "unit": unit}
        for metric, unit in COUNTS.items():
            out[metric] = {"value": self.counts[metric], "unit": unit}
        return out

    def close(self) -> None:
        if os.path.exists(self.out):
            os.remove(self.out)
