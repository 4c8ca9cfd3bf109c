"""Command-line surface: CSV tables for pmf/pgf evaluation, the joint-law
comparison sweep, residual verification, Monte Carlo cross-checks, and the
weighted-transform worked examples.

Output format is fixed: "#"-prefixed header lines echoing every resolved
parameter, then an RFC-4180 body (CRLF line endings, "." decimal point,
17 significant digits).  Re-running a command with the header-echoed
parameters reproduces the file byte for byte.

Exit codes: 0 success (and, for `verify`, all residuals in tolerance),
1 verification failure, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from typing import Callable, Sequence

import numpy as np

from .errors import CountingProcessError, DomainError
from .fnegbin import Example31Profile, NegBinParams, operator_residual_prop33, pmf_negbin_r1
from .fracops import OperatorOAlphaSpec, _operator_quadrature, operator_O_alpha_on_log_powers
from .mcsim import empirical_pmf, simulate_paths, stfp_sim_config
from .pmftable import PmfTable
from .specfun import _mittag_leffler_many
from .stfpoisson import (
    StfpParams,
    _governing_residuals,
    joint_prob_brb,
    joint_prob_kps,
    pgf as stfp_pgf,
    pmf,
)
from .weighted import (
    WeightFn,
    covariance_corrected,
    covariance_increment,
    weighted_process_pmf,
)

__all__ = ["main"]

# the parameter set: each key is a flag (--key) and a config-file key, and
# the type of its default is the type the flag parses
_DEFAULTS: dict[str, float | int] = {
    "alpha": 1.0,
    "nu": 1.0,
    "lambda": 1.0,
    "T": 1.0,
    "t": 0.5,
    "rho": 0.0,
    "p": 0.5,
    "r": 1,
    "kmax": 20,
    "paths": 100_000,
    "seed": 12345,
}

# tables the verify suite runs; tolerances pinned here
_TOL_GOVERNING_SERIES = 1e-6
_TOL_GOVERNING_QUAD = 1e-3
_TOL_OPERATOR_IDENTITY = 1e-3
_TOL_LOG_POWER = 1e-4
_TOL_EIGEN = 1e-3

_GOVERNING_COMBOS = (
    (0.6, 0.5, 0.0),
    (0.6, 0.8, 0.4),
    (0.8, 0.5, 0.4),
    (0.8, 0.8, 0.0),
    (1.0, 0.5, 0.4),
    (1.0, 0.8, 0.0),
)

_TAIL_FLAG_LEVEL = 1e-9


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _fmt(key: str, value) -> str:
    return str(int(value)) if isinstance(_DEFAULTS[key], int) else _g17(value)


class _Usage(Exception):
    pass


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _Usage(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _Usage(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _DEFAULTS:
            raise _Usage(f"{path}:{ln}: unknown parameter {key!r}")
        out[key] = value
    return out


def _resolve(ns: argparse.Namespace) -> dict[str, float | int]:
    resolved = dict(_DEFAULTS)
    if ns.config:
        for key, text in _read_config(ns.config).items():
            try:
                resolved[key] = type(_DEFAULTS[key])(text)
            except ValueError as exc:
                raise _Usage(f"config parameter {key}={text!r} is not numeric") from exc
    for key in _DEFAULTS:
        flag = getattr(ns, key)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fraccount", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for key, default in _DEFAULTS.items():
            p.add_argument(f"--{key}", type=type(default), dest=key)
        p.add_argument("--out")
        p.add_argument("--config")
    return parser


def _pmf_rows(table: PmfTable) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    flag = "1" if table.tail_mass > _TAIL_FLAG_LEVEL else "0"
    rows = [(str(k), _g17(table[k]), flag) for k in range(len(table))]
    return ("k", "probability", "tail_mass_flag"), rows


def _cmd_pmf(P) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    params = StfpParams(alpha=P["alpha"], nu=P["nu"], lam=P["lambda"], T=P["T"], rho=P["rho"])
    return _pmf_rows(pmf(params, P["t"], P["kmax"]))


def _cmd_negbin(P) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    params = NegBinParams(
        p=P["p"], r=P["r"], alpha=P["alpha"], nu=P["nu"], rho=P["rho"], T=P["T"],
        q_profile=Example31Profile(1.0 - P["p"]),
    )
    return _pmf_rows(pmf_negbin_r1(params, P["t"], P["kmax"]))


def _cmd_pgf(P) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    # no --u flag exists, so the transform is tabulated on the fixed grid
    # u = -1.0(0.1)1.0
    params = StfpParams(alpha=P["alpha"], nu=P["nu"], lam=P["lambda"], T=P["T"], rho=P["rho"])
    rows = []
    for i in range(21):
        u = (i - 10) / 10.0
        rows.append((_g17(u), _g17(stfp_pgf(params, P["t"], u))))
    return ("u", "pgf"), rows


def _cmd_figure1(P) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    rows = []
    for i in range(1, 21):
        nu = i / 20.0
        kps = joint_prob_kps(nu, P["lambda"], P["T"], P["t"])
        brb = joint_prob_brb(
            StfpParams(alpha=1.0, nu=nu, lam=P["lambda"], T=P["T"], rho=0.0), P["t"]
        )
        rows.append((_g17(nu), _g17(kps), _g17(brb)))
    return ("nu", "p_kps", "p_brb"), rows


def _verify_rows() -> list[tuple[str, str, str, str, str]]:
    # grouped by equation name (ascending), grid order within each group
    groups: dict[str, list[tuple[str, str, str, str, str]]] = {}

    def add(equation: str, point: str, residual: float, tol: float) -> None:
        status = "pass" if residual <= tol else "fail"
        groups.setdefault(equation, []).append(
            (equation, point, _g17(residual), _g17(tol), status)
        )

    for alpha, nu, rho in _GOVERNING_COMBOS:
        params = StfpParams(alpha=alpha, nu=nu, lam=1.0, T=1.0, rho=rho)
        # k = 0..3 at each (t, route) in one call
        res = {
            (method, t): _governing_residuals(params, t, range(4), method)
            for t in (0.3, 0.6, 1.0) for method in ("series", "quadrature")
        }
        for k in range(4):
            for t in (0.3, 0.6, 1.0):
                point = f"alpha={alpha};nu={nu};rho={rho};k={k};t={t}"
                add("governing_balance_series", point, res["series", t][k], _TOL_GOVERNING_SERIES)
                add(
                    "governing_balance_quadrature", point, res["quadrature", t][k],
                    _TOL_GOVERNING_QUAD,
                )

    for index in (0.5, 0.8):
        nb = NegBinParams(
            p=0.5, r=1, alpha=index, nu=index, rho=0.0, T=1.0,
            q_profile=Example31Profile(0.5),
        )
        for rho in (0.0, 1.0):
            for u in (1.05, 1.2, 1.4):
                point = f"alpha=nu={index};rho={rho};u={u}"
                add(
                    "negbin_operator_identity", point,
                    operator_residual_prop33(nb, 0.5, rho, u), _TOL_OPERATOR_IDENTITY,
                )

    for alpha, beta, z in ((0.5, 0.9, 1.5), (0.7, 1.4, 2.0), (0.4, 0.6, 1.0)):
        spec = OperatorOAlphaSpec(alpha=alpha, a=1.0, b=1.0)
        closed = operator_O_alpha_on_log_powers(spec, beta, z)
        quad = _operator_quadrature(
            spec, lambda taus, beta=beta: [math.log(1.0 + tau) ** beta for tau in taus.tolist()], z
        )
        add(
            "log_power_closed_vs_quadrature",
            f"alpha={alpha};beta={beta};z={z}",
            abs(closed - quad), _TOL_LOG_POWER,
        )

    for alpha in (0.4, 0.7):
        for gam in (0.5, 2.0):
            spec = OperatorOAlphaSpec(alpha=alpha, a=1.0, b=1.0)

            def f_many(taus: np.ndarray, alpha=alpha, gam=gam) -> np.ndarray:
                return _mittag_leffler_many(alpha, [-gam * math.log(1.0 + tau) ** alpha for tau in taus.tolist()])

            for z in (0.8, 1.5):
                got = _operator_quadrature(spec, f_many, z)
                add(
                    "ml_eigenfunction_identity",
                    f"alpha={alpha};gamma={gam};z={z}",
                    abs(got + gam * float(f_many(np.array([z]))[0])), _TOL_EIGEN,
                )

    return [row for name in sorted(groups) for row in groups[name]]


def _cmd_verify(P) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    return ("equation", "point", "residual", "tolerance", "status"), _verify_rows()


def _cmd_simulate(P) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    params = StfpParams(alpha=P["alpha"], nu=P["nu"], lam=P["lambda"], T=P["T"], rho=P["rho"])
    cfg = stfp_sim_config(params, seed=P["seed"], n_paths=P["paths"])
    emp = empirical_pmf(simulate_paths(cfg), P["t"])
    ana = pmf(params, P["t"], len(emp.table) - 1)
    rows = [
        (str(k), _g17(emp.table[k]), _g17(ana[k]), _g17(emp.halfwidths[k]))
        for k in range(len(emp.table))
    ]
    return ("k", "empirical", "analytic", "wilson_halfwidth"), rows


def _cmd_weighted(P) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    lam, rho, t, kmax = P["lambda"], P["rho"], P["t"], P["kmax"]
    if not 0.0 < lam < math.inf:
        raise DomainError(f"rate must be positive, got {lam}")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"the uniform-profile pool lives on [0,1]; t={t}")
    base = PmfTable.from_probs(
        [math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) for k in range(201)]
    )
    wf = WeightFn.from_base(lambda k: float(k), base)
    sized = weighted_process_pmf(base, wf, t, rho, kmax)
    rows: list[tuple[str, ...]] = []
    for s, tt in ((0.2, 0.8), (0.25, 0.5)):
        rows.append(("covariance_corrected", f"s={s};t={tt}", _g17(covariance_corrected(lam, rho, s, tt))))
    for s, tt in ((0.2, 0.8), (0.25, 0.5)):
        rows.append(("covariance_increment", f"s={s};t={tt}", _g17(covariance_increment(lam, rho, s, tt))))
    rows.extend(("sizebias_pmf", f"k={k}", _g17(sized[k])) for k in range(len(sized)))
    return ("section", "point", "value"), rows


# each subcommand's handler and the parameters it consumes; only these are
# echoed in the header
_COMMANDS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "pmf": (_cmd_pmf, ("alpha", "nu", "lambda", "T", "t", "rho", "kmax")),
    "pgf": (_cmd_pgf, ("alpha", "nu", "lambda", "T", "t", "rho")),
    "figure1": (_cmd_figure1, ("lambda", "T", "t")),
    "verify": (_cmd_verify, ()),
    "simulate": (_cmd_simulate, ("alpha", "nu", "lambda", "T", "t", "rho", "paths", "seed")),
    "negbin": (_cmd_negbin, ("alpha", "nu", "p", "r", "rho", "T", "t", "kmax")),
    "weighted": (_cmd_weighted, ("lambda", "rho", "t", "kmax")),
}


def _render(subcommand: str, P: dict, columns: Sequence[str], rows) -> str:
    buf = io.StringIO()
    buf.write(f"# command={subcommand}\r\n")
    for key in sorted(_COMMANDS[subcommand][1]):
        buf.write(f"# {key}={_fmt(key, P[key])}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    try:
        P = _resolve(ns)
        columns, rows = _COMMANDS[ns.subcommand][0](P)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CountingProcessError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ArithmeticError) else 2

    text = _render(ns.subcommand, P, columns, rows)
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {ns.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)

    if ns.subcommand == "verify" and any(row[-1] == "fail" for row in rows):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
