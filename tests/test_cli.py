import csv
import io
import math

import pytest

from fraccount import cli, fnegbin, stfpoisson
from fraccount.cli import _verify_rows, main
from fraccount.fnegbin import Example31Profile, F_negbin, NegBinParams, pgf_negbin, pmf_negbin_r1
from fraccount.fracops import (
    OperatorOAlphaSpec,
    operator_O_alpha_on_log_powers,
    operator_O_alpha_quadrature,
)
from fraccount.specfun import mittag_leffler
from fraccount.stfpoisson import StfpParams, governing_residual, pmf


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def parse_csv(text):
    header = {}
    body_lines = []
    for line in text.split("\r\n"):
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            header[key] = val
        elif line:
            body_lines.append(line)
    rows = list(csv.reader(io.StringIO("\r\n".join(body_lines))))
    return header, rows[0], rows[1:]


def test_pmf_matches_library(capsys):
    code, out = run_cli(
        ["pmf", "--alpha", "0.8", "--nu", "0.6", "--rho", "0.3", "--kmax", "6"], capsys
    )
    assert code == 0
    header, cols, rows = parse_csv(out)
    assert cols == ["k", "probability", "tail_mass_flag"]
    assert header["command"] == "pmf"
    assert len(rows) == 7
    params = StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=0.3)
    want = pmf(params, 0.5, 6)
    for row in rows:
        k = int(row[0])
        assert float(row[1]) == want[k]
    # heavy tail here, so the flag is set on every row
    assert {row[2] for row in rows} == {"1"}


def test_pmf_light_tail_flag_clear(capsys):
    code, out = run_cli(["pmf", "--kmax", "40"], capsys)
    assert code == 0
    _, _, rows = parse_csv(out)
    assert {row[2] for row in rows} == {"0"}


def test_figure1_grid_and_classical_agreement(capsys):
    code, out = run_cli(["figure1"], capsys)
    assert code == 0
    _, cols, rows = parse_csv(out)
    assert cols == ["nu", "p_kps", "p_brb"]
    assert len(rows) == 20
    last = rows[-1]
    assert float(last[0]) == 1.0
    assert abs(float(last[1]) - float(last[2])) <= 1e-9
    assert float(last[1]) == pytest.approx(0.18393972058572117, rel=1e-9)
    # fractional rows keep the two joint laws apart
    mid = next(row for row in rows if float(row[0]) == 0.5)
    assert abs(float(mid[1]) - float(mid[2])) > 1e-3


def test_pgf_fixed_grid(capsys):
    code, out = run_cli(["pgf", "--alpha", "0.7", "--nu", "0.8"], capsys)
    assert code == 0
    _, cols, rows = parse_csv(out)
    assert cols == ["u", "pgf"]
    assert len(rows) == 21
    assert float(rows[0][0]) == -1.0
    assert float(rows[-1][0]) == 1.0
    assert float(rows[-1][1]) == 1.0  # normalization row


def test_negbin_geometric_reduction(capsys):
    code, out = run_cli(
        ["negbin", "--p", "0.4", "--alpha", "1", "--nu", "1", "--kmax", "10"], capsys
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    params = NegBinParams(
        p=0.4, r=1, alpha=1.0, nu=1.0, rho=0.0, T=1.0, q_profile=Example31Profile(0.6)
    )
    qt = params.q(0.5)
    for row in rows:
        k = int(row[0])
        assert float(row[1]) == pytest.approx(qt * (1.0 - qt) ** k, rel=1e-10)


def test_deep_tables_exit_zero(capsys):
    # a light-tailed STFP table past k = 158 and a heavy-tailed negbin table
    # to the Stirling cap: both print a table, neither a traceback
    stfp = ["pmf", "--lambda", "2", "--kmax", "170", "--t", "1"]
    negbin = ["negbin", "--p", "0.5", "--alpha", "0.6", "--nu", "0.5", "--kmax", "170", "--t", "1"]
    for argv in (stfp, negbin):
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert len(parse_csv(out)[2]) == 171


def test_verify_all_pass(capsys):
    code, out = run_cli(["verify"], capsys)
    assert code == 0
    _, cols, rows = parse_csv(out)
    assert cols == ["equation", "point", "residual", "tolerance", "status"]
    assert rows, "verify must emit at least one residual row"
    assert all(row[-1] == "pass" for row in rows)
    for row in rows:
        assert float(row[2]) <= float(row[3])
    # rows arrive grouped by equation name in ascending order
    names = [row[0] for row in rows]
    assert names == sorted(names)


def test_verify_exits_one_on_a_failed_row(monkeypatch, capsys):
    # a tolerance of 0 fails every governing series row with a nonzero residual
    monkeypatch.setattr(cli, "_TOL_GOVERNING_SERIES", 0.0)
    code, out = run_cli(["verify"], capsys)
    assert code == 1
    statuses = {row[0]: row[-1] for row in parse_csv(out)[2] if row[-1] == "fail"}
    assert statuses == {"governing_balance_series": "fail"}


def _public_residual(equation, point):
    # a verify row's residual rebuilt from the public scalar APIs, one call
    # per k and one integrand call per stencil point; the negbin identity is
    # at p = 0.5, t = 0.5 as in the suite
    kv = {key: float(val) for key, val in (item.rsplit("=", 1) for item in point.split(";"))}
    if equation.startswith("governing_balance"):
        params = StfpParams(alpha=kv["alpha"], nu=kv["nu"], lam=1.0, T=1.0, rho=kv["rho"])
        method = equation.rsplit("_", 1)[1]
        return governing_residual(params, kv["t"], int(kv["k"]), method=method)
    if equation == "negbin_operator_identity":
        return _public_operator_residual(0.5, kv["alpha=nu"], 0.5, kv["rho"], kv["u"])
    spec = OperatorOAlphaSpec(alpha=kv["alpha"], a=1.0, b=1.0)
    if equation == "log_power_closed_vs_quadrature":
        beta = kv["beta"]
        quad = operator_O_alpha_quadrature(spec, lambda tau: math.log(1.0 + tau) ** beta, kv["z"])
        return abs(operator_O_alpha_on_log_powers(spec, beta, kv["z"]) - quad)
    alpha, gam = kv["alpha"], kv["gamma"]

    def f(tau):
        return mittag_leffler(alpha, 1.0, -gam * math.log(1.0 + tau) ** alpha).value

    return abs(operator_O_alpha_quadrature(spec, f, kv["z"]) + gam * f(kv["z"]))


def _public_operator_residual(p, index, t, rho, u):
    # operator_residual_prop33 rebuilt from the public scalar APIs, one
    # pgf_negbin call per stencil point; q runs from 1 at t = 0 to p at T = 1
    nb = NegBinParams(p=p, r=1, alpha=index, nu=index, rho=rho, T=1.0,
                      q_profile=Example31Profile(1.0 - p))
    level = p if rho == 1.0 else nb.q(t)
    op = OperatorOAlphaSpec(alpha=index, a=1.0 / level, b=(level - 1.0) / level)
    lhs = operator_O_alpha_quadrature(op, lambda v: pgf_negbin(nb, t, v), u)
    rhs = -pgf_negbin(nb, t, u)
    if rho == 1.0:
        rhs += 1.0 - F_negbin(nb, t)
    return abs(lhs - rhs)


def test_verify_rows_match_public_scalar_apis():
    # the grouped residuals and array integrands give every row the bits of
    # the public scalar calls
    rows = _verify_rows()
    assert len(rows) == 167
    for equation, point, residual, _, _ in rows:
        assert float(residual).hex() == _public_residual(equation, point).hex(), (equation, point)


# off the verify grid (p = 0.5, t = 0.5): p = 0.3; t = 0.25, and t = T,
# where the held branch reads the running one; rho = 1 at t = 0, where
# F = 0 and the integrand is 1; alpha = nu = 1 on the backward stencil; u
# near 1 and near the radius 1/(1 - level), 1.43 at level p.  At the deepest
# nodes exp(w) rounds to 1 and a stencil point lands on v = 1, where the pgf
# is exactly 1; the last three points read that value in a finite difference
OFF_GRID_OPERATOR = [
    *((0.3, index, t, rho, u)
      for index in (0.6, 0.85, 1.0)
      for t, rho in ((0.25, 0.0), (0.25, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
      for u in (1.05, 1.4)),
    (0.1, 0.8, 0.5, 1.0, 1.0786441174032764),
    (0.01, 0.6, 0.25, 1.0, 1.001121043564834),
    (0.01, 0.8, 0.5, 1.0, 1.009577185299732),
]


@pytest.mark.parametrize("p, index, t, rho, u", OFF_GRID_OPERATOR)
def test_operator_residual_matches_public_scalar_apis_off_grid(p, index, t, rho, u):
    nb = NegBinParams(p=p, r=1, alpha=index, nu=index, rho=0.5, T=1.0, q_profile=Example31Profile(1.0 - p))
    got = fnegbin.operator_residual_prop33(nb, t, rho, u)
    assert got.hex() == _public_operator_residual(p, index, t, rho, u).hex()


def test_verify_pass_work(monkeypatch):
    # one count-series call per table and per stencil at each (params, t,
    # route), and scalar Mittag-Leffler sums only outside the quadratures
    calls = {"count": 0, "scalar": 0}

    def counted(fn, key):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(stfpoisson, "_count_series", counted(stfpoisson._count_series, "count"))
    # the scalar entry points, under the names the process modules call them by
    for module, name in ((stfpoisson, "mittag_leffler"), (stfpoisson, "gen_mittag_leffler"),
                         (fnegbin, "mittag_leffler")):
        monkeypatch.setattr(module, name, counted(getattr(module, name), "scalar"))
    _verify_rows()
    assert calls["count"] <= 54 and 0 < calls["scalar"] < 100


def test_simulate_deterministic_under_seed(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    args = ["simulate", "--paths", "20000", "--seed", "7", "--t", "0.5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["simulate", "--paths", "20000", "--seed", "8", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_simulate_tracks_analytic(capsys):
    code, out = run_cli(["simulate", "--paths", "50000", "--seed", "3"], capsys)
    assert code == 0
    _, cols, rows = parse_csv(out)
    assert cols == ["k", "empirical", "analytic", "wilson_halfwidth"]
    for row in rows:
        emp, ana, hw = float(row[1]), float(row[2]), float(row[3])
        assert abs(emp - ana) <= 4.0 * hw


def test_weighted_worked_examples(capsys):
    code, out = run_cli(["weighted", "--rho", "0.3", "--t", "0.4", "--kmax", "3"], capsys)
    assert code == 0
    _, cols, rows = parse_csv(out)
    assert cols == ["section", "point", "value"]
    table = {(row[0], row[1]): float(row[2]) for row in rows}
    assert table[("sizebias_pmf", "k=0")] == pytest.approx(0.46153441933496851, rel=1e-12)
    lam, rho = 1.0, 0.3
    assert table[("covariance_corrected", "s=0.25;t=0.5")] == pytest.approx(
        lam * 0.25 * (1.0 + lam * rho * 0.5), rel=1e-15
    )
    assert table[("covariance_increment", "s=0.2;t=0.8")] == pytest.approx(
        -(lam**2) * rho * 0.2 * 0.6, rel=1e-13
    )


def test_round_trip_byte_identical(tmp_path):
    first = tmp_path / "first.csv"
    again = tmp_path / "again.csv"
    assert main(["pmf", "--alpha", "0.8", "--nu", "0.6", "--rho", "0.3",
                 "--kmax", "8", "--out", str(first)]) == 0
    flags = []
    for raw in first.read_bytes().split(b"\r\n"):
        line = raw.decode()
        if not line.startswith("# "):
            break
        key, _, val = line[2:].partition("=")
        if key != "command":
            flags += [f"--{key}", val]
    assert main(["pmf", *flags, "--out", str(again)]) == 0
    assert first.read_bytes() == again.read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.8\nnu=0.6\n# a comment\n\nt=0.25\n")
    code, out = run_cli(["pmf", "--config", str(cfg), "--t", "0.5", "--kmax", "2"], capsys)
    assert code == 0
    header, _, _ = parse_csv(out)
    assert float(header["alpha"]) == 0.8
    assert float(header["t"]) == 0.5  # flag beats config


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=3\n")
    code, _ = run_cli(["pmf", "--config", str(cfg)], capsys)
    assert code == 2


def test_config_non_numeric_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha=fast\n")
    code, _ = run_cli(["pmf", "--config", str(cfg)], capsys)
    assert code == 2


def test_config_unreadable_rejected(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["pmf", "--config", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {missing}: ")


def test_config_line_without_equals_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha=0.8\nnu 0.6\n")
    assert main(["pmf", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got 'nu 0.6'\n"


def test_unwritable_out_rejected(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "pmf.csv"
    assert main(["pmf", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_usage_errors_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["pmf", "--alpha", "1.5"]) == 2  # out-of-domain parameter
    # an out-of-domain, NaN or infinite rate is refused before any table is built
    for lam in ("0", "-1", "nan", "inf"):
        assert main(["weighted", "--lambda", lam]) == 2
    assert main(["figure1", "--lambda", "nan"]) == 2
    # so are an infinite rate and an infinite horizon of the process
    assert main(["pmf", "--lambda", "inf"]) == 2
    assert main(["pmf", "--T", "inf"]) == 2


def test_numeric_failure_exits_three(capsys):
    # heavy-tail pool law cannot reach the sampler cutoff
    assert main(["simulate", "--alpha", "0.5", "--nu", "0.8", "--paths", "100"]) == 3
    # a count-series term overflows: a numeric failure, not a crash
    overflow = ["--alpha", "0.8", "--nu", "0.5", "--lambda", "300", "--t", "1"]
    assert main(["pmf", *overflow]) == 3
    assert main(["simulate", *overflow, "--paths", "100"]) == 3
    assert "term 275 is not finite" in capsys.readouterr().err
