"""Fingerprint the CLI's output on a fixed list of invocations.

Each invocation runs in a fresh interpreter against the package in the
given src directory, by default this checkout's src/.  One line is printed
per invocation: the argv, the exit code, and the sha256 of stdout and of
stderr.  Run it against two src trees and diff the outputs to show which
invocations changed bytes.  The runtime needs numpy only; pytest does not
collect this file.

Usage: python3 tests/cli_outputs.py [SRC_DIR]   (takes about half a minute)
"""
import hashlib
import os
import subprocess
import sys

DEFAULT_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
RUN = "import sys; from fraccount.cli import main; raise SystemExit(main(sys.argv[1:]))"

SUBCOMMANDS = ("pmf", "pgf", "figure1", "verify", "simulate", "negbin", "weighted")
# one coupled argument set; the simulator needs alpha = 1 to build its pool law
COUPLED = ["--alpha", "0.8", "--nu", "0.6", "--lambda", "0.8", "--rho", "0.3", "--t", "0.4",
           "--kmax", "12", "--p", "0.4"]
COUPLED_SIM = ["--alpha", "1", "--nu", "0.7", "--lambda", "1.5", "--rho", "0.3", "--t", "0.4",
               "--paths", "20000", "--seed", "7"]
OVERFLOW = ["--alpha", "0.8", "--nu", "0.5", "--lambda", "300", "--t", "1"]

INVOCATIONS = (
    [[name] for name in SUBCOMMANDS]
    + [[name, *(COUPLED_SIM if name == "simulate" else COUPLED)] for name in SUBCOMMANDS]
    + [
        ["pmf", "--lambda", "2", "--kmax", "170", "--t", "1"],
        # deep entries whose partial sums are subnormal
        ["pmf", "--lambda", "0.01", "--kmax", "170"],
        ["pmf", *OVERFLOW],
        ["pgf", *OVERFLOW],
        ["simulate", *OVERFLOW, "--paths", "100"],
        # the estimator's count below the horizon, with most paths coupled,
        # and at the horizon, where the count is the pool size
        ["simulate", *COUPLED_SIM[:6], "--rho", "0.8", "--t", "0.6", "--paths", "20000", "--seed", "11"],
        ["simulate", *COUPLED_SIM[:8], "--t", "1", "--paths", "20000", "--seed", "5"],
        # a batch of three simulation blocks
        ["simulate", *COUPLED_SIM[:10], "--paths", "150000", "--seed", "13"],
        # pools of 0-14 epochs: ordered by compare-exchange up to 4, by np.sort past that
        ["simulate", "--alpha", "1", "--nu", "1", "--lambda", "4", "--t", "0.5", "--paths", "20000", "--seed", "3"],
        ["negbin", "--r", "2"],
        ["pmf", "--lambda", "x"],
        ["weighted", "--lambda", "0"],
        ["weighted", "--lambda", "-1"],
        ["weighted", "--lambda", "nan"],
        ["figure1", "--lambda", "nan"],
        # the joint-law grid refused by its gen_mittag_leffler sums: cancellation, then a
        # term that is not finite
        ["figure1", "--lambda", "1.2"],
        ["figure1", "--lambda", "1.5"],
        # the weighted-pool kernel at its edges: F = 1, full coupling, a
        # truncation past the 201-entry base, and a wider pool late in time
        ["weighted", "--t", "1", "--rho", "0.3"],
        ["weighted", "--rho", "1"],
        ["weighted", "--kmax", "250"],
        ["weighted", "--lambda", "4", "--t", "0.9"],
        ["weighted", "--lambda", "inf"],
        ["pmf", "--lambda", "inf"],
        ["pmf", "--T", "inf"],
        # count-series refusals, each at the first refused k (k=0, k=6, k=6),
        # then a table at two times whose weights span eleven 8-column blocks
        ["pmf", "--alpha", "0.8", "--nu", "0.6", "--lambda", "10", "--t", "0.5", "--kmax", "40"],
        ["pmf", "--alpha", "1", "--nu", "0.5", "--lambda", "2", "--t", "0.5", "--kmax", "40"],
        ["negbin", "--p", "0.05", "--alpha", "0.8", "--nu", "0.6", "--rho", "0.4", "--t", "0.5", "--kmax", "40"],
        ["pmf", "--alpha", "0.8", "--nu", "0.6", "--lambda", "1", "--rho", "0.3", "--t", "0.4", "--kmax", "80"],
        # a one-row weighted table, whose binomial matrix is a single row
        ["weighted", "--lambda", "3", "--rho", "0.6", "--t", "0.3", "--kmax", "0"],
        # two negbin branches that both refuse: the held one at k=0, before the running one at k=4
        ["negbin", "--p", "0.005", "--alpha", "0.7", "--nu", "0.6", "--rho", "0.4", "--t", "0.3", "--kmax", "40"],
        # a time past the horizon
        ["weighted", "--t", "1.5"],
        # two negbin branches over 81 rows, and a weighted table of the benchmark's shape (21 rows, 201 pools)
        ["negbin", "--p", "0.3", "--alpha", "0.6", "--nu", "0.5", "--rho", "0.4", "--t", "0.5", "--kmax", "80"],
        ["weighted", "--lambda", "2", "--rho", "0.3", "--t", "0.5", "--kmax", "20"],
        # the edges of the branch-level rule at full coupling: the held branch at the
        # running level (t = T, and q(T) = p exactly), and no branch summed at t = 0
        ["pgf", "--alpha", "0.8", "--nu", "0.6", "--rho", "1", "--t", "1"],
        ["negbin", "--p", "0.4", "--alpha", "0.8", "--nu", "0.6", "--rho", "1", "--t", "1", "--kmax", "12"],
        ["pmf", "--alpha", "0.8", "--nu", "0.6", "--rho", "1", "--t", "0", "--kmax", "5"],
        # the estimator at t = 0, where no epoch has fallen, and at full coupling, where every pool is common
        ["simulate", *COUPLED_SIM[:8], "--t", "0", "--paths", "20000", "--seed", "17"],
        ["simulate", *COUPLED_SIM[:6], "--rho", "1", "--t", "0.4", "--paths", "20000", "--seed", "19"],
    ]
)


def fingerprint(argv: list[str], src: str) -> str:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", RUN, *argv], capture_output=True, env=env)
    out, err = (hashlib.sha256(b).hexdigest() for b in (done.stdout, done.stderr))
    return f"{' '.join(argv)}\texit={done.returncode}\tstdout={out}\tstderr={err}"


if __name__ == "__main__":
    src = os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_SRC
    for argv in INVOCATIONS:
        print(fingerprint(argv, src), flush=True)
