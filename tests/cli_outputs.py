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
        ["negbin", "--r", "2"],
        ["pmf", "--lambda", "x"],
        ["weighted", "--lambda", "0"],
        ["weighted", "--lambda", "-1"],
        ["weighted", "--lambda", "nan"],
        ["figure1", "--lambda", "nan"],
        # the weighted-pool kernel at its edges: F = 1, full coupling, a
        # truncation past the 201-entry base, and a wider pool late in time
        ["weighted", "--t", "1", "--rho", "0.3"],
        ["weighted", "--rho", "1"],
        ["weighted", "--kmax", "250"],
        ["weighted", "--lambda", "4", "--t", "0.9"],
        ["weighted", "--lambda", "inf"],
        ["pmf", "--lambda", "inf"],
        ["pmf", "--T", "inf"],
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
