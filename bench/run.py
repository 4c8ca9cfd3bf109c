"""Benchmark for fraccount: three workloads, end-to-end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload tables --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --smoke

A run sets up several times, spread over the run, then repeats rounds of
the workload's operations until `--seconds` have passed. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, which holds every end-to-end metric with `--trace 0` and every
per-layer metric with `--trace 1`. Every time is taken against a reference
block timed beside it (see harness.py). The line before the result gives
the reference block's raw timings and the machine. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from harness import COMPUTE_S, MEMORY_S, Recorder, Round, median
from layers import Probes
from workloads import State, fresh_import, make_inputs, run_round

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("tables", "verify", "montecarlo")
N_SETUPS = 7

END_TO_END = {
    # metric -> (unit, recorder category); None marks the three computed apart
    "setup_s": ("s", None),
    "peak_rss_mb": ("MB", None),
    "stfp_tables_per_s": ("1/s", "stfp_tables"),
    "negbin_tables_per_s": ("1/s", "negbin_tables"),
    "transform_evals_per_s": ("1/s", "transform_evals"),
    "weighted_tables_per_s": ("1/s", "weighted_tables"),
    "verify_s": ("s", None),
    "mc_paths_per_s": ("1/s", "mc_paths"),
    "mc_estimates_per_s": ("1/s", "mc_estimates"),
    "path_reads_per_s": ("1/s", "path_reads"),
}


def import_package():
    """Import fraccount from this checkout's src/ or return None."""
    sys.path.insert(0, str(SRC))
    try:
        import fraccount
    except ImportError as exc:
        print(f"error: cannot import fraccount from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(fraccount.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: fraccount came from {fraccount.__file__}, not {SRC}", file=sys.stderr)
        return None
    return fraccount


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    rec = Recorder(trace)
    inp = make_inputs(workload, seed, smoke)
    n_setups = 1 if smoke else N_SETUPS

    def setup() -> State:
        with rec.timed("setup"):
            state = State(fresh_import(), inp, workload, str(OUT))
        return state

    st = setup()
    probes = Probes(st.fc, str(OUT)) if trace else None
    attempted = failed = rounds = 0
    problems: list[str] = []
    start = time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - start < seconds:
            # the extra set-ups are spread over the run, timed and dropped
            while len(rec.samples["setup"]) < n_setups and \
                    time.perf_counter() - start >= seconds * len(rec.samples["setup"]) / n_setups:
                setup()
            rnd = Round(rec, st.fc.CountingProcessError)
            run_round(st, rnd)
            if probes is not None:
                probes.run_round(rec, rnd)
            attempted += rnd.attempted
            failed += rnd.failed
            problems += rnd.problems
            rounds += 1
        while len(rec.samples["setup"]) < n_setups:
            setup()
    finally:
        if os.path.exists(st.verify_out):
            os.remove(st.verify_out)
        if probes is not None:
            probes.close()

    end_to_end = {}
    for name, (unit, category) in END_TO_END.items():
        if name in ("setup_s", "verify_s"):
            value = rec.seconds(name.removesuffix("_s"))
        elif name == "peak_rss_mb":
            value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            value = rec.rate(category)
        end_to_end[name] = {"value": value, "unit": unit}

    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": rounds,
        "measured_s": round(time.perf_counter() - start, 3),
        "setups": len(rec.samples["setup"]),
        "reference_ms": {"blocks": len(rec.refs), **{
            part: {"nominal": nominal * 1e3, "min": min(v) * 1e3, "median": median(v) * 1e3, "max": max(v) * 1e3}
            for part, nominal, v in (("compute", COMPUTE_S, [r[0] for r in rec.refs]),
                                     ("memory", MEMORY_S, [r[1] for r in rec.refs]))}},
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": sys.modules["numpy"].__version__, "platform": platform.platform()},
    }
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    if trace:
        info["end_to_end_traced"] = {k: v["value"] for k, v in end_to_end.items()}
        info["trace_file"] = write_trace(rec, workload, seed)
        metrics = probes.metrics(rec)
    else:
        metrics = end_to_end
    return {"info": info,
            "result": {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}}


def write_trace(rec, workload: str, seed: int) -> str:
    """Write every span and each name's total self time; return the path."""
    spans = sorted(rec.spans)
    child_ns: dict[int, int] = {}
    for _, parent, _, s, e in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + e - s
    self_ms: dict[str, float] = {}
    for span_id, _, name, s, e in spans:
        self_ms[name] = self_ms.get(name, 0.0) + (e - s - child_ns.get(span_id, 0)) / 1e6
    path = OUT / f"trace-{workload}-{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                   "spans": spans, "self_ms": self_ms}, fh)
    return str(path.relative_to(ROOT))


def smoke(seed: int) -> int:
    """One round of each workload's own operations and of every layer
    probe, with the full run's checks; 10^5-path batches."""
    ok = True
    for workload in WORKLOADS:
        out = run(workload, seed, 0.0, trace=workload == "tables", smoke=True)
        res = out["result"]
        ok &= res["correct"]
        print(json.dumps({"workload": workload, "correct": res["correct"], "attempted": res["attempted"],
                          "failed": res["failed"], "rounds": out["info"]["rounds"]}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once, quickly")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if import_package() is None:
        return 2
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(args.seed)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
