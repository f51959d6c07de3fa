"""The repository's benchmark: one command, four workloads.

    python3 bench/run.py [--seed 2020] [--workload NAME] [--reps N] [--out FILE]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py compare A.json B.json

This process measures nothing itself.  It starts one child interpreter per
rep (``workloads.py``; ``micros.py`` for the per-layer loops), one at a
time, takes the median over the reps of a workload, checks that the reps
agree with each other, prints every metric by name with its unit and
clock, and writes one JSON result.  Without ``--trace`` it does
everything: untraced reps (end-to-end metrics), then a traced pass
(per-layer metrics).  With ``--trace`` it is the form the benchmark driver
calls: one workload, reps for ``--seconds`` seconds, and a last line of
standard output that holds BENCHMARK.json's ``end_to_end`` metrics
(``--trace 0``) or its ``per_layer`` metrics (``--trace 1``).

Every number is either on the **host** clock (wall time of a child
process: noisy) or the **sim** clock (virtual time: repeats exactly per
seed).  The simulation model itself is unvalidated here: the repository
holds the paper's figures only in docstrings and at another scale, so no
accuracy figure is given.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH / "results"

#: Reps per workload when neither ``--reps`` nor ``--seconds`` is given.
DEFAULT_REPS = {"fleet_hits": 3, "chaos_rw": 3, "figure_suite": 1, "bytes_rw": 5}
#: Workloads with a traced rep; figure_suite's per-layer numbers are phase
#: spans of its measured run.
TRACED = ("fleet_hits", "chaos_rw", "bytes_rw")
#: The seed the committed expected fingerprints were taken at.
PINNED_SEED = 2020
CHILD_TIMEOUT_S = 170
#: Metrics whose clock is the simulator's; everything else a child times
#: is on the host clock, and counts have none.
SIM_CLOCK = ("hit_ratio", "sim_get_p50_ms", "sim_get_p99_ms", "sim_cost_usd")
HOST_END_TO_END = ("setup_s", "wall_s", "peak_rss_mb",
                   "put_MBps", "get_MBps", "degraded_get_MBps")


# ---------------------------------------------------------------------- children
def run_child(script: str, *arguments: str) -> dict:
    """Run one child to completion and return the JSON on its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One hash seed for every child: dict collision patterns, and so host
    # time, do not change from process to process.
    env["PYTHONHASHSEED"] = "0"
    process = subprocess.Popen(
        [sys.executable, str(BENCH / script), *arguments],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The grid's worker pool lives in the child's process group.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"{script} {' '.join(arguments)}: no result after "
                         f"{CHILD_TIMEOUT_S} s")
    if process.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"{script} {' '.join(arguments)}: exit code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_rep(workload: str, seed: int, quick: bool, *extra: str) -> dict:
    arguments = [workload, "--seed", str(seed), *extra]
    if quick:
        arguments.append("--quick")
    return run_child("workloads.py", *arguments)


# ---------------------------------------------------------------------- one workload
def measure(workload: str, seed: int, quick: bool, reps: int | None,
            seconds: float | None) -> list[dict]:
    """The untraced reps: ``reps`` of them, or as many as start within
    ``seconds`` (a rep is never cut short, so at least one runs)."""
    if reps is None and seconds is None:
        reps = DEFAULT_REPS[workload]
    started = time.perf_counter()
    results = [run_rep(workload, seed, quick)]
    while (len(results) < reps if reps is not None
           else time.perf_counter() - started < seconds):
        results.append(run_rep(workload, seed, quick))
    return results


def end_to_end_of(rep: dict) -> dict[str, float]:
    values = {name: rep[name] for name in HOST_END_TO_END if name in rep}
    values.update({name: rep["sim"][name] for name in SIM_CLOCK if name in rep["sim"]})
    values["ops_failed_share"] = rep["failed"] / rep["attempted"]
    return values


def layers_of(workload: str, rep: dict) -> dict[str, float]:
    values = dict(rep["layer"])
    if "sim_get_samples" in rep["sim"]:
        values["sim_get_samples"] = rep["sim"]["sim_get_samples"]
    values["workload.reduce_s"] = rep["reduce_s"]
    if "sim.events" in values:
        values["sim.events_per_s"] = values["sim.events"] / rep["wall_s"]
    if workload in ("fleet_hits", "chaos_rw"):
        values["workload.requests_per_s"] = rep["attempted"] / rep["wall_s"]
    return values


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def summarise(workload: str, reps: list[dict], units: dict[str, str]) -> dict:
    per_rep = [end_to_end_of(rep) for rep in reps]
    end_to_end = {}
    for name, value in medians(per_rep).items():
        values = [row[name] for row in per_rep]
        clock = "sim" if name in SIM_CLOCK else "host" if name in HOST_END_TO_END else "-"
        end_to_end[name] = {
            "value": value, "unit": units[name], "clock": clock,
            "n": len(values), "min": min(values), "max": max(values), "values": values,
        }
    fingerprints = [rep["fingerprint"] for rep in reps]
    return {
        "reps": len(reps),
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "fingerprint": fingerprints[0],
        # The simulator is deterministic: reps of one seed must agree.
        "fingerprints_identical": len(set(fingerprints)) == 1,
        "end_to_end": end_to_end,
        "per_layer": medians([layers_of(workload, rep) for rep in reps]),
    }


def trace_pass(workload: str, seed: int, quick: bool, summary: dict) -> None:
    """One traced rep (plus fleet_hits' two extra reps); adds to
    ``summary['per_layer']`` and checks the observers changed nothing."""
    layers = summary["per_layer"]
    wall_s = summary["end_to_end"]["wall_s"]["value"]
    same = [summary["fingerprints_identical"]]
    if workload in TRACED:
        traced = run_rep(workload, seed, quick, "--traced")
        for name, value in traced["layer"].items():
            layers.setdefault(name, value)
        layers["bench.trace_overhead_ratio"] = traced["wall_s"] / wall_s
        same.append(traced["fingerprint"] == summary["fingerprint"])
    if workload == "fleet_hits":
        quarter = run_rep(workload, seed, quick, "--quarter")
        layers["workload.rps_256"] = quarter["attempted"] / quarter["wall_s"]
        layers["workload.scale_ratio"] = (
            layers["workload.requests_per_s"] / layers["workload.rps_256"]
        )
        observed = run_rep(workload, seed, quick, "--sim-tracer")
        layers["obs.tracer_overhead_ratio"] = observed["wall_s"] / wall_s
        layers["obs.spans"] = observed["layer"]["obs.spans"]
        same.append(observed["fingerprint"] == summary["fingerprint"])
    summary["fingerprints_identical"] = all(same)


def fingerprint_drift(workload: str, seed: int, quick: bool, fingerprint: str) -> int:
    """1 when the committed expectation for the pinned seed differs: a
    behaviour change, reported and not failed so that an intended one in a
    later PR is visible without being locked out."""
    if quick or seed != PINNED_SEED:
        return 0
    expected = json.loads((BENCH / "expected_fingerprints.json").read_text(encoding="utf-8"))
    return int(expected["fingerprints"].get(workload, fingerprint) != fingerprint)


# ---------------------------------------------------------------------- output
def print_summary(workload: str, summary: dict, units: dict[str, str]) -> None:
    print(f"== {workload}: {summary['reps']} reps, {summary['attempted']} operations, "
          f"{summary['failed']} failed, reps identical: {summary['fingerprints_identical']}")
    for name, entry in summary["end_to_end"].items():
        print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']:<7} "
              f"{entry['clock']:<4} n={entry['n']} "
              f"min={entry['min']:.6g} max={entry['max']:.6g}")
    for name, value in sorted(summary["per_layer"].items()):
        print(f"  {name:<34} {value:>16.6g} {units[name]}")


def contract_line(manifest: dict, section: str, summary: dict) -> str:
    """The result line the benchmark driver reads.  A metric the workload
    does not have (a codec time on a workload that moves no bytes) is 0."""
    measured = {name: entry["value"] for name, entry in summary["end_to_end"].items()}
    measured.update(summary["per_layer"])
    return json.dumps({
        "correct": summary["fingerprints_identical"] and summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            metric["name"]: {"value": measured.get(metric["name"], 0.0),
                             "unit": metric["unit"]}
            for metric in manifest[section]
        },
    })


def history_line(result: dict) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": result["seed"],
        "scale": result["scale"],
        "end_to_end": {
            workload: {name: entry["value"] for name, entry in summary["end_to_end"].items()}
            for workload, summary in result["workloads"].items()
        },
    }


# ---------------------------------------------------------------------- entry
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:], manifest)
    if not (SRC / "repro").is_dir():
        print(f"bench/run.py: {SRC / 'repro'} is missing; the benchmark measures "
              "the repro package and cannot run without it", file=sys.stderr)
        return 2
    names = [workload["name"] for workload in manifest["workloads"]]
    units = {metric["name"]: metric["unit"]
             for metric in manifest["end_to_end"] + manifest["per_layer"]}

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--reps", type=int, default=None,
                        help="untraced reps per workload (default: 3/3/1/5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="instead of --reps: start reps for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 0 ends with the end_to_end metrics, "
                        "1 with the per_layer metrics; needs --workload")
    parser.add_argument("--out", default=None, help="result file "
                        "(default: bench/results/latest.json, unless --trace)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for bench/tests only; never a baseline")
    parser.add_argument("--record", action="store_true",
                        help="append the end-to-end metrics to bench/history.jsonl")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")

    selected = [args.workload] if args.workload else names
    result = {
        "schema": "bench.result/1", "seed": args.seed,
        "scale": "quick" if args.quick else "full",
        "model_accuracy": "unvalidated",
        "workloads": {},
    }
    micros = None
    if args.trace != 0:
        micros = run_child("micros.py", "--seed", str(args.seed),
                           *(["--quick"] if args.quick else []))
    for workload in selected:
        reps = measure(workload, args.seed, args.quick, args.reps, args.seconds)
        summary = summarise(workload, reps, units)
        if args.trace != 0:
            trace_pass(workload, args.seed, args.quick, summary)
            summary["per_layer"].update(micros)
            summary["per_layer"]["bench.fingerprint_drift"] = fingerprint_drift(
                workload, args.seed, args.quick, summary["fingerprint"]
            )
        result["workloads"][workload] = summary
        print_summary(workload, summary, units)

    out = args.out or (None if args.trace is not None else RESULTS_DIR / "latest.json")
    if out is not None:
        pathlib.Path(out).parent.mkdir(parents=True, exist_ok=True)
        pathlib.Path(out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"(wrote {out})")
    if args.record:
        with open(BENCH / "history.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(history_line(result)) + "\n")
    if args.trace is not None:
        section = "per_layer" if args.trace else "end_to_end"
        print(contract_line(manifest, section, result["workloads"][args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
