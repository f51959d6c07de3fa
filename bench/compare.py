"""``bench/run.py compare A.json B.json``: did B get worse than A?

For every workload and end-to-end metric present in both result files it
prints both medians, the relative difference, the bound and a verdict:

* ``ok`` — B is not worse than A by more than the bound;
* ``worse`` — it is, and the reps of both sides agree on that;
* ``unresolved`` — the spread between reps of either side is wider than
  the bound and the two sides' reps overlap, so the run cannot tell.

Sim-clock metrics repeat exactly per seed, so their bound is equality:
comparing two files taken at the same seed implements "a change meant only
to speed up the simulator must leave every simulated statistic identical".
Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import sys

#: Relative tolerance standing for "identical" on sim-clock numbers.
EXACT = 1e-9

#: Bounds of the end-to-end metrics that exist on some workloads only and
#: therefore sit in BENCHMARK.json's ``per_layer`` list, which has no bound
#: field.  The metrics every workload reports take theirs from
#: BENCHMARK.json's ``end_to_end`` list.
WORKLOAD_BOUNDS = {
    "put_MBps": 0.25,
    "get_MBps": 0.25,
    "degraded_get_MBps": 0.25,
    "sim_get_p50_ms": EXACT,
    "sim_get_p99_ms": EXACT,
    "sim_cost_usd": EXACT,
    # Any failed operation is a regression.
    "ops_failed_share": 0.0,
}

#: Sim-clock members of BENCHMARK.json's ``end_to_end`` list: the driver
#: compares medians over different seeds and needs a real tolerance there;
#: two files at one seed must agree exactly.
SAME_SEED_EXACT = ("hit_ratio",)

#: A worsening smaller than this many units never counts (a 3 ms set-up
#: that takes 4 ms is not a regression).
ABSOLUTE_FLOOR = {"setup_s": 0.05}


def bounds_and_directions(manifest: dict, same_seed: bool) -> dict[str, tuple[float, str]]:
    """``metric -> (bound, better)`` for every end-to-end metric."""
    better = {
        metric["name"]: metric["better"]
        for metric in manifest["end_to_end"] + manifest["per_layer"]
    }
    table = {
        metric["name"]: (metric["bound"], metric["better"])
        for metric in manifest["end_to_end"]
    }
    for name, bound in WORKLOAD_BOUNDS.items():
        table[name] = (bound, better[name])
    if same_seed:
        for name in SAME_SEED_EXACT:
            table[name] = (EXACT, better[name])
    return table


def _worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    delta = b - a if better == "lower" else a - b
    if a == 0:
        return float("inf") if delta > 0 else 0.0
    return delta / abs(a)


def _spread(entry: dict) -> float:
    values = entry["values"]
    return (max(values) - min(values)) / abs(entry["value"]) if entry["value"] else 0.0


def verdict(name: str, a: dict, b: dict, bound: float, better: str) -> str:
    worsening = _worsening(a["value"], b["value"], better)
    floor = ABSOLUTE_FLOOR.get(name, 0.0)
    is_worse = worsening > bound and abs(b["value"] - a["value"]) > floor
    if max(_spread(a), _spread(b)) <= bound:
        return "worse" if is_worse else "ok"
    # Noisy reps: only a clean separation of the two sides decides.
    sign = 1 if better == "lower" else -1
    a_values = [sign * value for value in a["values"]]
    b_values = [sign * value for value in b["values"]]
    if min(b_values) > max(a_values):
        return "worse" if is_worse else "ok"
    if max(b_values) < min(a_values):
        return "ok"
    return "unresolved"


def compare(a: dict, b: dict, manifest: dict) -> list[dict]:
    table = bounds_and_directions(manifest, same_seed=a.get("seed") == b.get("seed"))
    rows = []
    for workload, a_result in a["workloads"].items():
        b_result = b["workloads"].get(workload)
        if b_result is None:
            continue
        for name, a_entry in a_result["end_to_end"].items():
            b_entry = b_result["end_to_end"].get(name)
            if b_entry is None or name not in table:
                continue
            bound, better = table[name]
            rows.append({
                "workload": workload, "metric": name, "unit": a_entry["unit"],
                "a": a_entry["value"], "b": b_entry["value"],
                "worsening": _worsening(a_entry["value"], b_entry["value"], better),
                "bound": bound,
                "verdict": verdict(name, a_entry, b_entry, bound, better),
            })
    return rows


def main(argv: list[str], manifest: dict) -> int:
    if len(argv) != 2:
        print("usage: bench/run.py compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text(encoding="utf-8")) for path in argv)
    if a.get("seed") != b.get("seed"):
        print(f"note: seeds differ ({a.get('seed')} vs {b.get('seed')}); "
              "sim-clock metrics are expected to differ")
    rows = compare(a, b, manifest)
    print(f"{'workload':<13} {'metric':<20} {'A':>14} {'B':>14} {'worse by':>10} "
          f"{'bound':>8}  verdict")
    for row in rows:
        print(f"{row['workload']:<13} {row['metric']:<20} {row['a']:>14.6g} "
              f"{row['b']:>14.6g} {row['worsening']:>+10.2%} {row['bound']:>8.2g}  "
              f"{row['verdict']} ({row['unit']})")
    counts = {key: sum(row["verdict"] == key for row in rows)
              for key in ("ok", "unresolved", "worse")}
    print(f"{counts['ok']} ok, {counts['unresolved']} unresolved, {counts['worse']} worse")
    return 1 if counts["worse"] else 0
