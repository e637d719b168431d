#!/usr/bin/env python
"""Bench-trajectory guard: fail CI on throughput regressions.

Compares freshly generated benchmark payloads against the committed
baselines under ``benchmarks/results/``:

* ``BENCH_fleet.json`` — per-size ``server_windows_per_s`` from the
  fleet scaling benchmark.  A size present in both payloads may not
  regress by more than ``--max-regression`` (default 25%); neither may
  ``surrogate_fit_cpu_s``, the CPU seconds of one cold tail-surrogate
  fit in every process (the queueing DES), where lower is better and a
  baseline that predates the field skips the gate.  Those seconds do
  not depend on how many workers shared the fit; its wall time
  ``surrogate_fit_s`` does, and is printed beside the worker counts but
  not gated.  The
  10k-vs-100k falloff ratio (how much throughput the working-set jump
  costs — ROADMAP's memory-bandwidth trail) is recorded for both
  payloads and printed; it is informational, since the per-size gates
  already bound each end of the ratio.  The placement and scenario
  overhead probes fail when the fresh payload's lower confidence bound
  on the median paired ratio (:func:`median_lower_bound`) exceeds their
  budget.
* ``BENCH_core.json`` — per-scenario ``speedup`` of ``FastCore`` over
  the ``ReferenceCore`` oracle from the core benchmark, same rule (both
  cores are timed in the same run, so the ratio does not follow the
  host's speed; a baseline without ``ref_cps`` timed another reference
  and has nothing to compare); plus the
  surrogate-tier sweep entry, gated on an absolute floor
  (``min_warm_speedup``, committed inside the payload): the warm
  fit-cached evaluation must stay at least that many times faster than
  the quick-exact sweep.  Per-scenario ``fast_cps`` and
  ``surrogate.exact_s`` (the wall time of the quick-exact sweep through
  ``solo_uipc_many``/``pair_uipc_many``: trace generation, checkpoint
  warming and ``FastCore``) are printed for information, absolute and
  scaled by the reference kernel timed next to them (``ref_kernel_s``),
  but not gated: both follow the host's speed.

Usage (the CI flow: stash the committed results, rerun the benchmark —
which rewrites the payloads in place — then compare)::

    cp benchmarks/results/BENCH_fleet.json /tmp/baseline_fleet.json
    REPRO_BENCH_FLEET_SIZES=1000,10000,100000 \
        pytest benchmarks/test_fleet_scaling.py -x -q -s -o addopts=
    python benchmarks/check_bench_trajectory.py \
        --baseline-fleet /tmp/baseline_fleet.json

and likewise ``benchmarks/test_core_scaling.py`` with
``--baseline-core`` for ``BENCH_core.json``.

Absolute wall times are machine-dependent; the guard therefore compares
each fresh number against the committed baseline *ratio-wise* and is
meant to run on runners comparable to the ones that produced the
baseline.  A fresh payload equal to its baseline fails: the benchmark did
not rewrite it.  Exits 1 on any regression beyond the margin, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def median_lower_bound(ratios, confidence: float = 0.98) -> float:
    """Distribution-free lower confidence bound on the median of ``ratios``.

    The k-th smallest of n independent samples lies above their median
    only when at most k - 1 samples fall below it, which has probability
    P[Bin(n, 1/2) <= k - 1].  The bound is the largest such order
    statistic whose probability stays within ``1 - confidence``: for the
    fleet probes' nine paired ratios it is the 2nd smallest, at 98 %
    (P[Bin(9, 1/2) <= 1] = 10/512).  An overhead probe gating it fails
    only when the data show the median overhead is above the budget.
    """
    ordered = sorted(float(r) for r in ratios)
    n = len(ordered)
    k = 0
    while k < n and sum(
        math.comb(n, i) for i in range(k + 1)
    ) / 2 ** n <= 1.0 - confidence:
        k += 1
    if k == 0:
        raise ValueError(
            f"{n} samples cannot bound a median at {confidence:.0%} confidence"
        )
    return ordered[k - 1]


def load(path: Path) -> dict | None:
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)


def check_ratio(label: str, baseline: float, fresh: float,
                max_regression: float, failures: list[str], *,
                lower_is_better: bool = False, fmt: str = ",.0f") -> None:
    """Flag ``label`` when ``fresh`` moved more than the margin the wrong way.

    Higher is better by default (fresh may fall at most the margin
    below the baseline); ``lower_is_better`` flips it (fresh may rise at
    most the margin above).
    """
    if baseline <= 0:
        return
    change = fresh / baseline - 1.0
    regression = change if lower_is_better else -change
    marker = ""
    if regression > max_regression:
        sign = "+" if lower_is_better else "-"
        failures.append(
            f"{label}: {baseline:{fmt}} -> {fresh:{fmt}} "
            f"({change:+.1%}, allowed {sign}{max_regression:.0%})"
        )
        marker = "  << REGRESSION"
    print(f"  {label:32s} {baseline:>12{fmt}} -> {fresh:>12{fmt}} "
          f"({change:+7.1%}){marker}")


def check_fleet(baseline: dict, fresh: dict, max_regression: float,
                failures: list[str]) -> None:
    base_sws = baseline.get("server_windows_per_s", {})
    fresh_sws = fresh.get("server_windows_per_s", {})
    shared = sorted(set(base_sws) & set(fresh_sws), key=int)
    if not shared:
        failures.append("fleet: no fleet sizes shared with the baseline")
        return
    print(f"fleet server_windows_per_s ({len(shared)} shared sizes):")
    for size in shared:
        check_ratio(f"fleet[{size}]", float(base_sws[size]),
                    float(fresh_sws[size]), max_regression, failures)

    # Cold tail-surrogate fit: its CPU seconds in every process, the
    # queueing DES whatever the worker count.
    if "surrogate_fit_cpu_s" in baseline and "surrogate_fit_cpu_s" in fresh:
        check_ratio("surrogate_fit_cpu_s",
                    float(baseline["surrogate_fit_cpu_s"]),
                    float(fresh["surrogate_fit_cpu_s"]), max_regression,
                    failures, lower_is_better=True, fmt=".2f")
    # Its wall time follows the worker count: information only.
    for name, payload in (("baseline", baseline), ("fresh", fresh)):
        if "surrogate_fit_cpu_s" in payload:
            print(f"  surrogate fit wall ({name}): "
                  f"{float(payload['surrogate_fit_s']):.2f} s on "
                  f"{payload['surrogate_fit_workers']} workers")

    # The 10k -> 100k falloff: the jump past cache residency.  >1 means
    # throughput fell with the larger working set.
    for name, payload in (("baseline", base_sws), ("fresh", fresh_sws)):
        if "10000" in payload and "100000" in payload:
            falloff = float(payload["10000"]) / float(payload["100000"])
            print(f"  10k-vs-100k falloff ({name}): {falloff:.2f}x")

    # Heterogeneous-placement and scenario stepping overheads.  The
    # benchmark itself asserts the budget on the lower confidence bound
    # of the median paired ratio (``median_lower_bound``); the trajectory
    # guard fails only when a fresh payload's bound breaches it.  Payloads
    # that predate the bound are judged on their median, and older
    # baselines may predate the fields entirely.
    for kind in ("placement", "scenario"):
        budget = fresh.get(f"{kind}_overhead_budget")
        for name, payload in (("baseline", baseline), ("fresh", fresh)):
            overhead = payload.get(f"{kind}_overhead")
            if overhead is None:
                continue
            bound = payload.get(f"{kind}_overhead_bound", overhead)
            servers = payload.get(f"{kind}_overhead_servers", "?")
            print(f"  {kind} overhead ({name}, {servers} servers): "
                  f"median {float(overhead):+.1%}, bound {float(bound):+.1%}")
            if name == "fresh" and budget is not None \
                    and float(bound) > float(budget):
                failures.append(
                    f"fleet: {kind} overhead bound {float(bound):+.1%} "
                    f"exceeds budget {float(budget):.0%}"
                )


def report_timing(label: str, baseline: dict, fresh: dict, field: str, *,
                  rate: bool) -> None:
    """Print the change of ``field``: absolute and, where both entries
    carry ``ref_kernel_s``, in units of the reference kernel timed next
    to it (a rate times the kernel, a duration over it).

    Information only.  On a shared host the kernel-scaled figures of
    unchanged code still spread by more than the margin from run to run
    (DESIGN.md §11), so neither form is gated.
    """
    base, new = float(baseline[field]), float(fresh[field])
    if base <= 0:
        return
    fmt = ",.0f" if rate else ".2f"
    line = (f"  {label:32s} {base:>12{fmt}} -> {new:>12{fmt}} "
            f"({new / base - 1.0:+7.1%})")
    base_kernel = float(baseline.get("ref_kernel_s") or 0.0)
    new_kernel = float(fresh.get("ref_kernel_s") or 0.0)
    if base_kernel > 0 and new_kernel > 0:
        scale = new_kernel / base_kernel if rate else base_kernel / new_kernel
        line += f", kernel-scaled {new / base * scale - 1.0:+7.1%}"
    print(line)


def check_core(baseline: dict, fresh: dict, max_regression: float,
               failures: list[str]) -> None:
    base_scenarios = baseline.get("scenarios", {})
    fresh_scenarios = fresh.get("scenarios", {})
    # Only speedups over the same oracle compare: both payloads must have
    # timed ReferenceCore (``ref_cps``).
    shared = sorted(
        name for name in set(base_scenarios) & set(fresh_scenarios)
        if "ref_cps" in base_scenarios[name] and "ref_cps" in fresh_scenarios[name]
    )
    if not shared:
        failures.append("core: no ReferenceCore-timed scenarios shared "
                        "with the baseline")
        return
    # FastCore's throughput as its speedup over ReferenceCore timed in the
    # same run: a ratio that does not follow the host's speed.
    print(f"core fast/ref speedup ({len(shared)} shared scenarios):")
    for name in shared:
        check_ratio(f"core[{name}]",
                    float(base_scenarios[name]["speedup"]),
                    float(fresh_scenarios[name]["speedup"]),
                    max_regression, failures, fmt=".2f")

    # Wall-clock figures follow the host: printed, not gated.
    print("core wall-clock figures (information only):")
    for name in shared:
        report_timing(f"core[{name}].fast_cps", base_scenarios[name],
                      fresh_scenarios[name], "fast_cps", rate=True)

    # The quick-exact sweep: sample set-up plus FastCore.
    base_sweep = baseline.get("surrogate") or {}
    fresh_sweep = fresh.get("surrogate") or {}
    if "exact_s" in base_sweep and "exact_s" in fresh_sweep:
        report_timing("surrogate.exact_s", base_sweep, fresh_sweep, "exact_s",
                      rate=False)

    # Surrogate-tier sweep: the warm (fit-cached) evaluation must keep its
    # wall-clock advantage over the quick-exact DES sweep.  The floor is
    # absolute (not baseline-relative) and travels inside the payload, so
    # older baselines without the section are simply skipped.
    for name, payload in (("baseline", baseline), ("fresh", fresh)):
        entry = payload.get("surrogate")
        if entry is None:
            continue
        speedup = float(entry["warm_speedup"])
        floor = float(entry.get("min_warm_speedup", 0.0))
        print(f"  surrogate warm speedup ({name}): {speedup:.1f}x "
              f"(exact {entry['exact_s']}s, warm {entry['warm_s']}s, "
              f"floor {floor:.0f}x)")
        if name == "fresh" and speedup < floor:
            failures.append(
                f"core: surrogate warm speedup {speedup:.1f}x below the "
                f"{floor:.0f}x floor"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--baseline-fleet", type=Path, default=None,
        help="committed BENCH_fleet.json to compare against",
    )
    parser.add_argument(
        "--baseline-core", type=Path, default=None,
        help="committed BENCH_core.json to compare against",
    )
    parser.add_argument(
        "--fresh-fleet", type=Path,
        default=RESULTS_DIR / "BENCH_fleet.json",
        help="freshly generated BENCH_fleet.json",
    )
    parser.add_argument(
        "--fresh-core", type=Path,
        default=RESULTS_DIR / "BENCH_core.json",
        help="freshly generated BENCH_core.json",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional throughput drop (default 0.25)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    compared = 0
    for label, baseline_path, fresh_path, checker in (
        ("fleet", args.baseline_fleet, args.fresh_fleet, check_fleet),
        ("core", args.baseline_core, args.fresh_core, check_core),
    ):
        if baseline_path is None:
            continue
        baseline = load(baseline_path)
        fresh = load(fresh_path)
        if baseline is None:
            failures.append(f"{label}: baseline {baseline_path} missing")
            continue
        if fresh is None:
            failures.append(f"{label}: fresh payload {fresh_path} missing "
                            "(did the benchmark run?)")
            continue
        if fresh == baseline:
            # A benchmark that fails before it writes leaves the committed
            # record in place, which would then pass against itself.
            failures.append(f"{label}: fresh payload {fresh_path} equals "
                            "the baseline (did the benchmark write it?)")
            continue
        checker(baseline, fresh, args.max_regression, failures)
        compared += 1

    if compared == 0 and not failures:
        print("nothing to compare: pass --baseline-fleet and/or "
              "--baseline-core", file=sys.stderr)
        return 2
    if failures:
        print("\nbench trajectory FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbench trajectory OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
