#!/usr/bin/env python3
"""Bench regression gate for the perf trajectory.

Compares a fresh `table3_performance --json` run against the committed
baseline (`BENCH_table3.json`) within a relative tolerance, and fails the
build when any compared metric drifts out of band — e.g. a 2x slowdown of
the replay engine.

What is compared, and why:

- per-row (matched by workload name) `vcpl`, `cores_used`, and
  `manticore_khz`: deterministic compiler/model outputs, so any drift at
  all is a real change (the tolerance merely keeps float rendering
  honest);
- `geomean.uop_vs_interp`: the measured speedup of the micro-op replay
  engine over the position-by-position interpreter, which the committed
  baseline tracks per PR. Geomeans over the nine workloads are stable to
  a few percent between runs on one host; the per-row measured kHz
  columns are NOT compared because single-workload wall-clock ratios can
  legitimately wobble past 25% on shared CI runners.

With `--fleet-fresh`/`--fleet-baseline`, the gate additionally compares
the fleet_throughput gang width sweep (`gang_widths`: 2, 4, 5, 8, 9 and
16 lanes; 5 and 9 run padded kernels). Every width in the baseline must
appear in the fresh run with the same `workers` and `vcycles` — a
geometry drift would make the ratio incomparable, not just noisy — and
each row's `gang_reg_words` (the words of lane-row register state one
gang holds) is compared exactly: the lane rows are a deterministic
function of the compiled program and the width. The 8-lane
`geomean_gang_vs_fleet` (the lane-batched gang engine's scenarios/sec
over the one-machine-per-scenario fleet at equal worker count) must stay
within the tolerance; every other width's geomean is a ONE-SIDED floor
at `baseline * (1 - tolerance)`. Per-workload gang ratios are in the
JSON for inspection but, like the per-row kHz columns, are not gated.

With `--explore-fresh`/`--explore-baseline`, the gate additionally
compares the explore_throughput run: the tree geometry (`lanes`,
`rounds`, `vcycles`, `frontier`, `seed`) exactly, the per-workload
`scenarios` and `covered_bits` exactly (exploration is deterministic for
a fixed seed — stimulus is drawn serially in submission order — so any
drift at all is a behavior change, not noise), and
`geomean_scenarios_per_sec` within the tolerance.

With `--compile-fresh`/`--compile-baseline`, the gate additionally
compares the table8_compile_times run: the sweep geometry (`threads`,
`heavy_passes`) exactly; per row, the grid/nets/split sizes and every
per-pass `ir_size` exactly (these are deterministic compiler outputs —
a drift is a behavior change, and a thread-count-dependent IR size
would break the bit-identity contract); and the heavy-pass speedup
geomeans (`geomean.heavy_speedup_t2/t4`, `geomean.soc_heavy_speedup_t4`)
as ONE-SIDED floors — a fresh run only fails when it falls below
`baseline * (1 - tolerance)`, never for being faster. Every thread
count runs the same pass algorithms, so these ratios measure thread
scaling alone (on a 2-CPU host they sit below 1: the scoped workers
cost more than they save). The heavy passes' one-thread wall time on
the 16x16 SoC (the sum of the `soc` row's `ms_t1` over `heavy_passes`)
additionally has an absolute CEILING of 223 ms, regardless of baseline
drift: the committed measurement of the retired serial reference
pipeline (401.47 ms) divided by the 1.8x the heavy-pass algorithms
must keep winning over it.
The one-thread `custom-functions` time summed over the fresh rows has
an absolute CEILING of 70 ms: the hash-map, per-lane-recursive
synthesis it replaced took 168.8 ms, the indexed one-pass synthesis
about 20 ms.

With `--serve-fresh`/`--serve-baseline`, the gate additionally compares
a serve_soak run: the load geometry (`conns`, `vcycles`, `workers`,
`lanes`) exactly — job count may differ, since CI smokes at 10^3 jobs
against the committed 10^5-job baseline, and throughput/hit-rate/RSS
bounds all hold at either scale; `cache_misses` exactly (the compile
count equals the design count by construction — one extra miss means
the cache or its single-flight dedup broke, not noise);
`cache_hit_rate` against the absolute 0.90 acceptance floor;
`geomean_jobs_per_sec` as a one-sided floor vs the baseline; and
`rss_growth` against the absolute 1.10 flatness ceiling (final RSS
within 10% of the post-warm-up plateau — a leaky server fails here).

With `--recovery-fresh`/`--recovery-baseline`, the gate additionally
compares a serve_recovery crash-recovery run: the scenario geometry
(`sessions`, `vcycles_before`, `vcycles_after`, `workers`) exactly;
`recovered` and `bit_identical` exactly equal to `sessions` (recovery
and determinism are all-or-nothing — a single lost or diverged session
is a durability bug, not noise); and `recovery_ms` as a one-sided
CEILING — a fresh run fails only when restart-to-recovered exceeds
`max(baseline * (1 + tolerance), 1000 ms)`. The absolute 1 s grace
exists because the committed baseline is tens of milliseconds, where
the relative band is narrower than scheduler noise on shared runners;
what the gate protects against is recovery becoming accidentally
quadratic or synchronous-per-session, not a 5 ms wobble.

Intentional perf changes (either direction, beyond tolerance) are landed
by regenerating the committed baseline(s) in the same PR.

Usage: bench_gate.py FRESH.json BASELINE.json [--tolerance 0.25]
                     [--fleet-fresh FLEET.json --fleet-baseline BENCH_fleet.json]
                     [--explore-fresh EXPLORE.json --explore-baseline BENCH_explore.json]
                     [--compile-fresh COMPILE.json --compile-baseline BENCH_compile.json]
                     [--serve-fresh SERVE.json --serve-baseline BENCH_serve.json]
                     [--recovery-fresh RECOVERY.json --recovery-baseline BENCH_recovery.json]
"""

import argparse
import json
import sys

PER_ROW = ["vcpl", "cores_used", "manticore_khz"]
GEOMEAN = ["uop_vs_interp"]


def check(label, fresh, base, tolerance, failures):
    if base is None or fresh is None:
        failures.append(f"{label}: missing value (fresh={fresh}, baseline={base})")
        return
    if base == 0:
        ok = fresh == 0
        drift = float("inf") if not ok else 0.0
    else:
        drift = abs(fresh - base) / abs(base)
        ok = drift <= tolerance
    status = "ok" if ok else "FAIL"
    print(f"  {status:>4}  {label:<32} baseline {base:>12.3f}  fresh {fresh:>12.3f}  drift {drift * 100:6.1f}%")
    if not ok:
        failures.append(f"{label}: {base:.3f} -> {fresh:.3f} ({drift * 100:.1f}% > {tolerance * 100:.0f}%)")


# The gang width whose geomean is gated within the tolerance both ways;
# every other width of the sweep has a one-sided floor.
TWO_SIDED_LANES = 8


def check_fleet(fresh_path, base_path, tolerance, failures):
    """Every committed gang width: geometry and per-row register words
    exactly (the lane rows are a deterministic function of the compiled
    program and the width), the 8-lane geomean two-sided and every other
    width's geomean as a one-sided floor."""
    with open(fresh_path) as f:
        fresh_doc = json.load(f)
    with open(base_path) as f:
        base_doc = json.load(f)
    base_widths = base_doc.get("gang_widths", [])
    if not any(w.get("lanes") == TWO_SIDED_LANES for w in base_widths):
        failures.append(f"{base_path}: no {TWO_SIDED_LANES}-lane entry in the fleet baseline's gang_widths")
        return
    fresh_widths = {w.get("lanes"): w for w in fresh_doc.get("gang_widths", [])}
    print("fleet gang widths:")
    for bw in base_widths:
        lanes = bw.get("lanes")
        label = f"gang[{lanes}]"
        fw = fresh_widths.get(lanes)
        if fw is None:
            failures.append(f"{label}: width missing from the fresh fleet run")
            continue
        for field in ("workers", "vcycles"):
            if fw.get(field) != bw.get(field):
                failures.append(
                    f"{label}.{field}: geometry changed ({bw.get(field)} -> {fw.get(field)}); "
                    "ratios are not comparable — regenerate BENCH_fleet.json"
                )
        fresh_rows = {r["name"]: r for r in fw.get("rows", [])}
        for brow in bw.get("rows", []):
            name = brow["name"]
            want = brow.get("gang_reg_words")
            got = fresh_rows.get(name, {}).get("gang_reg_words")
            if got != want:
                failures.append(f"{label}.{name}.gang_reg_words: {want} -> {got} (deterministic)")
            else:
                print(f"    ok  {f'{label}.{name}.gang_reg_words':<32} {want}")
        gate = check if lanes == TWO_SIDED_LANES else check_floor
        gate(
            f"{label}.geomean_gang_vs_fleet",
            fw.get("geomean_gang_vs_fleet"),
            bw.get("geomean_gang_vs_fleet"),
            tolerance,
            failures,
        )


def check_explore(fresh_path, base_path, tolerance, failures):
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(base_path) as f:
        base = json.load(f)
    print("explore section:")
    for field in ("lanes", "rounds", "vcycles", "frontier", "seed"):
        if fresh.get(field) != base.get(field):
            failures.append(
                f"explore.{field}: tree geometry changed ({base.get(field)} -> {fresh.get(field)}); "
                "rates are not comparable — regenerate BENCH_explore.json"
            )
    base_rows = {r["name"]: r for r in base.get("rows", [])}
    fresh_rows = {r["name"]: r for r in fresh.get("rows", [])}
    missing = sorted(set(base_rows) - set(fresh_rows))
    if missing:
        failures.append(f"workloads missing from fresh explore run: {', '.join(missing)}")
    for name, brow in sorted(base_rows.items()):
        frow = fresh_rows.get(name)
        if frow is None:
            continue
        # Deterministic tree outputs: compared exactly (tolerance 0).
        for field in ("scenarios", "covered_bits"):
            if frow.get(field) != brow.get(field):
                failures.append(
                    f"explore.{name}.{field}: {brow.get(field)} -> {frow.get(field)} "
                    "(exploration is deterministic — this is a behavior change, not noise)"
                )
            else:
                print(f"    ok  explore.{name}.{field:<24} {brow.get(field)}")
    check(
        "explore.geomean_scenarios_per_sec",
        fresh.get("geomean_scenarios_per_sec"),
        base.get("geomean_scenarios_per_sec"),
        tolerance,
        failures,
    )


SOC_HEAVY_T1_MS_CEILING = 223.0
CUSTOM_FUNCTIONS_T1_MS_CEILING = 70.0


def check_floor(label, fresh, base, tolerance, failures):
    """One-sided gate for speedup ratios: fail only below the floor."""
    if fresh is None or base is None:
        failures.append(f"{label}: missing value (fresh={fresh}, baseline={base})")
        return
    floor = base * (1 - tolerance)
    ok = fresh >= floor
    status = "ok" if ok else "FAIL"
    print(f"  {status:>4}  {label:<32} baseline {base:>12.3f}  fresh {fresh:>12.3f}  floor {floor:8.3f}")
    if not ok:
        failures.append(f"{label}: {fresh:.3f} below floor {floor:.3f} (baseline {base:.3f})")


def check_compile(fresh_path, base_path, tolerance, failures):
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(base_path) as f:
        base = json.load(f)
    print("compile section:")
    for field in ("threads", "heavy_passes"):
        if fresh.get(field) != base.get(field):
            failures.append(
                f"compile.{field}: sweep geometry changed ({base.get(field)} -> {fresh.get(field)}); "
                "speedups are not comparable — regenerate BENCH_compile.json"
            )
    base_rows = {r["name"]: r for r in base.get("rows", [])}
    fresh_rows = {r["name"]: r for r in fresh.get("rows", [])}
    missing = sorted(set(base_rows) - set(fresh_rows))
    if missing:
        failures.append(f"workloads missing from fresh compile run: {', '.join(missing)}")
    for name, brow in sorted(base_rows.items()):
        frow = fresh_rows.get(name)
        if frow is None:
            continue
        # Deterministic compiler outputs: compared exactly (tolerance 0).
        for field in ("grid", "nets", "split_v", "split_e"):
            if frow.get(field) != brow.get(field):
                failures.append(
                    f"compile.{name}.{field}: {brow.get(field)} -> {frow.get(field)} "
                    "(deterministic compiler output — this is a behavior change, not noise)"
                )
        bsizes = {p["name"]: p["ir_size"] for p in brow.get("passes", [])}
        fsizes = {p["name"]: p["ir_size"] for p in frow.get("passes", [])}
        if bsizes != fsizes:
            diffs = sorted(
                set(bsizes.items()) ^ set(fsizes.items()) | {(k, None) for k in set(bsizes) ^ set(fsizes)}
            )
            failures.append(
                f"compile.{name}: per-pass IR sizes changed ({diffs}) "
                "(deterministic — regenerate the baseline if intentional)"
            )
        else:
            print(f"    ok  compile.{name}.ir_sizes{'':<14} {len(fsizes)} passes exact")
    # Speedup geomeans: one-sided floors (a faster compiler never fails).
    for field in ("heavy_speedup_t2", "heavy_speedup_t4"):
        check_floor(
            f"compile.geomean.{field}",
            fresh.get("geomean", {}).get(field),
            base.get("geomean", {}).get(field),
            tolerance,
            failures,
        )
    check_floor(
        "compile.geomean.soc_heavy_speedup_t4",
        fresh.get("geomean", {}).get("soc_heavy_speedup_t4"),
        base.get("geomean", {}).get("soc_heavy_speedup_t4"),
        tolerance,
        failures,
    )
    # Absolute ceiling on the SoC's one-thread heavy-pass time.
    soc = fresh_rows.get("soc")
    if soc is None:
        failures.append("compile.soc: no soc row in the fresh compile run")
        return
    heavy = set(fresh.get("heavy_passes", []))
    soc_ms = sum(p["ms_t1"] for p in soc.get("passes", []) if p["name"] in heavy)
    check_ceiling("compile.soc.heavy_ms_t1", soc_ms, SOC_HEAVY_T1_MS_CEILING, failures)
    # Absolute ceiling on custom-function synthesis, summed over the rows.
    cf_ms = sum(
        p["ms_t1"]
        for row in fresh_rows.values()
        for p in row.get("passes", [])
        if p["name"] == "custom-functions"
    )
    check_ceiling(
        "compile.custom_functions_ms_t1", cf_ms, CUSTOM_FUNCTIONS_T1_MS_CEILING, failures
    )


def check_ceiling(label, ms, ceiling, failures):
    """Absolute one-sided gate on a wall time: fail only above the ceiling."""
    ok = ms <= ceiling
    status = "ok" if ok else "FAIL"
    print(f"  {status:>4}  {label:<32} fresh {ms:>12.3f}  ceiling {ceiling:8.3f}")
    if not ok:
        failures.append(f"{label}: {ms:.1f} ms over the {ceiling:.0f} ms ceiling")


SERVE_HIT_RATE_FLOOR = 0.90
SERVE_RSS_GROWTH_CEILING = 1.10


def check_serve(fresh_path, base_path, tolerance, failures):
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(base_path) as f:
        base = json.load(f)
    print("serve section:")
    # Job count may legitimately differ (CI smokes at a lower --jobs);
    # everything gated below is scale-independent. The rest of the load
    # geometry must match for the throughput floor to mean anything.
    for field in ("conns", "vcycles", "workers", "lanes"):
        if fresh.get(field) != base.get(field):
            failures.append(
                f"serve.{field}: load geometry changed ({base.get(field)} -> {fresh.get(field)}); "
                "rates are not comparable — regenerate BENCH_serve.json"
            )
    # The compile count is deterministic: one miss per catalog design,
    # every later job a hit. Any extra miss is a cache/single-flight
    # regression, not noise.
    if fresh.get("cache_misses") != base.get("cache_misses"):
        failures.append(
            f"serve.cache_misses: {base.get('cache_misses')} -> {fresh.get('cache_misses')} "
            "(compiles are deterministic — the program cache or its dedup broke)"
        )
    else:
        print(f"    ok  serve.cache_misses{'':<13} {fresh.get('cache_misses')} exact")
    hit_rate = fresh.get("cache_hit_rate")
    if hit_rate is None or hit_rate < SERVE_HIT_RATE_FLOOR:
        failures.append(
            f"serve.cache_hit_rate: {hit_rate} below the {SERVE_HIT_RATE_FLOOR} acceptance floor"
        )
    else:
        print(f"    ok  serve.cache_hit_rate{'':<11} {hit_rate:.4f} >= {SERVE_HIT_RATE_FLOOR}")
    # Throughput: one-sided — a faster server never fails the gate.
    check_floor(
        "serve.geomean_jobs_per_sec",
        fresh.get("geomean_jobs_per_sec"),
        base.get("geomean_jobs_per_sec"),
        tolerance,
        failures,
    )
    rss_growth = fresh.get("rss_growth")
    if rss_growth is None or rss_growth > SERVE_RSS_GROWTH_CEILING:
        failures.append(
            f"serve.rss_growth: {rss_growth} over the {SERVE_RSS_GROWTH_CEILING} flatness "
            "ceiling (final RSS must stay within 10% of the warm plateau)"
        )
    else:
        print(f"    ok  serve.rss_growth{'':<14} {rss_growth:.3f} <= {SERVE_RSS_GROWTH_CEILING}")


RECOVERY_MS_GRACE = 1000.0


def check_recovery(fresh_path, base_path, tolerance, failures):
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(base_path) as f:
        base = json.load(f)
    print("recovery section:")
    for field in ("sessions", "vcycles_before", "vcycles_after", "workers"):
        if fresh.get(field) != base.get(field):
            failures.append(
                f"recovery.{field}: scenario geometry changed ({base.get(field)} -> {fresh.get(field)}); "
                "recovery times are not comparable — regenerate BENCH_recovery.json"
            )
    # All-or-nothing: every parked session recovers, every resume is
    # bit-identical. One short is a durability bug, not noise.
    sessions = fresh.get("sessions")
    for field in ("recovered", "bit_identical"):
        if fresh.get(field) != sessions:
            failures.append(
                f"recovery.{field}: {fresh.get(field)} of {sessions} sessions "
                "(crash recovery is all-or-nothing — this is a durability bug)"
            )
        else:
            print(f"    ok  recovery.{field:<22} {fresh.get(field)}/{sessions}")
    # Latency: one-sided ceiling. Fast recovery never fails; the grace
    # floor keeps a tens-of-ms baseline from gating on scheduler noise.
    fresh_ms = fresh.get("recovery_ms")
    base_ms = base.get("recovery_ms")
    if fresh_ms is None or base_ms is None:
        failures.append(
            f"recovery.recovery_ms: missing value (fresh={fresh_ms}, baseline={base_ms})"
        )
        return
    ceiling = max(base_ms * (1 + tolerance), RECOVERY_MS_GRACE)
    ok = fresh_ms <= ceiling
    status = "ok" if ok else "FAIL"
    print(
        f"  {status:>4}  {'recovery.recovery_ms':<32} baseline {base_ms:>12.3f}  "
        f"fresh {fresh_ms:>12.3f}  ceiling {ceiling:8.3f}"
    )
    if not ok:
        failures.append(
            f"recovery.recovery_ms: {fresh_ms:.1f} ms over the {ceiling:.1f} ms ceiling "
            f"(baseline {base_ms:.1f} ms)"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh", help="JSON from the fresh table3_performance run")
    ap.add_argument("baseline", help="committed baseline (BENCH_table3.json)")
    ap.add_argument("--tolerance", type=float, default=0.25, help="relative tolerance (default 0.25)")
    ap.add_argument("--fleet-fresh", help="JSON from the fresh fleet_throughput run")
    ap.add_argument("--fleet-baseline", help="committed fleet baseline (BENCH_fleet.json)")
    ap.add_argument("--explore-fresh", help="JSON from the fresh explore_throughput run")
    ap.add_argument("--explore-baseline", help="committed explore baseline (BENCH_explore.json)")
    ap.add_argument("--compile-fresh", help="JSON from the fresh table8_compile_times run")
    ap.add_argument("--compile-baseline", help="committed compile baseline (BENCH_compile.json)")
    ap.add_argument("--serve-fresh", help="JSON from the fresh serve_soak run")
    ap.add_argument("--serve-baseline", help="committed serve baseline (BENCH_serve.json)")
    ap.add_argument("--recovery-fresh", help="JSON from the fresh serve_recovery run")
    ap.add_argument("--recovery-baseline", help="committed recovery baseline (BENCH_recovery.json)")
    args = ap.parse_args()
    if bool(args.fleet_fresh) != bool(args.fleet_baseline):
        ap.error("--fleet-fresh and --fleet-baseline must be given together "
                 "(one alone would silently skip the gang gate)")
    if bool(args.explore_fresh) != bool(args.explore_baseline):
        ap.error("--explore-fresh and --explore-baseline must be given together "
                 "(one alone would silently skip the exploration gate)")
    if bool(args.compile_fresh) != bool(args.compile_baseline):
        ap.error("--compile-fresh and --compile-baseline must be given together "
                 "(one alone would silently skip the compile gate)")
    if bool(args.serve_fresh) != bool(args.serve_baseline):
        ap.error("--serve-fresh and --serve-baseline must be given together "
                 "(one alone would silently skip the serve gate)")
    if bool(args.recovery_fresh) != bool(args.recovery_baseline):
        ap.error("--recovery-fresh and --recovery-baseline must be given together "
                 "(one alone would silently skip the recovery gate)")

    with open(args.fresh) as f:
        fresh = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)

    failures = []
    base_rows = {r["name"]: r for r in base.get("rows", [])}
    fresh_rows = {r["name"]: r for r in fresh.get("rows", [])}

    missing = sorted(set(base_rows) - set(fresh_rows))
    if missing:
        failures.append(f"workloads missing from fresh run: {', '.join(missing)}")

    print(f"bench gate: tolerance ±{args.tolerance * 100:.0f}%")
    for name, brow in sorted(base_rows.items()):
        frow = fresh_rows.get(name)
        if frow is None:
            continue
        for field in PER_ROW:
            check(f"{name}.{field}", frow.get(field), brow.get(field), args.tolerance, failures)
    for field in GEOMEAN:
        check(
            f"geomean.{field}",
            fresh.get("geomean", {}).get(field),
            base.get("geomean", {}).get(field),
            args.tolerance,
            failures,
        )

    if args.fleet_fresh and args.fleet_baseline:
        check_fleet(args.fleet_fresh, args.fleet_baseline, args.tolerance, failures)
    if args.explore_fresh and args.explore_baseline:
        check_explore(args.explore_fresh, args.explore_baseline, args.tolerance, failures)
    if args.compile_fresh and args.compile_baseline:
        check_compile(args.compile_fresh, args.compile_baseline, args.tolerance, failures)
    if args.serve_fresh and args.serve_baseline:
        check_serve(args.serve_fresh, args.serve_baseline, args.tolerance, failures)
    if args.recovery_fresh and args.recovery_baseline:
        check_recovery(args.recovery_fresh, args.recovery_baseline, args.tolerance, failures)

    if failures:
        print(f"\nbench gate FAILED ({len(failures)} violation(s)):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        print(
            "\nIf this change is intentional, regenerate the baseline(s):\n"
            "  cargo run --release -p manticore-bench --bin table3_performance -- --json BENCH_table3.json\n"
            "  cargo run --release -p manticore-bench --bin fleet_throughput -- --json BENCH_fleet.json\n"
            "  cargo run --release -p manticore-bench --bin explore_throughput -- --json BENCH_explore.json\n"
            "  cargo run --release -p manticore-bench --bin table8_compile_times -- --json BENCH_compile.json\n"
            "  cargo run --release -p manticore-bench --bin serve_soak -- --json BENCH_serve.json\n"
            "  cargo run --release -p manticore-bench --bin serve_recovery -- --json BENCH_recovery.json",
            file=sys.stderr,
        )
        return 1
    print("\nbench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
