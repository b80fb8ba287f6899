#!/usr/bin/env python3
"""Compare freshly produced BENCH_*.json files against committed baselines.

Usage: check_bench_regression.py <baseline.json> <current.json> [tolerance]

The benchmarks report MODELED cycles (deterministic cost model), so runs are
reproducible; the tolerance (default 10%) absorbs intentional cost-model
retuning without letting a real fast-path regression slip through.

Checks, per row matched by "name":
  * cost columns (orig / auth / auth_cached / auth_shadow) may not grow by
    more than the tolerance over the baseline;
  * auth_cached may never exceed auth (the cache must never make a call
    more expensive than full verification);
  * auth_shadow may never exceed auth_cached (the policy-state shadow must
    never make a call more expensive than the cache alone). Baselines that
    predate the auth_shadow column are tolerated with a note -- only rows
    that carry the column are gated;
  * auth_inline may never exceed auth_shadow (the trap-less Inline tier must
    never make a call more expensive than the Shadowed tier it promotes
    from). Baselines that predate the column are tolerated with a note;
  * table4 rows must keep overhead_reduction_pct >= 30 (the acceptance bar
    for the verified-call cache), and the getpid() row must keep
    overhead_inline_pct <= 5 (the Inline tier's acceptance bar: near-zero
    residual overhead on the paper's worst-case microbenchmark);
  * table5 rows (parallel install/campaign throughput) must stay
    deterministic and keep modeled_speedup_j8 >= 2.0. Rows carrying
    modeled_rekey_speedup (the differential Rekeyer's modeled advantage over
    a full reinstall, priced per-byte from the runtime cost model) must keep
    it >= 10.0;
  * table7 rows (fleet-scale multi-tenant throughput; every tenant runs
    under its own key: one install, N differential Rekeyer passes) must stay
    deterministic across job counts, report zero invariant-oracle trips,
    keep modeled_vsps_j8 (verified syscalls per modeled second) from falling
    more than the tolerance below the baseline, and keep per_tenant_bytes
    (retained TenantState shard bytes) from growing more than the tolerance.

Every column is modeled and deterministic; the host clock is measured by
perfbench (perfbench/README.md), not here.

Exit status: 0 = within bounds, 1 = regression, 2 = usage/parse error.
"""

import json
import sys

COST_FIELDS = ("orig", "auth", "auth_cached", "auth_shadow", "auth_inline")
MIN_TABLE4_REDUCTION_PCT = 30.0
MAX_TABLE4_GETPID_INLINE_OVERHEAD_PCT = 5.0
MIN_TABLE5_MODELED_SPEEDUP_J8 = 2.0
MIN_TABLE5_REKEY_SPEEDUP = 10.0


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench_regression: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    if len(sys.argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load(sys.argv[1])
    current = load(sys.argv[2])
    tolerance = float(sys.argv[3]) if len(sys.argv) == 4 else 0.10

    base_rows = {r["name"]: r for r in baseline.get("rows", [])}
    cur_rows = {r["name"]: r for r in current.get("rows", [])}
    table = current.get("table", "?")
    failures = []

    missing = set(base_rows) - set(cur_rows)
    if missing:
        failures.append(f"rows disappeared from {table}: {sorted(missing)}")

    for name, cur in cur_rows.items():
        base = base_rows.get(name)
        if base is None:
            print(f"  note: new row '{name}' (no baseline yet)")
            continue
        for field in COST_FIELDS:
            if field not in base or field not in cur:
                continue
            limit = base[field] * (1.0 + tolerance)
            if cur[field] > limit:
                failures.append(
                    f"{table}/{name}/{field}: {cur[field]:.1f} exceeds baseline "
                    f"{base[field]:.1f} by more than {tolerance:.0%}"
                )
        if "auth" in cur and "auth_cached" in cur and cur["auth_cached"] > cur["auth"]:
            failures.append(
                f"{table}/{name}: auth_cached ({cur['auth_cached']:.1f}) exceeds "
                f"auth ({cur['auth']:.1f}) -- the cache made calls slower"
            )
        if "auth_shadow" in cur and "auth_cached" in cur:
            if cur["auth_shadow"] > cur["auth_cached"]:
                failures.append(
                    f"{table}/{name}: auth_shadow ({cur['auth_shadow']:.1f}) exceeds "
                    f"auth_cached ({cur['auth_cached']:.1f}) -- the shadow made "
                    f"calls slower"
                )
            if "auth_shadow" not in base:
                print(
                    f"  note: {name}/auth_shadow has no baseline yet "
                    f"(baseline predates the column -- growth not gated)"
                )
        if "auth_inline" in cur and "auth_shadow" in cur:
            if cur["auth_inline"] > cur["auth_shadow"]:
                failures.append(
                    f"{table}/{name}: auth_inline ({cur['auth_inline']:.1f}) exceeds "
                    f"auth_shadow ({cur['auth_shadow']:.1f}) -- the Inline tier made "
                    f"calls slower than the tier it promotes from"
                )
            if "auth_inline" not in base:
                print(
                    f"  note: {name}/auth_inline has no baseline yet "
                    f"(baseline predates the column -- growth not gated)"
                )
        if table == "table4":
            redu = cur.get("overhead_reduction_pct")
            if redu is not None and redu < MIN_TABLE4_REDUCTION_PCT:
                failures.append(
                    f"{table}/{name}: overhead reduction {redu:.1f}% fell below "
                    f"the {MIN_TABLE4_REDUCTION_PCT:.0f}% acceptance bar"
                )
            inline_ovh = cur.get("overhead_inline_pct")
            if (
                name == "getpid()"
                and inline_ovh is not None
                and inline_ovh > MAX_TABLE4_GETPID_INLINE_OVERHEAD_PCT
            ):
                failures.append(
                    f"{table}/{name}: inline overhead {inline_ovh:.2f}% exceeds "
                    f"the {MAX_TABLE4_GETPID_INLINE_OVERHEAD_PCT:.0f}% acceptance "
                    f"bar for the trap-less tier"
                )
        if table == "table5":
            if cur.get("deterministic") is not True:
                failures.append(
                    f"{table}/{name}: output is NOT deterministic across job "
                    f"counts -- the executor broke the byte-identical contract"
                )
            speedup = cur.get("modeled_speedup_j8")
            if speedup is not None and speedup < MIN_TABLE5_MODELED_SPEEDUP_J8:
                failures.append(
                    f"{table}/{name}: modeled speedup at 8 jobs {speedup:.2f}x "
                    f"fell below the {MIN_TABLE5_MODELED_SPEEDUP_J8:.1f}x bar"
                )
            rekey = cur.get("modeled_rekey_speedup")
            if rekey is not None and rekey < MIN_TABLE5_REKEY_SPEEDUP:
                failures.append(
                    f"{table}/{name}: modeled rekey speedup {rekey:.2f}x fell "
                    f"below the {MIN_TABLE5_REKEY_SPEEDUP:.0f}x differential "
                    f"re-signing bar"
                )
            if "modeled_rekey_speedup" in base and rekey is None:
                failures.append(
                    f"{table}/{name}: modeled_rekey_speedup column disappeared "
                    f"(baseline has it)"
                )
        if table == "table7":
            if cur.get("deterministic") is not True:
                failures.append(
                    f"{table}/{name}: output is NOT deterministic across job "
                    f"counts -- the fleet fan-out or its audit merge broke the "
                    f"byte-identical contract"
                )
            if cur.get("trips", 0) != 0:
                failures.append(
                    f"{table}/{name}: {cur['trips']} fleet invariant-oracle "
                    f"trips (must be zero)"
                )
            vsps = cur.get("modeled_vsps_j8")
            base_vsps = base.get("modeled_vsps_j8")
            if vsps is not None and base_vsps is not None:
                floor = base_vsps * (1.0 - tolerance)
                if vsps < floor:
                    failures.append(
                        f"{table}/{name}: modeled throughput {vsps:.0f} "
                        f"verified-syscalls/s fell more than {tolerance:.0%} "
                        f"below baseline {base_vsps:.0f}"
                    )
            bytes_per = cur.get("per_tenant_bytes")
            base_bytes = base.get("per_tenant_bytes")
            if bytes_per is not None and base_bytes is not None:
                limit = base_bytes * (1.0 + tolerance)
                if bytes_per > limit:
                    failures.append(
                        f"{table}/{name}: per-tenant shard grew to "
                        f"{bytes_per} bytes, more than {tolerance:.0%} over "
                        f"baseline {base_bytes}"
                    )

    if failures:
        print(f"BENCH REGRESSION in {table}:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"{table}: {len(cur_rows)} rows within {tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
