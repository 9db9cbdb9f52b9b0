#!/usr/bin/env python3
"""Gate E16's deterministic hot-path counters against the committed baseline.

Usage: python3 bench/check_e16.py BENCH_e16.json [bench/baseline_e16.json]

Every E16 counter is a logical count (record decodes, eviction scans,
log forces, scope probes, restart log reads, time-travel reads) over
fixed seeded workloads — no wall time — so on identical code the run
reproduces the baseline bit for bit, and any drift is a real behaviour
change.  The gate fails when a cost counter grows more than 5% over
baseline, or when the committed-work sanity figure shrinks more than
5%.  An intentional improvement (or an intentional workload change)
lands by refreshing the baseline in the same commit:

    dune exec bench/main.exe -- e16
    python3 - <<'EOF'
    import json
    d = json.load(open('BENCH_e16.json'))
    json.dump({'experiment': 'e16', 'counters': d['counters']},
              open('bench/baseline_e16.json', 'w'), indent=2)
    EOF

Stdlib only; no third-party dependencies.
"""

import json
import sys

TOLERANCE = 0.05

# Counters where growth is a regression (more work on the same seeded
# workload).  Everything except the sanity figure below.
COST_COUNTERS = [
    "decode_calls_uncached",
    "decode_calls_cached",
    "evictions_pool4",
    "eviction_scans_pool4",
    "evictions_pool32",
    "eviction_scans_pool32",
    "log_flushes_eager",
    "log_flushes_grouped",
    "scope_probes",
    "restart_log_reads_plain",
    "restart_log_reads_2shard",
    "asof_reads_live",
    "asof_reads_bridged",
]

# Shrinking committed work means the simulator got less done — also a
# regression, just in the other direction.
THROUGHPUT_COUNTERS = ["sim_committed"]


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    bench_path = sys.argv[1]
    base_path = sys.argv[2] if len(sys.argv) > 2 else "bench/baseline_e16.json"
    bench = json.load(open(bench_path))["counters"]
    base = json.load(open(base_path))["counters"]

    failures = []
    improvements = []
    for engine, base_row in sorted(base.items()):
        row = bench.get(engine)
        if row is None:
            failures.append(f"{engine}: missing from {bench_path}")
            continue
        for key in COST_COUNTERS + THROUGHPUT_COUNTERS:
            if key not in base_row:
                continue
            old, new = base_row[key], row.get(key)
            if new is None:
                failures.append(f"{engine}.{key}: missing from {bench_path}")
            elif key in COST_COUNTERS and new > old * (1 + TOLERANCE):
                failures.append(
                    f"{engine}.{key}: {old} -> {new} "
                    f"(+{100.0 * (new - old) / max(1, old):.1f}%, limit +5%)"
                )
            elif key in THROUGHPUT_COUNTERS and new < old * (1 - TOLERANCE):
                failures.append(
                    f"{engine}.{key}: {old} -> {new} "
                    f"({100.0 * (new - old) / max(1, old):.1f}%, limit -5%)"
                )
            elif new != old:
                improvements.append(f"{engine}.{key}: {old} -> {new}")
        # structural invariant, pool-size independent: one frame
        # examined per eviction
        for size in ("pool4", "pool32"):
            if row.get(f"eviction_scans_{size}") != row.get(f"evictions_{size}"):
                failures.append(
                    f"{engine}: eviction no longer O(1) at {size}: "
                    f"{row.get(f'eviction_scans_{size}')} scans for "
                    f"{row.get(f'evictions_{size}')} evictions"
                )

    if improvements:
        print("counters that moved inside tolerance (refresh the baseline")
        print("if intentional):")
        for line in improvements:
            print(f"  {line}")
    if failures:
        print(f"E16 regression gate FAILED vs {base_path}:")
        for line in failures:
            print(f"  {line}")
        sys.exit(1)
    print(f"E16 regression gate passed vs {base_path}.")


if __name__ == "__main__":
    main()
