#!/usr/bin/env python3
"""Compare a freshly generated BENCH_*.json against its committed
baseline.

Only the hardware-robust *ratio* metrics (top-level "speedup*" keys)
are guarded -- absolute seconds and bytes/s shift with the runner, but
the paper's claims are ratios (pooled vs fresh transport, planned vs
gather compute), which must not silently regress. The guardrail is
one-sided, default 20% (override: BENCH_DIFF_TOL env or third
argument): a ratio that drops by more than the tolerance fails; one
that rises by more passes with a "STALE baseline, re-record" note, so
that a speed-up never turns the guard red. Schema version and run
metadata (bench, grid, steps) must match exactly: comparing ratios
measured at different sizes would be meaningless, and the shared
header exists so this check can refuse.

Usage: bench_diff.py BASELINE CURRENT [TOL]
"""

import json
import os
import sys


def main():
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        cur = json.load(f)
    tol = float(os.environ.get("BENCH_DIFF_TOL", sys.argv[3] if len(sys.argv) == 4 else 0.20))

    failures = []
    for key in ("schema_version", "bench", "grid", "steps"):
        if base.get(key) != cur.get(key):
            failures.append(f"{key}: baseline {base.get(key)!r} != current {cur.get(key)!r}")

    ratios = sorted(k for k in base if k.startswith("speedup"))
    if not ratios:
        failures.append("baseline has no speedup* metrics to guard")
    for key in ratios:
        want = base[key]
        got = cur.get(key)
        if not isinstance(got, (int, float)):
            failures.append(f"{key}: missing from current run")
            continue
        rel = (got - want) / abs(want)
        verdict = "FAIL" if rel < -tol else "STALE baseline, re-record" if rel > tol else "ok"
        print(f"{verdict:4} {key}: baseline {want:.3f} current {got:.3f} ({rel:+.1%})")
        if rel < -tol:
            failures.append(f"{key}: {got:.3f} is {-rel:.1%} below baseline {want:.3f} (tol {tol:.0%})")

    if failures:
        for fmsg in failures:
            print(f"FAIL {fmsg}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: no {cur.get('bench')} ratio more than {tol:.0%} below baseline")


if __name__ == "__main__":
    main()
