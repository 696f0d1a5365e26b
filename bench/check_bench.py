#!/usr/bin/env python3
"""Bench-regression smoke gate.

Compares a fresh ``bench_kernels --smoke --json`` run against the checked-in
reference (BENCH_kernels.json) and fails only on a gross regression: a kernel
whose measured speedup (blocked vs in-TU scalar reference) fell below
``--min-ratio`` (default 0.5) of its recorded speedup. Speedup RATIOS are the
right thing to gate in CI — absolute rates vary wildly across runner
hardware, but scalar and blocked kernels run on the SAME machine in the same
process, so their ratio is stable up to noise. The tolerance is deliberately
generous: this is a "did someone accidentally deoptimize a kernel" tripwire,
not a performance-tracking dashboard. In particular the checked-in reference
is a FULL run (len=4096, long timing windows) while CI measures in --smoke
mode (len=512, short windows): problem-size and noise effects legitimately
shift ratios by tens of percent in either direction, which is why the gate
only fires at 0.5x (measured smoke-vs-full drift on a native build stays
within 0.7-1.5x).

Per-row gate floors and ceilings: a reference row may carry a ``"gate"``
object whose keys are ``min_<field>`` (ABSOLUTE floor on top of the ratio
check) or ``max_<field>`` (ABSOLUTE ceiling) for ANY numeric field of the
row — ``min_speedup``, ``min_gb_per_s``, ``max_p99_ms``, ``max_shed``,
``min_goodput``, ``max_expired_frac``, and whatever future benches record.
A gate key that matches neither pattern fails the gate outright (a typo'd
bound must never silently pass). The SLO rows use ceilings (an adaptive
scheduler whose open-loop p99 blows through its ceiling, or whose
high-priority class starts shedding, is a regression even if every ratio
still looks fine); the ``fault/`` chaos rows of BENCH_net.json use a
``min_goodput`` floor (the self-healing client must keep completing
requests under injected faults) and a ``max_expired_frac`` ceiling
(deadline expiries must stay bounded). The quantized CAM rows use this: their
speedup is measured against the blocked float kernel in the same process
(int8/binary must stay genuinely faster than float, not just "not slower
than last time"), and their GB/s floor catches a quantized path that fell
off its narrow-lane memory behavior. Floors in the checked-in reference are
deliberately far below the recorded full-run values so CI smoke-mode noise
does not trip them.

Rows present in the reference but missing from the current run fail the
gate too (coverage loss is a regression). That holds for every reference row
within the gate prefix (the whole file when no prefix is given), including
rows with no speedup and no ``gate`` such as ``shard/.../none`` and
``slo/open8/fixed``. Rows without a recorded speedup (pure-rate rows like
im2col and the end-to-end img/s rows) are reported but never gated on ratio
(a "gate" object still applies).

Gate drift fails too. bench_kernels writes each row's ``gate`` object from
its own source, but the bounds enforced are the reference's. So a current
row whose ``gate`` differs from its reference row's (a floor edited in the
bench source but not in the reference, or the other way round) fails, and
so does a current row that carries a ``gate`` but has no reference row (its
floors would otherwise never be enforced). Benches that leave ``gate`` to
the hand-maintained reference (the serving and wire benches) emit none, and
are not affected.

Failures are reported as a named-row diff: every failing row is listed with
the metric that failed, the floor/reference it was held to, and the measured
value — not just the first mismatch.

The same gate covers the serving bench: BENCH_runtime.json records the two
sweeps of bench_runtime_throughput. Its `shard/...` rows carry the
sharded-over-unsharded img/s ratio as their speedup. That ratio is measured
in one process on one machine, so — unlike raw img/s, which swings with
runner hardware — it only drifts with core count and scheduler noise, which
the 0.5x floor absorbs. Pass ``--gate-prefix shard/`` for those rows.

BENCH_runtime.json's `slo/...` rows gate the SLO scheduler the same way
(``--gate-prefix slo/``): their speedups are fixed-vs-adaptive p99,
low-vs-high-class p99, and low-vs-high-class shed ratios — all measured in
one process at a rate derived from the machine's own capacity, so they hold
across runners where absolute latency does not. Their reference rows omit
the ``speedup`` key on purpose: open-loop tail ratios are too noisy for the
0.5x relative check, so only the absolute ``gate`` bounds apply.

``--selftest`` runs the gate against built-in fixtures (each bound checked
in BOTH directions: a run that clears it and a run that trips it) and exits
nonzero on any mismatch; CI runs it as a unit test of this file.

Usage:
  check_bench.py --current build/BENCH_kernels.json \
                 --reference BENCH_kernels.json [--min-ratio 0.5]
  check_bench.py --current build/BENCH_kernels.json \
                 --reference BENCH_kernels.json --gate-prefix qcam/
  check_bench.py --current build/BENCH_runtime_throughput.json \
                 --reference BENCH_runtime.json --gate-prefix shard/
"""

import argparse
import json
import sys


def load_results(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    return {row["name"]: row for row in data.get("results", [])}


class RowFailure:
    def __init__(self, name, metric, held_to, got):
        self.name = name
        self.metric = metric
        self.held_to = held_to
        self.got = got

    def __str__(self):
        return f"{self.name:<32} {self.metric:<14} floor {self.held_to:<22} got {self.got}"


def check_row(name, ref_row, cur_row, min_ratio, failures):
    """Applies the ratio gate and any per-row absolute floors; returns the
    verdict string for the report table."""
    ref_speedup = ref_row.get("speedup")
    gate = ref_row.get("gate") or {}
    if cur_row is None:
        failures.append(RowFailure(name, "presence", "row must exist", "MISSING"))
        return "FAIL (missing)"
    verdict = "ok"

    cur_gate = cur_row.get("gate")
    if cur_gate is not None and cur_gate != gate:
        failures.append(
            RowFailure(name, "gate", f"reference {json.dumps(gate, sort_keys=True)}",
                       json.dumps(cur_gate, sort_keys=True)))
        verdict = "FAIL"

    if ref_speedup is not None:
        cur_speedup = cur_row.get("speedup")
        if cur_speedup is None:
            failures.append(RowFailure(name, "speedup", "value recorded in reference", "MISSING"))
            return "FAIL (no speedup)"
        ratio = cur_speedup / ref_speedup
        if ratio < min_ratio:
            failures.append(
                RowFailure(name, "speedup ratio", f"{min_ratio} x ref {ref_speedup:.2f}",
                           f"{cur_speedup:.2f} (ratio {ratio:.2f})"))
            verdict = "FAIL"

    # Generic bounds: every gate key is min_<field> (floor) or max_<field>
    # (ceiling) over the row's field of that name. The legacy keys
    # (min_speedup, min_gb_per_s, max_p99_ms, max_shed) are just instances.
    for key in sorted(gate):
        bound = gate[key]
        if key.startswith("min_"):
            field, is_ceiling = key[4:], False
        elif key.startswith("max_"):
            field, is_ceiling = key[4:], True
        else:
            failures.append(
                RowFailure(name, key, "gate key must be min_*/max_*", "UNKNOWN KEY"))
            verdict = "FAIL"
            continue
        cur = cur_row.get(field)
        if cur is None or (cur > bound if is_ceiling else cur < bound):
            failures.append(
                RowFailure(name, field, f"{'<=' if is_ceiling else '>='} {bound}",
                           "MISSING" if cur is None else f"{cur:.4g}"))
            verdict = "FAIL"

    return verdict


def compare(reference, current, min_ratio, gate_prefix, report=lambda line: None):
    """Gates every in-prefix row of `current` against `reference` (both
    name -> row dicts); returns the failures and reports one line per row."""
    failures = []
    for name, ref_row in reference.items():
        gated = not gate_prefix or name.startswith(gate_prefix)
        ref_speedup = ref_row.get("speedup")
        cur_row = current.get(name)
        has_gate = (ref_speedup is not None or ref_row.get("gate")
                    or (cur_row is not None and cur_row.get("gate")))
        # An in-prefix row the run no longer emits fails even without a
        # bound: coverage loss is a regression.
        if not gated or (not has_gate and cur_row is not None):
            status = "-" if cur_row is not None else "missing (not gated)"
            report(f"{name:<32} {'-':>12} {'-':>12} {'-':>7}  {status}")
            continue
        verdict = check_row(name, ref_row, cur_row, min_ratio, failures)
        ref_s = f"{ref_speedup:.2f}" if ref_speedup is not None else "-"
        cur_s = ("-" if cur_row is None or cur_row.get("speedup") is None
                 else f"{cur_row['speedup']:.2f}")
        ratio_s = "-"
        if ref_speedup and cur_row is not None and cur_row.get("speedup") is not None:
            ratio_s = f"{cur_row['speedup'] / ref_speedup:.2f}x"
        report(f"{name:<32} {ref_s:>12} {cur_s:>12} {ratio_s:>7}  {verdict}")
    for name, cur_row in current.items():
        if name in reference or not cur_row.get("gate"):
            continue
        if gate_prefix and not name.startswith(gate_prefix):
            continue
        failures.append(RowFailure(name, "reference", "gated row must be in reference",
                                   "MISSING"))
        report(f"{name:<32} {'-':>12} {'-':>12} {'-':>7}  FAIL (no reference row)")
    return failures


def report_case(description, expected, failures):
    """Prints one selftest verdict; returns 1 on a mismatch, else 0."""
    ok = len(failures) == expected
    print(f"  {description:<34} expected {expected} failure(s), "
          f"got {len(failures)}  {'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def selftest():
    """Exercises every gate bound in both directions against fixtures."""
    cases = [
        # (description, reference row, current row, expect_failures)
        ("ratio pass", {"speedup": 2.0}, {"speedup": 1.2}, 0),
        ("ratio trip", {"speedup": 2.0}, {"speedup": 0.9}, 1),
        ("min_speedup pass", {"gate": {"min_speedup": 1.1}}, {"speedup": 1.5}, 0),
        ("min_speedup trip", {"gate": {"min_speedup": 1.1}}, {"speedup": 1.0}, 1),
        ("min_gb pass", {"gate": {"min_gb_per_s": 4.0}}, {"gb_per_s": 6.0}, 0),
        ("min_gb trip", {"gate": {"min_gb_per_s": 4.0}}, {"gb_per_s": 3.0}, 1),
        ("max_p99 pass", {"gate": {"max_p99_ms": 100.0}}, {"p99_ms": 40.0}, 0),
        ("max_p99 trip", {"gate": {"max_p99_ms": 100.0}}, {"p99_ms": 140.0}, 1),
        ("max_p99 missing trips", {"gate": {"max_p99_ms": 100.0}}, {}, 1),
        ("max_shed pass", {"gate": {"max_shed": 10}}, {"shed": 0}, 0),
        ("max_shed trip", {"gate": {"max_shed": 10}}, {"shed": 50}, 1),
        ("missing row trips", {"gate": {"max_p99_ms": 1.0}}, None, 1),
        ("combined pass", {"gate": {"min_speedup": 1.0, "max_p99_ms": 50.0}},
         {"speedup": 1.3, "p99_ms": 30.0}, 0),
        ("combined trips both", {"gate": {"min_speedup": 1.0, "max_p99_ms": 50.0}},
         {"speedup": 0.5, "p99_ms": 90.0}, 2),
        # Generic min_/max_ bounds on arbitrary fields (the fault/ rows).
        ("min_goodput pass", {"gate": {"min_goodput": 0.9}}, {"goodput": 0.98}, 0),
        ("min_goodput trip", {"gate": {"min_goodput": 0.9}}, {"goodput": 0.6}, 1),
        ("min_goodput missing trips", {"gate": {"min_goodput": 0.9}}, {}, 1),
        ("max_expired_frac pass", {"gate": {"max_expired_frac": 0.5}},
         {"expired_frac": 0.2}, 0),
        ("max_expired_frac trip", {"gate": {"max_expired_frac": 0.5}},
         {"expired_frac": 0.8}, 1),
        ("unknown gate key trips", {"gate": {"goodput_min": 0.9}}, {"goodput": 1.0}, 1),
    ]
    # Gate drift between the bench's emitted gate and the reference's, and
    # gated rows without a reference row (whole-file fixtures: reference
    # rows, current rows, gate prefix).
    floor = {"min_speedup": 1.5}
    file_cases = [
        ("gate identical pass", {"r": {"gate": floor}}, {"r": {"gate": floor, "speedup": 2.0}},
         "", 0),
        ("gate int vs float pass", {"r": {"gate": {"min_speedup": 2}}},
         {"r": {"gate": {"min_speedup": 2.0}, "speedup": 2.5}}, "", 0),
        ("gate edited in bench trips", {"r": {"gate": floor}},
         {"r": {"gate": {"min_speedup": 1.2}, "speedup": 2.0}}, "", 1),
        ("gate added in bench trips", {"r": {"speedup": 2.0}},
         {"r": {"gate": floor, "speedup": 2.0}}, "", 1),
        ("gate added, no ref speedup trips", {"r": {}}, {"r": {"gate": floor, "speedup": 2.0}},
         "", 1),
        ("no gate emitted pass", {"r": {"gate": floor}}, {"r": {"speedup": 2.0}}, "", 0),
        ("unreferenced gated row trips", {}, {"new": {"gate": floor, "speedup": 2.0}}, "", 1),
        ("unreferenced ungated row pass", {}, {"new": {"speedup": 2.0}}, "", 0),
        ("unreferenced row off-prefix pass", {}, {"new": {"gate": floor, "speedup": 2.0}},
         "qcam/", 0),
        # Reference rows with neither a speedup nor a gate must still be
        # emitted, within the prefix (or the whole file without one).
        ("ungated row present pass", {"r": {"p99_ms": 3.0}}, {"r": {"p99_ms": 9.0}}, "", 0),
        ("ungated row missing trips", {"r": {"p99_ms": 3.0}}, {}, "", 1),
        ("ungated prefixed row missing trips", {"slo/r": {"shed": 5}}, {}, "slo/", 1),
        ("ungated off-prefix missing pass", {"shard/r": {"img_per_s": 9.0}}, {}, "slo/", 0),
    ]
    bad = 0
    for description, ref_row, cur_row, expected in cases:
        failures = []
        check_row("fixture", ref_row, cur_row, 0.5, failures)
        bad += report_case(description, expected, failures)
    for description, reference, current, prefix, expected in file_cases:
        bad += report_case(description, expected, compare(reference, current, 0.5, prefix))
    if bad:
        print(f"\nselftest FAILED: {bad} case(s) mismatched.", file=sys.stderr)
        return 1
    print(f"\nselftest passed ({len(cases) + len(file_cases)} cases, "
          "every bound tripped and cleared).")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true",
                        help="check every gate bound in both directions and exit")
    parser.add_argument("--current", help="freshly measured JSON")
    parser.add_argument("--reference", help="checked-in reference JSON")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.5,
        help="fail when current speedup < min-ratio * reference speedup (default 0.5)",
    )
    parser.add_argument(
        "--gate-prefix",
        default="",
        help="only gate rows whose name starts with this prefix; everything "
        "else is report-only (e.g. 'shard/' or 'slo/' for BENCH_runtime.json, "
        "'qcam/' for just the quantized CAM rows and their floors)",
    )
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.current or not args.reference:
        parser.error("--current and --reference are required (unless --selftest)")

    current = load_results(args.current)
    reference = load_results(args.reference)

    print(f"{'kernel':<32} {'ref speedup':>12} {'cur speedup':>12} {'ratio':>7}  verdict")
    failures = compare(reference, current, args.min_ratio, args.gate_prefix, report=print)

    if failures:
        print("\nbench regression gate FAILED — row diff:", file=sys.stderr)
        print(f"  {'row':<32} {'metric':<14} {'held to':<28} measured", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print(f"\n{len(failures)} failing check(s) across "
              f"{len({f.name for f in failures})} row(s).", file=sys.stderr)
        return 1
    print(f"\nbench regression gate passed ({args.min_ratio}x tolerance).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
