#!/usr/bin/env python3
"""Prints which CAM kernel table a test run served and pinned, as Markdown.

    test_kernels --gtest_filter='CrossIsaKernels.*' --gtest_output=json:crossisa.json
    kernel_table_summary.py crossisa.json >> "$GITHUB_STEP_SUMMARY"

Reads the kernel_isa and compared_tables properties the CrossIsaKernels tests
record, and whether EveryHostTableBitwiseMatchesBaseline compared the tables
or skipped because the host runs the baseline table only (no AVX-512). Exits
nonzero if the report lacks either test.
"""
import json
import sys


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        report = json.load(f)
    tests = {t["name"]: t for suite in report["testsuites"] for t in suite["testsuite"]}
    resolve = tests.get("TablesResolveOnceWidestLastAndPinPerThread")
    compare = tests.get("EveryHostTableBitwiseMatchesBaseline")
    if resolve is None or compare is None:
        print("kernel_table_summary.py: CrossIsaKernels tests missing from the report",
              file=sys.stderr)
        return 1
    print(f"**CAM kernel table served:** `{resolve.get('kernel_isa', '?')}`\n")
    if compare.get("result") == "SKIPPED":
        print("**CrossIsaKernels:** skipped: this runner has no AVX-512, so only the "
              "baseline table was tested.")
    else:
        print("**CrossIsaKernels:** compared `baseline` with "
              f"`{compare.get('compared_tables', '?')}` bitwise.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
