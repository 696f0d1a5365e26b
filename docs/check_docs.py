#!/usr/bin/env python3
"""Docs gate: every relative markdown link in README.md and docs/*.md
resolves to a file that exists (anchors are stripped; http(s)/mailto links
are not fetched — external availability is not this repo's regression to
catch). Registered as the `check_docs` ctest.

Stats-field coverage of docs/STATS_REFERENCE.md is checked in C++ by the
`test_stats_reference` ctest, which walks the stats field lists themselves.

Stdlib only. Exit 0 on success, 1 with a named-failure list otherwise.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links(md_path, failures):
    text = md_path.read_text(encoding="utf-8")
    # Skip fenced code blocks: sample output and snippets may contain
    # bracketed text that only looks like a link.
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (md_path.parent / target.split("#")[0]).resolve()
        if not resolved.exists():
            failures.append(f"{md_path.relative_to(REPO)}: broken link -> {target}")


def main():
    failures = []

    md_files = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    for md in md_files:
        check_links(md, failures)

    if failures:
        print(f"check_docs: {len(failures)} failure(s)")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"check_docs: OK ({len(md_files)} markdown files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
