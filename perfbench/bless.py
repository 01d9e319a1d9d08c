"""Record the expected figure-table outputs in ``expected.json``.

Run only when a change to the figure tables is intentional::

    python3 perfbench/bless.py

For every cost-model trial the paper-tables workload can draw, this
computes the four figure tables, their digest, and how many of the
paper bands they meet, and reports each entry that changed.
"""

from __future__ import annotations

import json
import sys

from common import Spans, use_program_source
from workloads import (EXPECTED_PATH, PaperTables, bands_met, read_expected,
                       table_digest)


def main():
    use_program_source()
    expected = read_expected()
    old = expected.get("paper-tables", {})
    new = {}
    for trial in range(PaperTables.TRIALS):
        tables = PaperTables(trial, Spans(False), None).tables("bless")
        met, total = bands_met(tables)
        new[str(trial)] = {"digest": table_digest(tables),
                           "bands_met": met, "bands_total": total}
        state = "unchanged" if old.get(str(trial)) == new[str(trial)] \
            else "recorded"
        print(f"trial {trial}: {state} ({met}/{total} paper bands met)")
    expected["paper-tables"] = new
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
