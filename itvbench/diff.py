#!/usr/bin/env python3
"""Rank the metrics that moved between two itvbench results.

    python3 itvbench/diff.py BEFORE.json AFTER.json

BEFORE and AFTER are result files that run.py keeps under
.bench_build/results/ (<workload>-seed<n>-trace<t>.json), from two checkouts
or two runs. Every metric both files carry is compared; the ones that moved
by at least 1% are ranked by relative change (top 40 listed), and
per-method ledger rows (background requests per server-second, foreground
requests per open) are ranked the same way, so a change shows which layer
its saving or cost lands in.
Exit status is 0 either way; this is a report, not a gate.
"""

import argparse
import json
import math
import sys

TOP = 40          # Rows listed per table.
MIN_CHANGE = 0.01  # Smallest relative change that counts as moved.


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "values" not in doc:
        raise SystemExit(f"{path}: not an itvbench result file")
    return doc


def relative(before, after):
    if before == after:
        return 0.0
    if before == 0:
        return math.inf
    return (after - before) / abs(before)


def ledger_values(doc):
    out = {}
    for row in doc.get("ledger", []):
        out[f"ledger.{row['method']}.bg_per_server_s"] = row["bg_per_server_s"]
        out[f"ledger.{row['method']}.fg_per_open"] = row["fg_per_open"]
    return out


def rank(before, after):
    moved = []
    for name in sorted(set(before) & set(after)):
        b, a = before[name], after[name]
        if not isinstance(b, (int, float)) or not isinstance(a, (int, float)):
            continue
        change = relative(b, a)
        if abs(change) >= MIN_CHANGE:
            moved.append((name, b, a, change))
    moved.sort(key=lambda m: (-abs(m[3]), m[0]))
    return moved


def show(title, moved):
    print(f"-- {title}: {len(moved)} moved")
    for name, b, a, change in moved[:TOP]:
        pct = "new" if math.isinf(change) else f"{change * 100:+.1f}%"
        print(f"   {name:<56} {b:>14.6g} -> {a:<14.6g} {pct}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args()
    before, after = load(args.before), load(args.after)
    if before.get("workload") != after.get("workload"):
        print(f"warning: comparing {before.get('workload')} with "
              f"{after.get('workload')}", file=sys.stderr)
    show("metrics", rank(before["values"], after["values"]))
    show("ledger rows", rank(ledger_values(before), ledger_values(after)))
    only = sorted(set(ledger_values(after)) - set(ledger_values(before)))
    gone = sorted(set(ledger_values(before)) - set(ledger_values(after)))
    for label, names in (("new ledger rows", only), ("vanished ledger rows", gone)):
        if names:
            print(f"-- {label}: " + ", ".join(n.split(".", 1)[1] for n in names[:20]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
