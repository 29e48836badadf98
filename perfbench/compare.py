"""Compare end-to-end results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``*-trace0.json`` results files of one side (as
``run.py`` writes them to ``.perfbench_out/results/``).  For every workload
and every end-to-end metric of ``BENCHMARK.json`` it prints both medians and
quartile spreads, the share of same-seed pairs the change wins, and a
verdict: ``worse`` when the change's median is worse than the parent's by
more than the metric's bound, ``unresolved`` when the parent's own spread
exceeds the bound, ``gain`` when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's spread, else ``same``.
Exits 1 if any metric is worse.
"""

import glob
import json
import os
import statistics
import sys

from stats import quartile_spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {seed: {metric: value}}} from one side's results."""
    out = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        with open(path) as fh:
            rec = json.load(fh)
        seed = rec["provenance"]["seed"]
        out.setdefault(rec["workload"], {})[seed] = {
            k: m["value"] for k, m in rec["metrics"].items()}
    return out


def _spread(by_seed):
    values = list(by_seed.values())
    return quartile_spread(values) if len(values) > 1 else 0.0


def verdict(parent, change, better, bound):
    """(verdict, share of pairs won) for two {seed: value} maps."""
    pm, cm = statistics.median(parent.values()), \
        statistics.median(change.values())
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    won = wins / len(seeds) if seeds else 0.0
    spread = _spread(parent)
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse", won
    if spread > bound:
        return "unresolved", won
    if won >= 0.9 and sign * (cm - pm) > spread * abs(pm):
        return "gain", won
    return "same", won


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])
    any_worse = False
    print(f"{'workload':16s} {'metric':12s} {'parent':>12s} {'spread':>7s} "
          f"{'change':>12s} {'spread':>7s} {'won':>5s}  verdict")
    for wl in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            name = m["name"]
            p = {s: v[name] for s, v in parent[wl].items()}
            c = {s: v[name] for s, v in change[wl].items()}
            v, won = verdict(p, c, m["better"], m["bound"])
            any_worse |= v == "worse"
            print(f"{wl:16s} {name:12s} {statistics.median(p.values()):12.6g}"
                  f" {_spread(p):7.3f} {statistics.median(c.values()):12.6g}"
                  f" {_spread(c):7.3f} {won:5.2f}  {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
