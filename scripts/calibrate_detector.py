#!/usr/bin/env python3
"""Calibrate the decoy-test null rate p0 from benign-only traffic.

Runs the benign-only preset across several seeds, measures the empirical
probability that a benign click lands on a decoy (the quantity p0 models),
and reports how many benign users the current detector defaults would flag.
p0 should sit comfortably above the measured rate; the shipped default
(0.02) was chosen from exactly this experiment (~0.013 measured).

Usage: python scripts/calibrate_detector.py [n_seeds]
"""

import sys

from bluffsim.config import load_config
from bluffsim.pipeline import run_scenario


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    pooled_clicks = 0
    pooled_decoys = 0
    flagged = 0
    agents = 0
    for seed in range(n_seeds):
        cfg = load_config("benign-only")
        cfg.seed = seed
        reports = run_scenario(cfg).reports.values()
        clicks = sum(r.total_clicks for r in reports)
        decoys = sum(r.decoy_clicks for r in reports)
        pooled_clicks += clicks
        pooled_decoys += decoys
        flagged += sum(1 for r in reports if r.flagged)
        agents += len(reports)
        print(f"seed {seed}: clicks={clicks} decoy_rate={decoys / max(1, clicks):.5f}")
    rate = pooled_decoys / pooled_clicks
    p0 = load_config("benign-only").detector.p0
    print()
    print(f"pooled benign decoy-click rate: {pooled_decoys}/{pooled_clicks} = {rate:.5f}")
    print(f"configured p0: {p0} (headroom factor {p0 / rate:.2f}x)")
    print(f"benign agents flagged at defaults: {flagged}/{agents}")
    if p0 <= rate:
        print("WARNING: p0 is at or below the measured benign rate; raise it.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
