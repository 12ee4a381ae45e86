#!/usr/bin/env python3
"""Paired experiment: can the pipeline catch a trained botnet without decoys?

Runs the default attack scenario twice per seed -- once with decoy injection
and once with rho = 0 (threshold + profile detection only) -- and compares
the trained-bot cohort recall achievable at matched precision.  Trained bots
mimic benign session timing, so the baseline detectors have little to work
with; the decoy channel is what separates them.

Usage: python scripts/compare_baseline.py [n_seeds]
"""

import sys

from bluffsim.config import load_config
from bluffsim.domain import AgentKind
from bluffsim.metrics import precision, threshold_curve
from bluffsim.pipeline import run_scenario

MIN_PRECISION = 0.95


def recall_at_matched_precision(res, kind):
    """Best recall of the ``kind`` cohort at any fusion threshold whose
    precision is at least ``MIN_PRECISION``; blacklisted agents stay flagged."""
    agents = {a for a, k in res.truth.items() if k is kind}
    scored = ((a, r.fused, r.blacklisted) for a, r in res.reports.items())
    curve = threshold_curve(scored, res.truth, dict.fromkeys(agents, 1))
    best = 0.0
    for th in curve.scores + [float("inf")]:
        conf, hits = curve.at(th)
        if precision(conf) >= MIN_PRECISION:
            best = max(best, hits / len(agents))
    return best


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    with_decoys = []
    without = []
    print(f"{'seed':>4} {'with decoys':>12} {'without':>8}")
    for seed in range(n_seeds):
        cfg = load_config("default-attack")
        cfg.seed = seed
        res = run_scenario(cfg)
        cfg0 = load_config("baseline-no-bluff")
        cfg0.seed = seed
        res0 = run_scenario(cfg0)
        r1 = recall_at_matched_precision(res, AgentKind.TRAINED_BOT)
        r0 = recall_at_matched_precision(res0, AgentKind.TRAINED_BOT)
        with_decoys.append(r1)
        without.append(r0)
        print(f"{seed:>4} {r1:>12.3f} {r0:>8.3f}")
    mean1 = sum(with_decoys) / len(with_decoys)
    mean0 = sum(without) / len(without)
    print(f"\nmean trained-bot recall at precision >= {MIN_PRECISION}: "
          f"{mean1:.3f} with decoys vs {mean0:.3f} without")
    return 0


if __name__ == "__main__":
    sys.exit(main())
