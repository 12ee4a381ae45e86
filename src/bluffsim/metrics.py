"""Joins detection verdicts with ground truth and billing records.

Classification is agent-level: an agent is a positive if its true kind is
anything other than benign.  These functions run after a scenario and are
pure over the run's immutable outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .domain import AdKind, AgentKind, EventType


@dataclass
class Confusion:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(reports: dict, truth: dict) -> Confusion:
    """Agent-level confusion counts; positive = truly fraudulent."""
    c = Confusion()
    for agent_id, report in reports.items():
        kind = truth.get(agent_id)
        if kind is None:
            raise ValueError(f"agent {agent_id} missing from truth labels")
        positive = kind is not AgentKind.BENIGN
        if report.flagged:
            if positive:
                c.tp += 1
            else:
                c.fp += 1
        else:
            if positive:
                c.fn += 1
            else:
                c.tn += 1
    return c


def precision(c: Confusion) -> float:
    """tp / (tp + fp); vacuously 1 when nothing was flagged."""
    denom = c.tp + c.fp
    return c.tp / denom if denom else 1.0


def recall(c: Confusion) -> float:
    """tp / (tp + fn); vacuously 1 when there are no positives."""
    denom = c.tp + c.fn
    return c.tp / denom if denom else 1.0


def f1(c: Confusion) -> float:
    p = precision(c)
    r = recall(c)
    return 2 * p * r / (p + r) if (p + r) > 0 else 0.0


def roc_points(reports: dict, truth: dict) -> tuple:
    """ROC sweep over the fused scores, plus trapezoidal AUC.

    Equal scores collapse into a single sweep step, which makes the
    trapezoidal area equal to the pairwise concordance statistic
    P(bot > benign) + 0.5 P(tie).  Requires both classes present.
    """
    scored = []
    for agent_id, report in reports.items():
        kind = truth.get(agent_id)
        if kind is None:
            raise ValueError(f"agent {agent_id} missing from truth labels")
        scored.append((report.fused, kind is not AgentKind.BENIGN))
    n_pos = sum(1 for _, pos in scored if pos)
    n_neg = len(scored) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC requires at least one positive and one negative agent")

    scored.sort(key=lambda x: -x[0])
    points = [(0.0, 0.0)]
    tp = fp = 0
    # Trapezoid area accumulated as an exact integer numerator so the AUC
    # equals the pairwise concordance statistic bit-for-bit.
    numer = 0
    i = 0
    while i < len(scored):
        j = i
        prev_tp, prev_fp = tp, fp
        while j < len(scored) and scored[j][0] == scored[i][0]:
            if scored[j][1]:
                tp += 1
            else:
                fp += 1
            j += 1
        numer += (fp - prev_fp) * (prev_tp + tp)
        points.append((fp / n_neg, tp / n_pos))
        i = j
    auc = numer / (2 * n_neg * n_pos)
    return points, auc


@dataclass
class EconomicSummary:
    total_spend_micros: int
    fraud_spend_micros: int  # charges caused by non-benign clicks
    fraud_spend_flagged_micros: int  # subset attributable to flagged agents (would-be refunds)
    bluff_impression_share: float
    bluff_slot_overhead_micros: int  # score value of real ads displaced by decoys


def bluff_impression_share(events) -> float:
    """Share of the stream's impressions that showed a decoy; 0 without
    impressions."""
    impressions = 0
    bluff_impressions = 0
    impression = EventType.IMPRESSION
    real = AdKind.REAL
    for _, etype, _, _, _, _, ad_kind, _ in events:
        if etype is impression:
            impressions += 1
            if ad_kind is not real:
                bluff_impressions += 1
    return bluff_impressions / impressions if impressions else 0.0


def economics(ledger, reports: dict, truth: dict, overhead_micros: int, bluff_share: float) -> EconomicSummary:
    """Aggregate spend and decoy-overhead accounting for one run;
    ``bluff_share`` is the run's ``bluff_impression_share``."""
    total = 0
    fraud = 0
    fraud_flagged = 0
    for entry in ledger.entries:
        total += entry.amount_micros
        kind = truth.get(entry.agent_id)
        if kind is not None and kind is not AgentKind.BENIGN:
            fraud += entry.amount_micros
            report = reports.get(entry.agent_id)
            if report is not None and report.flagged:
                fraud_flagged += entry.amount_micros
    return EconomicSummary(
        total_spend_micros=total,
        fraud_spend_micros=fraud,
        fraud_spend_flagged_micros=fraud_flagged,
        bluff_impression_share=bluff_share,
        bluff_slot_overhead_micros=overhead_micros,
    )


def mean_slate_rank(events, ad_ids: Iterable, exclude_agents: Optional[set] = None) -> float:
    """Mean slot index of the given ads' impressions (higher = worse spot).

    ``exclude_agents`` lets paired-run comparisons ignore a cohort that only
    exists in one of the runs.
    """
    wanted = set(ad_ids)
    exclude = exclude_agents or set()
    total = 0
    count = 0
    for e in events:
        if e.etype is EventType.IMPRESSION and e.ad_id in wanted and e.agent_id not in exclude:
            total += e.slot
            count += 1
    if count == 0:
        raise ValueError("no impressions found for the given ads")
    return total / count
