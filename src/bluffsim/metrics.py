"""Joins detection verdicts with ground truth and with what the broker metered.

Classification is agent-level: an agent is a positive if its true kind is
anything other than benign.  These functions run after a scenario and are
pure over the run's outputs.  ``threshold_curve`` sorts the agents once by
fused score and answers every fusion threshold's confusion counts and
flagged fraud spend, and the AUC, from that one order.  The economics read
the broker's own counts (ledger, decoy overhead, real and decoy
impressions); nothing here walks the event stream.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Optional

from .domain import AgentKind


@dataclass
class Confusion:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0


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


@dataclass(frozen=True)
class ThresholdCurve:
    """What every fusion threshold flags, from one sort of the fused scores.

    ``scores`` holds the distinct fused scores, ascending.  Entry ``i`` of
    ``tp``, ``fp`` and ``weight`` counts the agents a threshold equal to
    ``scores[i]`` flags: those whose fused score is at least ``scores[i]``,
    and the blacklisted ones at any score.  The last entry, one past
    ``scores``, is a threshold above every score: the blacklisted agents
    alone.  ``weight`` sums a per-agent int, such as fraud spend.
    """

    scores: list
    tp: list
    fp: list
    weight: list
    n_pos: int
    n_neg: int
    auc: Optional[float]  # None when the population holds one class only

    def at(self, threshold: float) -> tuple:
        """(``Confusion``, flagged weight) at ``threshold``: the flags are
        those of ``blacklisted or fused >= threshold``."""
        i = bisect_left(self.scores, threshold)
        tp, fp = self.tp[i], self.fp[i]
        return Confusion(tp, fp, self.n_neg - fp, self.n_pos - tp), self.weight[i]


def threshold_curve(scored: Iterable, truth: dict, weight: Optional[dict] = None) -> ThresholdCurve:
    """The ``ThresholdCurve`` of ``scored``, (agent_id, fused score,
    blacklisted) triples; ``weight`` maps agent_id -> int (0 when absent).
    Raises ``ValueError`` for an agent missing from ``truth``.

    The AUC is the trapezoidal area under the ROC of the fused scores alone,
    blacklisted agents at their scores.  Equal scores collapse into a single
    step, which makes it equal to the pairwise concordance statistic
    P(bot > benign) + 0.5 P(tie).
    """
    weight = weight or {}
    ranked = []
    tp = fp = flagged_weight = 0  # what the blacklist flags at any threshold
    for agent_id, fused, blacklisted in scored:
        kind = truth.get(agent_id)
        if kind is None:
            raise ValueError(f"agent {agent_id} missing from truth labels")
        positive = kind is not AgentKind.BENIGN
        w = weight.get(agent_id, 0)
        if blacklisted:
            tp += positive
            fp += not positive
            flagged_weight += w
        ranked.append((fused, positive, blacklisted, w))
    ranked.sort(key=itemgetter(0), reverse=True)

    scores, tps, fps, weights = [], [tp], [fp], [flagged_weight]
    # Every agent at or above the current score, blacklisted or not, for the
    # ROC; its trapezoid area is kept as an exact integer numerator so the AUC
    # equals the concordance statistic bit-for-bit.
    n_pos = n_neg = numer = 0
    for fused, group in groupby(ranked, key=itemgetter(0)):
        prev_pos, prev_neg = n_pos, n_neg
        for _, positive, blacklisted, w in group:
            if positive:
                n_pos += 1
            else:
                n_neg += 1
            if not blacklisted:
                tp += positive
                fp += not positive
                flagged_weight += w
        numer += (n_neg - prev_neg) * (prev_pos + n_pos)
        scores.append(fused)
        tps.append(tp)
        fps.append(fp)
        weights.append(flagged_weight)
    for column in (scores, tps, fps, weights):
        column.reverse()
    auc = numer / (2 * n_neg * n_pos) if n_pos and n_neg else None
    return ThresholdCurve(scores, tps, fps, weights, n_pos, n_neg, auc)


@dataclass
class EconomicSummary:
    total_spend_micros: int
    fraud_spend_micros: int  # charges caused by non-benign clicks
    fraud_spend_flagged_micros: int  # subset attributable to flagged agents (would-be refunds)
    bluff_impression_share: float
    bluff_slot_overhead_micros: int  # score value of real ads displaced by decoys


@dataclass
class Metered:
    """What the broker of one run metered, read once however many sets of
    verdicts are then costed against it."""

    total_spend_micros: int
    fraud_spend_by_agent: dict  # non-benign agent_id -> micros charged for its clicks
    bluff_impression_share: float
    bluff_slot_overhead_micros: int

    def summary(self, fraud_spend_flagged_micros: int) -> EconomicSummary:
        """The economics of one set of verdicts, given the fraud spend of the
        agents they flag (``ThresholdCurve.at``'s weight over
        ``fraud_spend_by_agent``); nothing else depends on them."""
        fraud = sum(self.fraud_spend_by_agent.values())
        return EconomicSummary(
            self.total_spend_micros,
            fraud,
            fraud_spend_flagged_micros,
            self.bluff_impression_share,
            self.bluff_slot_overhead_micros,
        )


def economics(broker, truth: dict) -> Metered:
    """Spend and decoy-overhead accounting for one run, read off the broker
    that served it: its ledger, walked once, its displaced-score overhead and
    the impressions it metered (decoys in ``decoy_impressions``, real ads in
    ``quality``).  ``Metered.summary`` then costs each set of verdicts from
    their flagged fraud spend.  The bluff impression share is 0 when nothing
    was served."""
    total = 0
    fraud: dict[str, int] = {}
    for entry in broker.ledger.entries:
        total += entry.amount_micros
        kind = truth.get(entry.agent_id)
        if kind is not None and kind is not AgentKind.BENIGN:
            fraud[entry.agent_id] = fraud.get(entry.agent_id, 0) + entry.amount_micros
    decoys = broker.decoy_impressions
    impressions = decoys + sum(qs.impressions for qs in broker.quality.values())
    return Metered(
        total_spend_micros=total,
        fraud_spend_by_agent=fraud,
        bluff_impression_share=decoys / impressions if impressions else 0.0,
        bluff_slot_overhead_micros=broker.overhead_micros,
    )
