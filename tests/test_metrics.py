import math

import pytest
from hypothesis import given, strategies as st

from bluffsim.detection import SuspicionReport
from bluffsim.domain import AgentKind
from bluffsim.metrics import (
    Confusion,
    confusion,
    f1,
    mean_slate_rank,
    precision,
    recall,
    roc_points,
)
from bluffsim.pipeline import run_scenario
from conftest import small_config


def report(agent_id, fused=0.0, flagged=False):
    return SuspicionReport(
        agent_id=agent_id,
        s_bluff=0.0,
        s_thresh=0.0,
        s_profile=0.0,
        fused=fused,
        flagged=flagged,
        p_value=1.0,
        max_window_clicks=0,
        divergence=0.0,
    )


# -- confusion ------------------------------------------------------------------


def test_confusion_empty():
    c = confusion({}, {})
    assert (c.tp, c.fp, c.tn, c.fn) == (0, 0, 0, 0)


def test_confusion_basic_pair():
    reports = {"bot": report("bot", flagged=True), "ben": report("ben")}
    truth = {"bot": AgentKind.RANDOM_BOT, "ben": AgentKind.BENIGN}
    c = confusion(reports, truth)
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 0, 1, 0)


def test_confusion_hand_count():
    # 3 bots (2 flagged), 7 benign (1 flagged) -> (2, 1, 6, 1)
    reports = {}
    truth = {}
    for i in range(3):
        reports[f"b{i}"] = report(f"b{i}", flagged=i < 2)
        truth[f"b{i}"] = AgentKind.TRAINED_BOT
    for i in range(7):
        reports[f"u{i}"] = report(f"u{i}", flagged=i == 0)
        truth[f"u{i}"] = AgentKind.BENIGN
    c = confusion(reports, truth)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 6, 1)
    assert c.total() == 10


def test_confusion_missing_truth_is_error():
    with pytest.raises(ValueError):
        confusion({"x": report("x")}, {})


# -- rates ----------------------------------------------------------------------


def test_precision_recall_f1_hand_computed():
    c = Confusion(tp=2, fp=1, tn=0, fn=1)
    assert math.isclose(precision(c), 2 / 3, rel_tol=1e-12)
    assert math.isclose(recall(c), 2 / 3, rel_tol=1e-12)
    assert math.isclose(f1(c), 2 / 3, rel_tol=1e-12)


def test_vacuous_conventions():
    c = Confusion()
    assert precision(c) == 1.0 and recall(c) == 1.0


def test_perfect_detector():
    c = Confusion(tp=5, tn=5)
    assert precision(c) == recall(c) == f1(c) == 1.0


# -- ROC / AUC -------------------------------------------------------------------


def test_auc_perfect_separation():
    reports = {"b": report("b", fused=0.9), "u": report("u", fused=0.1)}
    truth = {"b": AgentKind.RANDOM_BOT, "u": AgentKind.BENIGN}
    points, auc = roc_points(reports, truth)
    assert auc == 1.0
    assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)


def test_auc_constant_scores_half():
    reports = {"b": report("b", fused=0.5), "u": report("u", fused=0.5)}
    truth = {"b": AgentKind.RANDOM_BOT, "u": AgentKind.BENIGN}
    _, auc = roc_points(reports, truth)
    assert auc == 0.5


def test_auc_hand_computed_with_tie_structure():
    reports = {
        "b1": report("b1", fused=0.9),
        "b2": report("b2", fused=0.7),
        "u1": report("u1", fused=0.8),
        "u2": report("u2", fused=0.1),
    }
    truth = {
        "b1": AgentKind.RANDOM_BOT,
        "b2": AgentKind.RANDOM_BOT,
        "u1": AgentKind.BENIGN,
        "u2": AgentKind.BENIGN,
    }
    _, auc = roc_points(reports, truth)
    assert auc == 0.75


def test_auc_single_class_rejected():
    reports = {"u": report("u", fused=0.5)}
    with pytest.raises(ValueError):
        roc_points(reports, {"u": AgentKind.BENIGN})


def concordance(pos_scores, neg_scores):
    num = 0
    for sp in pos_scores:
        for sn in neg_scores:
            if sp > sn:
                num += 2
            elif sp == sn:
                num += 1
    return num / (2 * len(pos_scores) * len(neg_scores))


@given(
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]), min_size=1, max_size=50),
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]), min_size=1, max_size=50),
)
def test_auc_equals_concordance_exactly(pos, neg):
    reports = {}
    truth = {}
    for i, s in enumerate(pos):
        reports[f"b{i}"] = report(f"b{i}", fused=s)
        truth[f"b{i}"] = AgentKind.RANDOM_BOT
    for i, s in enumerate(neg):
        reports[f"u{i}"] = report(f"u{i}", fused=s)
        truth[f"u{i}"] = AgentKind.BENIGN
    _, auc = roc_points(reports, truth)
    assert auc == concordance(pos, neg)


# -- economics -------------------------------------------------------------------


def test_economics_no_fraud_agents():
    cfg = small_config(seed=3)
    cfg.mix.n_random_bot = 0
    cfg.mix.n_trained_bot = 0
    res = run_scenario(cfg)
    assert res.econ.fraud_spend_micros == 0
    assert res.econ.fraud_spend_flagged_micros == 0
    assert res.econ.total_spend_micros == sum(e.amount_micros for e in res.broker.ledger.entries)


def test_economics_rho_zero_no_bluff_accounting():
    cfg = small_config(seed=4)
    cfg.injection.rho = 0.0
    res = run_scenario(cfg)
    assert res.econ.bluff_impression_share == 0.0
    assert res.econ.bluff_slot_overhead_micros == 0


def test_economics_reconciles_with_ledger_exactly():
    res = run_scenario(small_config(seed=5))
    econ = res.econ
    assert econ.total_spend_micros == sum(e.amount_micros for e in res.broker.ledger.entries)
    assert econ.fraud_spend_flagged_micros <= econ.fraud_spend_micros <= econ.total_spend_micros


def test_economics_flagged_subset():
    res = run_scenario(small_config(seed=6))
    flagged_fraud = sum(
        e.amount_micros
        for e in res.broker.ledger.entries
        if res.truth[e.agent_id] is not AgentKind.BENIGN and res.reports[e.agent_id].flagged
    )
    assert res.econ.fraud_spend_flagged_micros == flagged_fraud


def test_mean_slate_rank_requires_impressions():
    with pytest.raises(ValueError):
        mean_slate_rank([], ["ad-x"])
