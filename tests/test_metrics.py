import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from bluffsim.config import load_config
from bluffsim.detection import DetectorConfig, EvidenceScan, SubScores, SuspicionReport, fuse_scores, sub_scores
from bluffsim.domain import AgentKind
from bluffsim.metrics import (
    Confusion,
    EconomicSummary,
    Metered,
    confusion,
    economics,
    f1,
    precision,
    recall,
    threshold_curve,
)
from bluffsim.pipeline import _reference, build_broker, run_scenario
from bluffsim.traffic import run_traffic
from conftest import mean_slate_rank, small_config


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


def fused_auc(reports: dict, truth: dict):
    """The AUC of ``reports``' fused scores, the blacklist left out."""
    return threshold_curve(((a, r.fused, False) for a, r in reports.items()), truth).auc


def test_auc_perfect_separation():
    reports = {"b": report("b", fused=0.9), "u": report("u", fused=0.1)}
    truth = {"b": AgentKind.RANDOM_BOT, "u": AgentKind.BENIGN}
    assert fused_auc(reports, truth) == 1.0


def test_auc_constant_scores_half():
    reports = {"b": report("b", fused=0.5), "u": report("u", fused=0.5)}
    truth = {"b": AgentKind.RANDOM_BOT, "u": AgentKind.BENIGN}
    assert fused_auc(reports, truth) == 0.5


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
    assert fused_auc(reports, truth) == 0.75


def test_auc_single_class_rejected():
    reports = {"u": report("u", fused=0.5)}
    assert fused_auc(reports, {"u": AgentKind.BENIGN}) is None


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
    assert fused_auc(reports, truth) == concordance(pos, neg)


# -- threshold curve -------------------------------------------------------------
#
# The curve answers every threshold from one sort.  Its reference fuses every
# agent's verdict at each threshold (``fuse_scores``), counts the confusion
# (``confusion``) and sums the flagged agents' fraud spend agent by agent.


def reference_summary(metered: Metered, reports: dict) -> EconomicSummary:
    """The economics of ``reports``' verdicts, the flagged fraud spend summed
    over the verdicts themselves."""
    flagged = sum(
        micros for agent_id, micros in metered.fraud_spend_by_agent.items()
        if agent_id in reports and reports[agent_id].flagged
    )
    return EconomicSummary(
        metered.total_spend_micros,
        sum(metered.fraud_spend_by_agent.values()),
        flagged,
        metered.bluff_impression_share,
        metered.bluff_slot_overhead_micros,
    )


def thresholds_around(values) -> list:
    """0, 1, each value and the floats either side of it."""
    out = {0.0, 1.0}
    for v in values:
        out |= {v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)}
    return sorted(out)


def assert_curve_matches_reference(scores: dict, detector: DetectorConfig, truth: dict, metered: Metered):
    fused = fuse_scores(scores, detector)
    curve = threshold_curve(
        ((agent_id, r.fused, r.blacklisted) for agent_id, r in fused.items()), truth, metered.fraud_spend_by_agent
    )
    for threshold in thresholds_around({r.fused for r in fused.values()}):
        reports = fuse_scores(scores, replace(detector, fusion_threshold=threshold))
        conf, flagged_spend = curve.at(threshold)
        assert conf == confusion(reports, truth), threshold
        assert metered.summary(flagged_spend) == reference_summary(metered, reports), threshold
    pos = [r.fused for a, r in fused.items() if truth[a] is not AgentKind.BENIGN]
    neg = [r.fused for a, r in fused.items() if truth[a] is AgentKind.BENIGN]
    if pos and neg:
        assert curve.auc == fused_auc(fused, truth) == concordance(pos, neg)
    else:
        assert curve.auc is None
    return curve


def sub(s_bluff, s_thresh=0.0, s_profile=0.0, blacklisted=False) -> SubScores:
    return SubScores(s_bluff, s_thresh, s_profile, 1.0, 0, 0.0, blacklisted, 0, 0)


def metered_with(fraud_spend: dict) -> Metered:
    return Metered(10 * sum(fraud_spend.values()) + 7, fraud_spend, 0.1, 3)


def test_curve_on_tied_scores():
    scores = {f"a{i}": sub(0.5, 0.5, 0.5) for i in range(6)}
    scores["z"] = sub(0.0)
    truth = {a: AgentKind.BENIGN if i % 2 else AgentKind.RANDOM_BOT for i, a in enumerate(scores)}
    metered = metered_with({a: 100 + i for i, a in enumerate(scores) if truth[a] is not AgentKind.BENIGN})
    curve = assert_curve_matches_reference(scores, DetectorConfig(), truth, metered)
    assert len(curve.scores) == 2


def test_curve_flags_blacklisted_agents_below_the_threshold():
    scores = {
        "bot-listed": sub(0.0, blacklisted=True),
        "ben-listed": sub(0.1, 0.1, 0.1, blacklisted=True),
        "bot-high": sub(1.0, 1.0),
        "bot-low": sub(0.2),
        "ben-low": sub(0.0),
    }
    truth = {a: AgentKind.BENIGN if a.startswith("ben") else AgentKind.TRAINED_BOT for a in scores}
    metered = metered_with({"bot-listed": 5, "bot-high": 50, "bot-low": 500})
    curve = assert_curve_matches_reference(scores, DetectorConfig(), truth, metered)
    # Above every score only the blacklist flags.
    assert curve.at(math.inf) == (Confusion(tp=1, fp=1, tn=1, fn=2), 5)


def test_curve_of_one_class_has_no_auc():
    scores = {f"u{i}": sub(i / 10, blacklisted=i == 3) for i in range(5)}
    truth = dict.fromkeys(scores, AgentKind.BENIGN)
    curve = assert_curve_matches_reference(scores, DetectorConfig(), truth, metered_with({}))
    assert curve.auc is None and curve.n_pos == 0


def test_curve_of_no_agents():
    curve = threshold_curve([], {})
    assert curve.at(0.5) == (Confusion(), 0) and curve.auc is None


def test_curve_agent_missing_from_truth_is_error():
    with pytest.raises(ValueError, match="missing from truth"):
        threshold_curve([("x", 0.5, False)], {})
    with pytest.raises(ValueError, match="missing from truth"):
        threshold_curve([("x", 0.5, True)], {"y": AgentKind.BENIGN})


RUN_CASES = [("default-attack", 10), ("dictionary-attack", 10), ("default-attack", 2)]


@pytest.mark.parametrize("preset, click_cap", RUN_CASES)
def test_curve_matches_reference_on_a_run(preset, click_cap):
    """Sub-scores of a small 1-day run; a click cap of 2 puts IPs on the
    blacklist."""
    cfg = load_config(preset)
    cfg.mix.n_benign = 60
    cfg.horizon_days = 1
    cfg.detector.click_cap = click_cap
    broker = build_broker(cfg)
    events, truth, ip_regions = run_traffic(cfg, broker)
    reference = _reference(cfg)
    scan = EvidenceScan(cfg.detector, broker.catalog(), ip_regions, reference)
    scan.feed(events)
    scores = sub_scores(scan.evidence(), cfg.detector, reference)
    if click_cap == 2:
        assert any(s.blacklisted for s in scores.values())
    for weights in ((0.6, 0.25, 0.15), (0.0, 1.0, 0.0)):
        detector = replace(cfg.detector, **dict(zip(("w_bluff", "w_thresh", "w_profile"), weights)))
        assert_curve_matches_reference(scores, detector, truth, economics(broker, truth))


_SUB_SCORE = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(min_value=0.0, max_value=1.0))
_AGENTS = st.lists(
    st.tuples(_SUB_SCORE, _SUB_SCORE, _SUB_SCORE, st.booleans(), st.sampled_from(AgentKind), st.integers(0, 10**6)),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(
    agents=_AGENTS,
    weights=st.sampled_from(((0.6, 0.25, 0.15), (1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.5, 0.5, 0.0))),
)
def test_curve_matches_reference_on_random_sub_scores(agents, weights):
    scores, truth, spend = {}, {}, {}
    for i, (s_b, s_t, s_p, blacklisted, kind, micros) in enumerate(agents):
        agent_id = f"a{i}"
        scores[agent_id] = sub(s_b, s_t, s_p, blacklisted)
        truth[agent_id] = kind
        if kind is not AgentKind.BENIGN and micros:
            spend[agent_id] = micros
    detector = DetectorConfig(w_bluff=weights[0], w_thresh=weights[1], w_profile=weights[2])
    assert_curve_matches_reference(scores, detector, truth, metered_with(spend))


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
