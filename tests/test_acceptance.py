"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Scenario fixtures are module-cached, so the heavy simulations
(seeds 0..9 of two scenarios plus paired runs) execute once per session.
"""

import hashlib
import math
import time
from fractions import Fraction

import pytest

from bluffsim.config import load_config
from bluffsim.detection import binom_tail_pvalue
from bluffsim.domain import AdKind, AgentKind, EventType
from bluffsim.metrics import precision, recall, threshold_curve
from bluffsim.pipeline import run, run_scenario
from bluffsim.rng import SplitMix64
from conftest import mean_slate_rank, one_ip_max_window, per_advertiser_day


def ok(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}")


def cohort(truth, kind):
    return {a for a, k in truth.items() if k is kind}


def cohort_recall(res, kind):
    agents = cohort(res.truth, kind)
    flagged = sum(1 for a in agents if a in res.reports and res.reports[a].flagged)
    return flagged / len(agents)


# -- 1. oracle equivalence: binomial tail ------------------------------------------


def test_criterion_1_binomial_tail_oracle():
    rng = SplitMix64.for_stream(2024, stream=77)
    cases = []
    for _ in range(1000):
        n = rng.randrange(51)
        k = rng.randrange(n + 1) if n > 0 else 0
        p0 = 0.001 + 0.998 * rng.random()
        cases.append((k, n, p0))

    t0 = time.monotonic()
    mine = [binom_tail_pvalue(k, n, p0) for k, n, p0 in cases]
    elapsed = time.monotonic() - t0

    for (k, n, p0), value in zip(cases, mine):
        p = Fraction(p0)
        q = 1 - p
        oracle = sum(math.comb(n, j) * p**j * q ** (n - j) for j in range(k, n + 1))
        assert abs(value - float(oracle)) < 1e-12, (k, n, p0)
    # Analytic anchors.
    for n in (0, 1, 7, 50):
        assert binom_tail_pvalue(0, n, 0.37) == 1.0
    for n in (1, 5, 50):
        assert binom_tail_pvalue(n, n, 0.37) == 0.37**n
    assert elapsed < 1.0
    ok("1 binomial-tail oracle", f"(1000 cases, {elapsed*1000:.0f} ms)")


# -- 2. oracle equivalence: window scan ---------------------------------------------


def test_criterion_2_window_scan_oracle():
    rng = SplitMix64.for_stream(2024, stream=78)
    for case in range(500):
        n = rng.randrange(201)
        times = sorted(rng.randrange(600_000) for _ in range(n))
        window = 1 + rng.randrange(120_000)
        brute = 0
        for t in times:
            brute = max(brute, sum(1 for u in times if t - window < u <= t))
        assert one_ip_max_window(times, window) == brute
    ok("2 window-scan oracle", "(500 random streams)")


# -- 3. oracle equivalence: AUC ------------------------------------------------------


def test_criterion_3_auc_oracle():
    from bluffsim.detection import SuspicionReport

    def rep(agent_id, score):
        return SuspicionReport(agent_id, 0, 0, 0, score, False, 1.0, 0, 0.0)

    rng = SplitMix64.for_stream(2024, stream=79)
    for case in range(200):
        n = 2 + rng.randrange(99)
        n_pos = 1 + rng.randrange(n - 1)
        reports = {}
        truth = {}
        scores_pos, scores_neg = [], []
        for i in range(n):
            score = rng.randrange(20) / 20.0  # coarse grid forces score ties
            aid = f"a{i}"
            reports[aid] = rep(aid, score)
            if i < n_pos:
                truth[aid] = AgentKind.RANDOM_BOT
                scores_pos.append(score)
            else:
                truth[aid] = AgentKind.BENIGN
                scores_neg.append(score)
        auc = threshold_curve(((a, r.fused, False) for a, r in reports.items()), truth).auc
        num = 0
        for sp in scores_pos:
            for sn in scores_neg:
                num += 2 if sp > sn else (1 if sp == sn else 0)
        concordance = num / (2 * len(scores_pos) * len(scores_neg))
        assert auc == concordance
    ok("3 AUC concordance oracle", "(200 random sets, exact equality)")


# -- 4. determinism ------------------------------------------------------------------


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def seed42_runs(tmp_path_factory):
    """Two 7-day default-attack runs at seed 42: (wall seconds, digests of
    events, truth and verdicts) per run."""
    out = tmp_path_factory.mktemp("determinism")
    runs = []
    for sub in ("a", "b"):
        cfg = load_config("default-attack")
        cfg.seed = 42
        t0 = time.monotonic()
        outputs = run(cfg, out / sub)
        duration = time.monotonic() - t0
        runs.append(
            (duration, (sha256(outputs.events_path), sha256(outputs.truth_path), sha256(outputs.verdicts_path)))
        )
    return runs


def test_criterion_4_determinism(seed42_runs):
    (_, first), (_, second) = seed42_runs
    assert first == second
    ok("4 determinism", "(sha256 equal)")


@pytest.mark.host_dependent
def test_criterion_4_run_time(seed42_runs):
    """Each 7-day default-attack run finishes in under 10 s of wall time.

    Unlike the other criteria, the outcome depends on the host: the bound is
    wall time, so a slow or loaded machine can fail it with correct code.
    Hence the ``host_dependent`` marker, which ``-m "not host_dependent"``
    deselects.
    """
    durations = [duration for duration, _ in seed42_runs]
    assert all(d < 10.0 for d in durations)
    ok("4 run time", f"(runs {durations[0]:.1f}s / {durations[1]:.1f}s)")


# -- 5. separation -------------------------------------------------------------------


def test_criterion_5_separation(default_runs):
    precs, recs = [], []
    for seed, res in sorted(default_runs.items()):
        p, r = precision(res.conf), recall(res.conf)
        precs.append(p)
        recs.append(r)
        print(f"  seed {seed}: precision={p:.4f} recall={r:.4f}")
    mean_p = sum(precs) / len(precs)
    mean_r = sum(recs) / len(recs)
    assert mean_r >= 0.9
    assert mean_p >= 0.95
    ok("5 separation", f"(mean recall={mean_r:.4f}, mean precision={mean_p:.4f} over seeds 0..9)")


# -- 6. dictionary adversary degradation ----------------------------------------------


def test_criterion_6_dictionary_degradation(dictionary_runs):
    alpha = None
    pooled_impressions = 0
    pooled_clicks = 0
    harv_recalls = []
    precs = []
    for seed, res in sorted(dictionary_runs.items()):
        alpha = res.config.behavior.accidental_rate
        dict_agents = cohort(res.truth, AgentKind.DICTIONARY_BOT)
        for e in res.events:
            if e.agent_id in dict_agents and e.ad_kind is AdKind.BLUFF_A:
                if e.etype is EventType.IMPRESSION:
                    pooled_impressions += 1
                else:
                    pooled_clicks += 1
        harv_recalls.append(cohort_recall(res, AgentKind.PROFILE_HARVESTER))
        precs.append(precision(res.conf))
    rate = pooled_clicks / pooled_impressions
    sigma = math.sqrt(alpha * (1 - alpha) / pooled_impressions)
    assert abs(rate - alpha) <= 3 * sigma
    mean_harv = sum(harv_recalls) / len(harv_recalls)
    mean_prec = sum(precs) / len(precs)
    assert mean_harv >= 0.8
    assert mean_prec >= 0.95
    ok(
        "6 dictionary degradation",
        f"(type-A rate={rate:.5f} vs alpha={alpha} within 3σ={3*sigma:.5f}; "
        f"harvester recall={mean_harv:.3f}; precision={mean_prec:.4f})",
    )


# -- 7. baseline degradation -----------------------------------------------------------


def best_recall_at_precision(res, kind, min_precision):
    """Best cohort recall achievable at the given precision over a sweep of
    the fusion threshold (blacklist overrides preserved)."""
    agents = cohort(res.truth, kind)
    thresholds = sorted({r.fused for r in res.reports.values()}, reverse=True)
    best = 0.0
    for th in thresholds + [float("inf")]:
        tp = fp = hits = 0
        for aid, r in res.reports.items():
            flagged = r.blacklisted or r.fused >= th
            if not flagged:
                continue
            if res.truth[aid] is AgentKind.BENIGN:
                fp += 1
            else:
                tp += 1
                if res.truth[aid] is kind:
                    hits += 1
        prec = tp / (tp + fp) if (tp + fp) else 1.0
        if prec >= min_precision:
            best = max(best, hits / len(agents))
    return best


def test_criterion_7_baseline_degradation(default_runs):
    baseline_recalls = []
    default_recalls = []
    for seed in range(10):
        cfg = load_config("baseline-no-bluff")
        cfg.seed = seed
        base = run_scenario(cfg)
        assert all(r.s_bluff == 0.0 for r in base.reports.values())
        assert base.econ.bluff_impression_share == 0.0
        baseline_recalls.append(best_recall_at_precision(base, AgentKind.TRAINED_BOT, 0.95))
        default_recalls.append(cohort_recall(default_runs[seed], AgentKind.TRAINED_BOT))
    mean_base = sum(baseline_recalls) / len(baseline_recalls)
    mean_default = sum(default_recalls) / len(default_recalls)
    assert mean_base < mean_default
    ok(
        "7 baseline degradation",
        f"(trained-bot recall {mean_base:.3f} without decoys < {mean_default:.3f} with, "
        f"matched precision 0.95)",
    )


# -- 8. billing conservation -----------------------------------------------------------


def assert_billing_conserved(res):
    ledger = res.broker.ledger
    total = sum(e.amount_micros for e in ledger.entries)
    assert total == res.econ.total_spend_micros
    for e in ledger.entries:
        ad = res.broker.ads[e.ad_id]
        assert ad.kind is AdKind.REAL  # decoys never billed
        assert 0 < e.amount_micros <= ad.bid_micros
    budgets = {c.advertiser_id: c.daily_budget_micros for c in res.broker.campaigns.values()}
    for (advertiser, _day), spent in per_advertiser_day(ledger).items():
        assert spent <= budgets[advertiser]


def test_criterion_8_billing_conservation(default_runs, dictionary_runs):
    runs = list(default_runs.values()) + list(dictionary_runs.values())
    for res in runs:
        assert_billing_conserved(res)
    ok("8 billing conservation", f"({len(runs)} runs, exact integer assertions)")


# -- 9. view-fraud effect ---------------------------------------------------------------


def test_criterion_9_view_fraud_effect(default_runs):
    base = default_runs[0]
    cfg = load_config("default-attack")
    cfg.seed = 0
    cfg.mix.n_view_bot = 20
    attacked = run_scenario(cfg)
    target_ad = f"ad-{cfg.campaigns[0].advertiser_id}"
    q_before = base.broker.quality[target_ad].q
    q_after = attacked.broker.quality[target_ad].q
    view_agents = cohort(attacked.truth, AgentKind.VIEW_BOT)
    rank_before = mean_slate_rank(base.events, [target_ad])
    rank_after = mean_slate_rank(attacked.events, [target_ad], exclude_agents=view_agents)
    assert q_after < q_before
    assert rank_after > rank_before
    ok(
        "9 view-fraud effect",
        f"(quality {q_before:.4f}->{q_after:.4f}, mean rank {rank_before:.2f}->{rank_after:.2f})",
    )


# -- 10. comfort/overhead accounting ------------------------------------------------------


def test_criterion_10_overhead_accounting(default_runs):
    rho = None
    shares = []
    fraud_shares = []
    for seed, res in sorted(default_runs.items()):
        rho = res.config.injection.rho
        impressions = sum(1 for e in res.events if e.etype is EventType.IMPRESSION)
        assert impressions >= 100_000
        shares.append(res.econ.bluff_impression_share)
        assert abs(res.econ.bluff_impression_share - rho) < 0.01
        fraud_share = res.econ.fraud_spend_micros / res.econ.total_spend_micros
        fraud_shares.append(fraud_share)
        assert 0.10 <= fraud_share <= 0.15
    ok(
        "10 overhead accounting",
        f"(bluff share {min(shares):.4f}..{max(shares):.4f} vs rho={rho}; "
        f"fraud spend share {min(fraud_shares):.4f}..{max(fraud_shares):.4f})",
    )
