"""Each output check passes on real outputs and fails on a corrupted copy.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from bluffsim import load_config, run_scenario, sweep  # noqa: E402
from bluffsim.pipeline import run  # noqa: E402

SMALL_ATTACK = """\
preset: default-attack
seed: 3
horizon_days: 1
mix:
  n_benign: 80
  n_random_bot: 6
  n_trained_bot: 4
"""
SMALL_FLOOD = """\
preset: default-attack
seed: 5
horizon_days: 1
mix:
  n_benign: 20
  n_random_bot: 48
  n_trained_bot: 0
  ip_sharing_factor: 8
behavior:
  bot_click_rate: 0.5
detector:
  click_cap: 3
campaigns:
  - advertiser_id: small
    bid_micros: 300000
    daily_budget_micros: 60000000
    targeting: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.8, 0.2, 0, 0, 0, 0]
  - advertiser_id: big
    bid_micros: 500000
    daily_budget_micros: 900000000
    targeting: [0.5, 0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0.5, 0.5, 0, 0, 0, 0]
"""
THRESHOLDS = (0.3, 0.5, 0.7, 0.9)


def _config(tmp_path, text: str, name: str):
    path = tmp_path / f"{name}.yaml"
    path.write_text(text)
    return load_config(str(path))


@pytest.fixture(scope="module")
def file_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("attack")
    outputs = run(_config(tmp, SMALL_ATTACK, "attack"), tmp / "out")
    return checks.outputs_from_files(outputs.out_dir)


@pytest.fixture(scope="module")
def flood_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flood")
    return checks.outputs_from_result(run_scenario(_config(tmp, SMALL_FLOOD, "flood")))


@pytest.fixture(scope="module")
def sweep_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = _config(tmp, SMALL_ATTACK, "sweep")
    rows = sweep(cfg, "detector.fusion_threshold", THRESHOLDS)
    ref_cfg = copy.deepcopy(cfg)
    ref_cfg.detector.fusion_threshold = THRESHOLDS[1]
    reference = run_scenario(ref_cfg).summary_values()
    other = copy.deepcopy(cfg)
    other.seed += 1
    other_rows = sweep(other, "detector.fusion_threshold", THRESHOLDS)
    return rows, reference, other_rows


def _failing(results: dict) -> set:
    return {name for name, problems in results.items() if problems}


def test_real_outputs_pass(file_outputs, flood_outputs):
    assert _failing(checks.check_all(file_outputs)) == set()
    assert _failing(checks.check_all(flood_outputs)) == set()


def test_flood_outputs_exercise_budget_and_blacklist(flood_outputs):
    """The corruptions below only mean something if the clean output has
    clamped budgets and blacklisted IPs to get wrong."""
    assert checks.blacklisted_ips(flood_outputs)
    bid, budget = flood_outputs.campaigns["small"]
    spent = {}
    for t, adv, _, amount, _ in flood_outputs.ledger:
        spent[(adv, t // checks.MS_PER_DAY)] = spent.get((adv, t // checks.MS_PER_DAY), 0) + amount
    assert spent[("small", 0)] == budget


def test_charge_over_budget_fails(flood_outputs):
    o = copy.deepcopy(flood_outputs)
    bid, budget = o.campaigns["small"]
    o.campaigns["small"] = (bid, budget - 1)
    assert checks.check_billing(o)


def test_charge_over_bid_fails(flood_outputs):
    o = copy.deepcopy(flood_outputs)
    t, adv, ad_id, amount, agent = o.ledger[0]
    o.ledger[0] = (t, adv, ad_id, o.campaigns[adv][0] + 1, agent)
    assert checks.check_billing(o)


def test_charge_without_click_fails(flood_outputs):
    o = copy.deepcopy(flood_outputs)
    t, adv, ad_id, amount, agent = o.ledger[0]
    o.ledger[0] = (t + 1, adv, ad_id, amount, agent)
    assert checks.check_billing(o)


def test_misattributed_fraud_spend_fails(flood_outputs):
    o = copy.deepcopy(flood_outputs)
    o.summary["fraud_spend"] -= 1
    assert checks.check_billing(o)


def test_click_without_impression_fails(file_outputs):
    o = copy.deepcopy(file_outputs)
    i = next(i for i, e in enumerate(o.events) if e[1] == "click")
    click = o.events[i]
    o.events[i] = click[:4] + (click[4] + 999_999,) + click[5:]  # a page never served
    assert checks.check_event_stream(o)


def test_out_of_order_stream_fails(file_outputs):
    o = copy.deepcopy(file_outputs)
    o.events[0], o.events[-1] = o.events[-1], o.events[0]
    assert checks.check_event_stream(o)


def test_perturbed_fused_score_fails(file_outputs):
    o = copy.deepcopy(file_outputs)
    agent_id = next(iter(o.verdicts))
    o.verdicts[agent_id]["fused"] += 1e-6
    assert checks.check_fusion(o)


def test_unflagged_agent_over_threshold_fails(file_outputs):
    o = copy.deepcopy(file_outputs)
    agent_id = next(a for a, v in o.verdicts.items() if v["flagged"])
    o.verdicts[agent_id]["flagged"] = False
    assert checks.check_fusion(o) or checks.check_blacklist(o)


def test_wrong_window_count_fails(flood_outputs):
    o = copy.deepcopy(flood_outputs)
    agent_id = max(o.verdicts, key=lambda a: o.verdicts[a]["max_window_clicks"])
    o.verdicts[agent_id]["max_window_clicks"] -= 1
    assert checks.check_window_scan(o)


def test_unflagged_blacklisted_agent_fails(flood_outputs):
    o = copy.deepcopy(flood_outputs)
    listed = checks.blacklisted_ips(o)
    agent_id = next(e[2] for e in o.events if e[3] in listed)
    o.verdicts[agent_id]["flagged"] = False
    o.verdicts[agent_id]["fused"] = 0.0  # keep it under the threshold
    assert checks.check_blacklist(o)


def test_wrong_summary_classification_fails(file_outputs):
    for name in ("precision", "recall", "auc"):
        o = copy.deepcopy(file_outputs)
        o.summary[name] = o.summary[name] * 0.5
        assert checks.check_classification(o), name


def test_decoy_share_off_rho_fails(file_outputs):
    o = copy.deepcopy(file_outputs)
    o.rho = 0.3
    assert checks.check_decoy_share(o)
    o = copy.deepcopy(file_outputs)
    i = next(i for i, e in enumerate(o.events) if e[1] == "impression" and e[6] == "real")
    o.events[i] = o.events[i][:6] + ("bluff_b",) + o.events[i][7:]
    assert checks.check_decoy_share(o)


def test_detection_floor_fails_on_missed_bots(file_outputs):
    o = copy.deepcopy(file_outputs)
    for agent_id, kind in o.truth.items():
        if kind != "benign" and agent_id in o.verdicts:
            o.verdicts[agent_id]["flagged"] = False
    assert checks.check_detection_floor(o)


def test_determinism_fails_on_differing_rounds():
    assert checks.check_determinism(["a", "a"]) == []
    assert checks.check_determinism(["a", "b"])


def test_sweep_passes_and_fails_on_row_from_other_traffic(sweep_case):
    rows, reference, other_rows = sweep_case
    assert checks.check_sweep(rows, THRESHOLDS, reference, 1) == []
    mixed = list(rows)
    mixed[2] = other_rows[2]
    assert checks.check_sweep(mixed, THRESHOLDS, reference, 1)
    mixed = list(rows)
    mixed[1] = other_rows[1]
    assert checks.check_sweep(mixed, THRESHOLDS, reference, 1)


def test_sweep_recall_rising_fails(sweep_case):
    rows, reference, _ = sweep_case
    bad = copy.deepcopy(rows)
    bad[3]["recall"] = bad[0]["recall"] + 0.01
    assert checks.check_sweep(bad, THRESHOLDS, reference, 1)


def test_tracer_restores_every_binding(tmp_path):
    """The traced run must leave the program exactly as it found it."""
    import bluffsim
    import tracer as tracer_mod

    modules = [m for name, m in sys.modules.items() if name == "bluffsim" or name.startswith("bluffsim.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    classes = (bluffsim.broker.Broker, bluffsim.rng.SplitMix64, bluffsim.domain.RelevanceCache, bluffsim.detection.Blacklist)
    methods_before = {(c.__name__, k): v for c in classes for k, v in vars(c).items()}

    t = tracer_mod.Tracer()
    t.install()
    try:
        assert bluffsim.detection.validate_event_stream is not before[("bluffsim.detection", "validate_event_stream")]
        run_scenario(_config(tmp_path, SMALL_ATTACK, "traced"))
    finally:
        t.uninstall()
    metrics = tracer_mod.layer_metrics(t, 1.0)
    assert metrics["detection.passes"] == 1
    assert metrics["pipeline.traffic_passes"] == 1
    assert 0 < metrics["broker.relevance_computed"] < metrics["broker.relevance_lookups"]
    assert metrics["traffic.page_views"] > 0 and metrics["detection.validate_s"] > 0

    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert all(vars(c)[k] is v for c in classes for (name, k), v in methods_before.items() if name == c.__name__)
