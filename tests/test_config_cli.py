import hashlib
import re

import pytest
import yaml

from bluffsim.broker import ConfigError
from bluffsim.cli import main
from bluffsim.config import (
    PRESETS,
    config_to_dict,
    dump_config,
    load_config,
)
from bluffsim.pipeline import run_scenario, sweep
from conftest import small_config


def write_config(tmp_path, data, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


# -- loading ---------------------------------------------------------------------


def test_minimal_config_applies_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {"seed": 1}))
    assert cfg.seed == 1
    assert cfg.horizon_days == 7
    assert cfg.slots_per_page == 4
    assert cfg.mix.n_benign == 1000
    assert cfg.mix.n_random_bot == 30
    assert cfg.mix.n_trained_bot == 20
    assert cfg.injection.rho == 0.10
    assert cfg.detector.p0 == 0.02
    assert len(cfg.campaigns) == 24


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(write_config(tmp_path, {"seed": 1, "sed": 2}))


def test_unknown_nested_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="detector: unknown keys"):
        load_config(write_config(tmp_path, {"detector": {"p_0": 0.1}}))


def test_out_of_range_rho_names_field(tmp_path):
    with pytest.raises(ConfigError, match="injection.rho"):
        load_config(write_config(tmp_path, {"injection": {"rho": 1.5}}))


def test_wrong_type_reported_with_path(tmp_path):
    with pytest.raises(ConfigError, match="mix.n_benign"):
        load_config(write_config(tmp_path, {"mix": {"n_benign": "many"}}))


def test_diurnal_must_have_24_entries(tmp_path):
    with pytest.raises(ConfigError, match="diurnal"):
        load_config(write_config(tmp_path, {"diurnal": [1.0, 2.0]}))


def test_alpha_must_stay_below_base_ctr(tmp_path):
    with pytest.raises(ConfigError, match="accidental_rate"):
        load_config(write_config(tmp_path, {"behavior": {"accidental_rate": 0.5}}))


def test_campaign_validation(tmp_path):
    data = {
        "campaigns": [
            {
                "advertiser_id": "a",
                "bid_micros": 0,
                "daily_budget_micros": 10,
                "targeting": [1.0] + [0.0] * 15,
            }
        ]
    }
    with pytest.raises(ConfigError, match=r"campaigns\[0\].bid_micros"):
        load_config(write_config(tmp_path, data))


def campaign(**overrides):
    spec = {
        "advertiser_id": "a",
        "bid_micros": 100,
        "daily_budget_micros": 1000,
        "targeting": [1.0] + [0.0] * 15,
    }
    spec.update(overrides)
    return spec


# Each value is checked against its field's annotation, never cast, and
# against the fields it refers to.
MALFORMED = [
    ("campaigns[0].bid_micros", {"campaigns": [campaign(bid_micros=1.7)]}),
    ("campaigns[0].daily_budget_micros", {"campaigns": [campaign(daily_budget_micros=2.9e6)]}),
    ("campaigns[0].advertiser_id", {"campaigns": [campaign(advertiser_id=None)]}),
    ("campaigns[0].targeting", {"campaigns": [campaign(targeting="uniform")]}),
    ("mix.attack_topics[0]", {"mix": {"attack_topics": [10.9, 12]}}),
    ("mix.attack_topics[0]", {"mix": {"attack_topics": ["ten", 12]}}),
    ("mix.harvest_topics", {"mix": {"harvest_topics": [12, 14, 16]}}),
    ("diurnal[3]", {"diurnal": [1.0, 1.0, 1.0, "high"] + [1.0] * 20}),
    ("detector.fusion_weights[1]", {"detector": {"fusion_weights": [0.6, "x", 0.15]}}),
    ("detector.fusion_weights", {"detector": {"fusion_weights": [0.6, 0.4]}}),
    ("detector.min_clicks", {"detector": {"min_clicks": 2.0}}),
    # Cross-field: view bots need a campaign, and their target must name one.
    ("mix.view_bot_target", {"mix": {"n_view_bot": 2, "view_bot_target": "nobody"}}),
    ("mix.n_view_bot", {"campaigns": [], "mix": {"n_view_bot": 2}}),
]


@pytest.mark.parametrize("path,data", MALFORMED, ids=[path for path, _ in MALFORMED])
def test_malformed_value_names_its_path(tmp_path, capsys, path, data):
    source = write_config(tmp_path, data)
    with pytest.raises(ConfigError, match=re.escape(path)):
        load_config(source)
    assert main(["run", "--config", source, "--dry-run"]) == 2
    assert path in capsys.readouterr().err


def test_numbers_and_null_load_as_their_fields(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "injection": {"rho": 0},
        "mix": {"view_bot_target": None},
        "detector": {"fusion_weights": [1, 0, 0]},
        "campaigns": [campaign(targeting=[1] + [0] * 15)],
    }))
    assert cfg.injection.rho == 0.0 and isinstance(cfg.injection.rho, float)
    assert cfg.mix.view_bot_target is None
    assert (cfg.detector.w_bluff, cfg.detector.w_thresh, cfg.detector.w_profile) == (1.0, 0.0, 0.0)
    assert all(isinstance(w, float) for w in cfg.campaigns[0].targeting)


# -- presets ---------------------------------------------------------------------


def test_preset_names_load_directly():
    for name in PRESETS:
        cfg = load_config(name)
        cfg.validate()


def test_default_attack_preset_expands_to_documented_scenario():
    cfg = load_config("default-attack")
    assert (cfg.mix.n_benign, cfg.mix.n_random_bot, cfg.mix.n_trained_bot) == (1000, 30, 20)
    assert cfg.injection.rho == 0.10
    assert cfg.behavior.accidental_rate == 0.002
    assert cfg.behavior.bot_click_rate == 0.3
    assert cfg.horizon_days == 7


def test_dictionary_attack_preset():
    cfg = load_config("dictionary-attack")
    assert cfg.mix.n_trained_bot == 0
    assert cfg.mix.n_dictionary_bot == 20
    assert cfg.mix.n_profile_harvester == 20
    assert cfg.behavior.dictionary_skill == 1.0


def test_baseline_preset_disables_injection():
    assert load_config("baseline-no-bluff").injection.rho == 0.0


def test_preset_with_overrides(tmp_path):
    path = write_config(tmp_path, {"preset": "default-attack", "seed": 9, "injection": {"rho": 0.2}})
    cfg = load_config(path)
    assert cfg.seed == 9 and cfg.injection.rho == 0.2
    assert cfg.mix.n_random_bot == 30


def test_unknown_preset_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown preset"):
        load_config(write_config(tmp_path, {"preset": "nope"}))


def test_missing_source_rejected():
    with pytest.raises(ConfigError, match="neither a file nor a preset"):
        load_config("/does/not/exist.yaml")


# -- echo round trip ---------------------------------------------------------------

# sha256 of each preset's echo, as loaded; pins the key order and formatting.
PRESET_ECHO_SHA256 = {
    "default-attack": "70a30601393249d62c8f4a2094cb184450ae50edcac9a39d02e0f1a232fe3c87",
    "benign-only": "cdd5fbeb30c6f31e8f37b3f96fa0f77e30f5ffdd6977e4bd9c12b20ed8bbe513",
    "dictionary-attack": "9070d49be373438758596b25bf7ce7b2266aae219b2e184c0398f4884b988f6d",
    "baseline-no-bluff": "9662a9bbe8bbe22b0c6eb10d72a24640ca69a81b3969cff7cf7162887e6786b7",
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_echo_matches_pinned_digest(name):
    echo = dump_config(load_config(name))
    assert hashlib.sha256(echo.encode()).hexdigest() == PRESET_ECHO_SHA256[name]


def test_config_echo_round_trips(tmp_path):
    for name in PRESETS:
        cfg = load_config(name)
        cfg.seed = 123
        path = tmp_path / f"{name}.yaml"
        path.write_text(dump_config(cfg))
        again = load_config(str(path))
        assert config_to_dict(again) == config_to_dict(cfg), name


# -- CLI -------------------------------------------------------------------------


def test_cli_dry_run_ok(capsys):
    assert main(["run", "--config", "default-attack", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "dry run" in out and "seed: 0" in out


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"injection": {"rho": 2.0}})
    assert main(["run", "--config", path, "--dry-run"]) == 2
    assert "injection.rho" in capsys.readouterr().err


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = small_config(seed=1)
    path = tmp_path / "small.yaml"
    path.write_text(dump_config(cfg))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
    for name in ("events.jsonl", "truth.csv", "verdicts.csv", "summary.csv", "config.yaml"):
        assert (out_dir / name).exists()
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "metric,value"
    metrics = {line.split(",")[0] for line in summary[1:]}
    assert metrics == {
        "precision", "recall", "f1", "auc", "total_spend", "fraud_spend",
        "fraud_spend_flagged", "bluff_impression_share", "bluff_slot_overhead",
    }


def test_cli_seed_override(tmp_path):
    cfg = small_config(seed=1)
    path = tmp_path / "small.yaml"
    path.write_text(dump_config(cfg))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir), "--seed", "77"]) == 0
    echoed = yaml.safe_load((out_dir / "config.yaml").read_text())
    assert echoed["seed"] == 77


def test_cli_run_requires_out(capsys):
    assert main(["run", "--config", "default-attack"]) == 2


def test_cli_sweep_non_numeric_param(tmp_path, capsys):
    assert main([
        "sweep", "--config", "default-attack", "--param", "mix.view_bot_target",
        "--values", "1,2", "--out", str(tmp_path),
    ]) == 2
    assert "not numeric" in capsys.readouterr().err


# -- sweep -----------------------------------------------------------------------


def test_sweep_emits_one_row_per_value(tmp_path):
    cfg = small_config(seed=2)
    rows = sweep(cfg, "detector.pvalue_threshold", [1e-3, 1e-4, 1e-5], tmp_path)
    assert len(rows) == 3
    lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()
    assert lines[0].startswith("param,value,precision,recall")
    assert len(lines) == 4


def test_sweep_rho_zero_row_has_no_bluff_share(tmp_path):
    cfg = small_config(seed=2)
    rows = sweep(cfg, "injection.rho", [0, 0.1])
    by_value = {row["value"]: row for row in rows}
    assert by_value[0.0]["bluff_impression_share"] == 0.0
    assert by_value[0.1]["bluff_impression_share"] > 0.0


def test_sweep_recall_non_increasing_in_fusion_threshold():
    cfg = small_config(seed=3)
    rows = sweep(cfg, "detector.fusion_threshold", [0.2, 0.4, 0.6, 0.8])
    recalls = [row["recall"] for row in rows]
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))


@pytest.mark.parametrize("param,value", [("detector.min_clicks", 2.9), ("injection.bluff_pool_size", 1.5)])
def test_sweep_rejects_non_integral_value_for_int_field(tmp_path, param, value):
    with pytest.raises(ConfigError, match=re.escape(param)):
        sweep(small_config(), param, [3, value])
    assert main([
        "sweep", "--config", "default-attack", "--param", param,
        "--values", f"3,{value}", "--out", str(tmp_path),
    ]) == 2
    assert not (tmp_path / "sweep_summary.csv").exists()


def test_sweep_detector_side_reuses_traffic():
    # Detector-side sweeps must not regenerate traffic: spend metrics are
    # identical across values while detection metrics move.
    cfg = small_config(seed=4)
    rows = sweep(cfg, "detector.fusion_threshold", [0.3, 0.9])
    assert rows[0]["total_spend"] == rows[1]["total_spend"]
    assert rows[0]["bluff_impression_share"] == rows[1]["bluff_impression_share"]


@pytest.mark.parametrize(
    "param,values",
    [
        # Accumulation side: each value needs its own scan of the stream.
        ("detector.window_ms", [60_000, 600_000, 60_000, 3_600_000]),
        # Read by both the scan and the scoring.
        ("detector.min_clicks", [5, 1, 300, 100]),
        # Scoring only: every row reuses one scan.
        ("detector.p0", [0.02, 0.005, 0.05]),
    ],
)
def test_sweep_rows_equal_separate_runs(param, values):
    cfg = small_config(seed=7)
    cfg.behavior.bot_click_rate = 0.6  # busy bot IPs, so the window scan matters
    rows = sweep(cfg, param, values)
    section, leaf = param.split(".")
    for row, value in zip(rows, values):
        setattr(getattr(cfg, section), leaf, value)
        assert row == {"param": param, "value": value, **run_scenario(cfg).summary_values()}
    assert len({row["recall"] for row in rows}) > 1  # the values move the verdicts
