"""Run orchestration: traffic -> broker -> detection -> metrics -> files.

Output files are written atomically (temp + rename) and are byte-identical
for a fixed (seed, config): events and truth carry only ints and strings,
and every float in verdicts/summary is serialized with Python's
shortest-roundtrip repr.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, is_dataclass
from pathlib import Path
from typing import Optional

from .broker import Broker, Campaign, ConfigError
from .config import ScenarioConfig, _check, _field_types, dump_config
from .detection import (
    ReferenceProfile,
    accumulate_evidence,
    accumulation_settings,
    run_detection,
    score_evidence,
)
from .domain import AdKind, AdUnit
from .metrics import (
    Confusion,
    EconomicSummary,
    bluff_impression_share,
    confusion,
    economics,
    f1,
    precision,
    recall,
    roc_points,
)
from .traffic import run_traffic

SUMMARY_METRICS = (
    "precision",
    "recall",
    "f1",
    "auc",
    "total_spend",
    "fraud_spend",
    "fraud_spend_flagged",
    "bluff_impression_share",
    "bluff_slot_overhead",
)


@dataclass
class RunResult:
    """In-memory outputs of one scenario run."""

    config: ScenarioConfig
    events: list
    truth: dict
    ip_regions: dict
    reports: dict
    conf: Confusion
    econ: EconomicSummary
    auc: Optional[float]
    broker: Broker

    def summary_values(self) -> dict:
        return {
            "precision": precision(self.conf),
            "recall": recall(self.conf),
            "f1": f1(self.conf),
            "auc": self.auc if self.auc is not None else float("nan"),
            "total_spend": self.econ.total_spend_micros,
            "fraud_spend": self.econ.fraud_spend_micros,
            "fraud_spend_flagged": self.econ.fraud_spend_flagged_micros,
            "bluff_impression_share": self.econ.bluff_impression_share,
            "bluff_slot_overhead": self.econ.bluff_slot_overhead_micros,
        }


@dataclass
class RunOutputs:
    out_dir: Path
    events_path: Path
    truth_path: Path
    verdicts_path: Path
    summary_path: Path
    config_path: Path


def build_broker(config: ScenarioConfig) -> Broker:
    campaigns = []
    for spec in config.campaigns:
        ad = AdUnit(
            ad_id=f"ad-{spec.advertiser_id}",
            kind=AdKind.REAL,
            targeting=spec.targeting,
            content=spec.targeting,  # honest creatives: text matches targeting
            bid_micros=spec.bid_micros,
            advertiser_id=spec.advertiser_id,
        )
        campaigns.append(
            Campaign(
                advertiser_id=spec.advertiser_id,
                ads=[ad],
                daily_budget_micros=spec.daily_budget_micros,
            )
        )
    return Broker(campaigns, config.injection, config.topic_dim, config.seed)


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute the full pipeline in memory."""
    config.validate()
    broker = build_broker(config)
    events, truth, ip_regions = run_traffic(config, broker)
    reports = run_detection(events, config.detector, broker.catalog(), ip_regions, _reference(config))
    return _evaluate(config, broker, events, truth, ip_regions, reports, bluff_impression_share(events))


def _reference(config: ScenarioConfig) -> ReferenceProfile:
    return ReferenceProfile.from_config(config.diurnal, config.mix.region_count)


def _evaluate(config: ScenarioConfig, broker: Broker, events, truth, ip_regions, reports, share) -> RunResult:
    """Confusion, AUC and economics of one set of verdicts over one traffic
    pass whose bluff impression share is ``share``."""
    conf = confusion(reports, truth)
    try:
        _, auc = roc_points(reports, truth)
    except ValueError:
        auc = None  # single-class population (e.g. benign-only calibration)
    econ = economics(broker.ledger, reports, truth, broker.overhead_micros, share)
    return RunResult(config, events, truth, ip_regions, reports, conf, econ, auc, broker)


def _atomic_write(path: Path, write_fn) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        write_fn(fh)
    os.replace(tmp, path)


def _fmt(value) -> str:
    """Serialize a scalar for CSV: shortest-roundtrip floats, plain ints."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _JsonStrings(dict):
    """str -> its JSON literal, as ``json.dumps`` writes it by default
    (quoted, ASCII-escaped), computed once per distinct string."""

    def __missing__(self, text: str) -> str:
        literal = self[text] = json.dumps(text)
        return literal


def write_outputs(result: RunResult, out_dir) -> RunOutputs:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    events_path = out / "events.jsonl"
    truth_path = out / "truth.csv"
    verdicts_path = out / "verdicts.csv"
    summary_path = out / "summary.csv"
    config_path = out / "config.yaml"

    def write_events(fh):
        # The line json.dumps(record, separators=(",", ":")) would give, built
        # directly: ints as written, strings (enum members by their value)
        # as json.dumps literals, memoised since ids repeat.
        q = _JsonStrings()
        for t, etype, agent_id, ip, page_id, ad_id, ad_kind, slot in result.events:
            fh.write(
                f'{{"t":{t},"etype":{q[etype._value_]},"agent_id":{q[agent_id]},"ip":{q[ip]},'
                f'"page_id":{page_id},"ad_id":{q[ad_id]},"ad_kind":{q[ad_kind._value_]},"slot":{slot}}}\n'
            )

    def write_truth(fh):
        fh.write("agent_id,kind\n")
        for agent_id in sorted(result.truth):
            fh.write(f"{agent_id},{result.truth[agent_id].value}\n")

    def write_verdicts(fh):
        fh.write(
            "agent_id,s_bluff,s_thresh,s_profile,fused,flagged,"
            "p_value,max_window_clicks,divergence\n"
        )
        for agent_id in sorted(result.reports):
            r = result.reports[agent_id]
            row = (
                agent_id,
                _fmt(r.s_bluff),
                _fmt(r.s_thresh),
                _fmt(r.s_profile),
                _fmt(r.fused),
                _fmt(r.flagged),
                _fmt(r.p_value),
                _fmt(r.max_window_clicks),
                _fmt(r.divergence),
            )
            fh.write(",".join(row) + "\n")

    def write_summary(fh):
        fh.write("metric,value\n")
        values = result.summary_values()
        for metric in SUMMARY_METRICS:
            fh.write(f"{metric},{_fmt(values[metric])}\n")

    def write_config(fh):
        fh.write(dump_config(result.config))

    _atomic_write(events_path, write_events)
    _atomic_write(truth_path, write_truth)
    _atomic_write(verdicts_path, write_verdicts)
    _atomic_write(summary_path, write_summary)
    _atomic_write(config_path, write_config)
    return RunOutputs(out, events_path, truth_path, verdicts_path, summary_path, config_path)


def run(config: ScenarioConfig, out_dir) -> RunOutputs:
    """Full pipeline plus file outputs."""
    result = run_scenario(config)
    return write_outputs(result, out_dir)


# -- parameter sweeps -----------------------------------------------------------


def _resolve_parent(config: ScenarioConfig, dotted: str):
    parts = dotted.split(".")
    obj = config
    for part in parts[:-1]:
        if not hasattr(obj, part):
            raise ConfigError(f"sweep parameter path {dotted!r}: no section {part!r}")
        obj = getattr(obj, part)
    leaf = parts[-1]
    if not hasattr(obj, leaf):
        raise ConfigError(f"sweep parameter path {dotted!r}: no field {leaf!r}")
    typ = _field_types(type(obj)).get(leaf) if is_dataclass(obj) else None
    if typ not in (int, float):
        raise ConfigError(f"sweep parameter path {dotted!r} is not numeric")
    return obj, leaf, typ


def sweep(config: ScenarioConfig, param: str, values, out_dir=None) -> list:
    """Run the pipeline once per value of a numeric config field.

    Values are checked against the field's type as a config file's would be
    (an int field takes integers only) before anything runs.  A detector-side
    sweep runs traffic once and builds the catalog, the benign reference,
    the bluff impression share and the detection evidence once; each value
    then only re-scores the evidence, and scans the stream again only when
    it changes a field of ``detection.ACCUMULATION_FIELDS``.  Every other
    sweep runs the full pipeline per value.  Returns one summary dict per
    value; when ``out_dir`` is given, also writes a combined
    sweep_summary.csv.
    """
    config.validate()
    _, _, typ = _resolve_parent(config, param)
    values = [_check(value, typ, param) for value in values]
    detector_side = param.split(".", 1)[0] == "detector"
    if detector_side:
        broker = build_broker(config)
        events, truth, ip_regions = run_traffic(config, broker)
        catalog = broker.catalog()
        reference = _reference(config)
        share = bluff_impression_share(events)
        evidence = None

    rows = []
    for value in values:
        cfg_v = copy.deepcopy(config)
        parent, leaf, _ = _resolve_parent(cfg_v, param)
        setattr(parent, leaf, value)
        cfg_v.validate()
        if detector_side:
            detector = cfg_v.detector
            if evidence is None or accumulation_settings(detector) != evidence.settings:
                evidence = accumulate_evidence(events, detector, catalog, ip_regions, reference)
            reports = score_evidence(evidence, detector, reference)
            result = _evaluate(cfg_v, broker, events, truth, ip_regions, reports, share)
        else:
            result = run_scenario(cfg_v)
        rows.append({"param": param, "value": value, **result.summary_values()})

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

        def write_sweep(fh):
            fh.write("param,value," + ",".join(SUMMARY_METRICS) + "\n")
            for row in rows:
                cells = [row["param"], _fmt(row["value"])]
                cells += [_fmt(row[m]) for m in SUMMARY_METRICS]
                fh.write(",".join(cells) + "\n")

        _atomic_write(out / "sweep_summary.csv", write_sweep)
    return rows
