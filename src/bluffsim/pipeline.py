"""Run orchestration: traffic -> broker -> detection -> metrics -> files.

Output files are written atomically (temp + rename) and are byte-identical
for a fixed (seed, config): events and truth carry only ints and strings,
and every float in verdicts/summary is serialized with Python's
shortest-roundtrip repr.
"""

from __future__ import annotations

import json
import os
from dataclasses import astuple, dataclass, is_dataclass, replace
from functools import cached_property, partial
from itertools import groupby
from pathlib import Path
from typing import Callable, Optional

from .broker import Broker, Campaign, ConfigError
from .config import ScenarioConfig, _check, _field_types, dump_config
from .detection import (
    EvidenceScan,
    ReferenceProfile,
    _raise_on_violations,
    accumulation_settings,
    fuse,
    fuse_scores,
    run_detection,
    scoring_settings,
    sub_scores,
)
from .domain import AdKind, AdUnit, StreamCheck
from .metrics import (
    Confusion,
    EconomicSummary,
    Metered,
    ThresholdCurve,
    economics,
    f1,
    precision,
    recall,
    threshold_curve,
)
from .traffic import _serve, run_traffic

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
    """In-memory outputs of one scenario run.  Only ``run_scenario`` keeps
    ``events``; it is None from ``_stream``, which hands each batch to a sink
    (``run``'s events.jsonl writer, or ``sweep``'s, which drops it).  The
    per-agent verdicts, ``reports``, are built by ``build_reports`` when
    first read: ``run`` reads them for verdicts.csv, a sweep never does."""

    config: ScenarioConfig
    events: Optional[list]
    truth: dict
    build_reports: Callable[[], dict]
    conf: Confusion
    econ: EconomicSummary
    auc: Optional[float]
    broker: Broker

    @cached_property
    def reports(self) -> dict:
        """agent_id -> ``SuspicionReport``."""
        return self.build_reports()

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
    """Execute the full pipeline in memory, keeping the events list.  It
    walks that list (``run_traffic``, ``run_detection``) rather than calling
    ``_stream`` because the bench's tracer counts passes by those names."""
    config.validate()
    broker = build_broker(config)
    events, truth, ip_regions = run_traffic(config, broker)
    reports = run_detection(events, config.detector, broker.catalog(), ip_regions, _reference(config))
    metered = economics(broker, truth)
    scored = ((agent_id, r.fused, r.blacklisted) for agent_id, r in reports.items())
    curve = threshold_curve(scored, truth, metered.fraud_spend_by_agent)
    return _result(config, events, truth, lambda: reports, curve, metered, broker)


def _reference(config: ScenarioConfig) -> ReferenceProfile:
    return ReferenceProfile.from_config(config.diurnal, config.mix.region_count)


def _result(config, events, truth, build_reports, curve: ThresholdCurve, metered: Metered, broker) -> RunResult:
    """The ``RunResult`` of ``config``: its confusion counts and flagged
    fraud spend are read off ``curve`` at its fusion threshold."""
    conf, fraud_spend_flagged = curve.at(config.detector.fusion_threshold)
    econ = metered.summary(fraud_spend_flagged)
    return RunResult(config, events, truth, build_reports, conf, econ, curve.auc, broker)


def _atomic_write(path: Path, write_fn):
    """Write ``path`` through ``write_fn(fh)`` into a temp file renamed over
    it, and return what ``write_fn`` returned; if ``write_fn`` raises, the
    temp file is removed and ``path`` is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            result = write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result


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


class _EventLines:
    """Writes events to ``fh`` as events.jsonl lines, fed in pieces.

    Each line is what json.dumps(record, separators=(",", ":")) would give,
    built directly: ints as written, strings (enum members by their value)
    as json.dumps literals, memoised since ids repeat.
    """

    def __init__(self, fh):
        self._write = fh.write
        self._q = _JsonStrings()

    def feed(self, events) -> None:
        write = self._write
        q = self._q
        for t, etype, agent_id, ip, page_id, ad_id, ad_kind, slot in events:
            write(
                f'{{"t":{t},"etype":{q[etype._value_]},"agent_id":{q[agent_id]},"ip":{q[ip]},'
                f'"page_id":{page_id},"ad_id":{q[ad_id]},"ad_kind":{q[ad_kind._value_]},"slot":{slot}}}\n'
            )


def write_outputs(result: RunResult, out_dir) -> RunOutputs:
    """Write the five output files of ``result``; events.jsonl only when
    ``result`` holds its events (``run`` writes it as the run goes)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    events_path = out / "events.jsonl"
    truth_path = out / "truth.csv"
    verdicts_path = out / "verdicts.csv"
    summary_path = out / "summary.csv"
    config_path = out / "config.yaml"

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

    if result.events is not None:
        _atomic_write(events_path, lambda fh: _EventLines(fh).feed(result.events))
    _atomic_write(truth_path, write_truth)
    _atomic_write(verdicts_path, write_verdicts)
    _atomic_write(summary_path, write_summary)
    _atomic_write(config_path, write_config)
    return RunOutputs(out, events_path, truth_path, verdicts_path, summary_path, config_path)


def _stream(configs: list, sink):
    """Yield one ``RunResult`` per config of ``configs``, in order.

    Consecutive configs that are equal apart from their detector make the
    same traffic, so they share one pass (``_pass``); any other config gets
    a pass of its own.  A group's pass ends, and its broker is freed, before
    the next group's begins.
    """
    for _, group in groupby(configs, lambda cfg: replace(cfg, detector=None)):
        yield from _pass(list(group), sink)


def _pass(configs: list, sink):
    """Serve the traffic of ``configs``, which differ only in their
    detector, once and then yield one ``RunResult`` per config.

    Each batch of events the serve loop yields, already in final order, is
    checked (raising ``ValueError`` on the first violation), scanned for
    evidence once per distinct ``accumulation_settings`` among the detectors
    and handed to ``sink``, then dropped: no events list is built.  The
    broker counts the impressions it serves, so nothing here counts them.

    After the pass the broker's ledger is walked once (``economics``), the
    agents get their sub-scores once per distinct ``scoring_settings``, and
    their fused scores are sorted into a ``threshold_curve`` once per
    distinct setting of every detector field but ``fusion_threshold``, the
    one field the fused scores do not read.  Each config then reads its
    confusion counts, flagged fraud spend and AUC off its curve; its
    verdicts are fused only if its result's ``reports`` are read.  Results
    are yielded one at a time.
    """
    config = configs[0]
    broker = build_broker(config)
    truth, ip_regions, batches = _serve(config, broker)
    check = StreamCheck()
    catalog = broker.catalog()
    reference = _reference(config)
    # Detectors that share accumulation settings gather the same evidence.
    detectors = {accumulation_settings(cfg.detector): cfg.detector for cfg in configs}
    scans = {key: EvidenceScan(detector, catalog, ip_regions, reference) for key, detector in detectors.items()}
    for batch in batches:
        check.feed(batch)
        _raise_on_violations(check.violations)
        for scan in scans.values():
            scan.feed(batch)
        sink(batch)
    evidence = {key: scan.evidence() for key, scan in scans.items()}
    metered = economics(broker, truth)
    scores, curves = {}, {}
    for cfg in configs:
        detector = cfg.detector
        key = scoring_settings(detector)
        if key not in scores:
            scores[key] = sub_scores(evidence[accumulation_settings(detector)], detector, reference)
        curve_key = astuple(replace(detector, fusion_threshold=0.0))
        if curve_key not in curves:
            scored = (
                (agent_id, fuse(s.s_bluff, s.s_thresh, s.s_profile, detector)[0], s.blacklisted)
                for agent_id, s in scores[key].items()
            )
            curves[curve_key] = threshold_curve(scored, truth, metered.fraud_spend_by_agent)
        build_reports = partial(fuse_scores, scores[key], detector)
        yield _result(cfg, None, truth, build_reports, curves[curve_key], metered, broker)


def run(config: ScenarioConfig, out_dir) -> RunOutputs:
    """Full pipeline plus file outputs, in one pass over the event stream
    (``_stream`` with the events.jsonl writer as sink).

    The files equal ``write_outputs(run_scenario(config))``.  A run that
    fails removes its temp file and leaves events.jsonl as it was.
    """
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (result,) = _atomic_write(out / "events.jsonl", lambda fh: list(_stream([config], _EventLines(fh).feed)))
    return write_outputs(result, out)


# -- parameter sweeps -----------------------------------------------------------


def _param_type(config: ScenarioConfig, dotted: str) -> type:
    """The type of the numeric config field at ``dotted``; a ``ConfigError``
    if the path names no such field."""
    obj = config
    *sections, leaf = dotted.split(".")
    for part in sections:
        if not hasattr(obj, part):
            raise ConfigError(f"sweep parameter path {dotted!r}: no section {part!r}")
        obj = getattr(obj, part)
    if not hasattr(obj, leaf):
        raise ConfigError(f"sweep parameter path {dotted!r}: no field {leaf!r}")
    typ = _field_types(type(obj)).get(leaf) if is_dataclass(obj) else None
    if typ not in (int, float):
        raise ConfigError(f"sweep parameter path {dotted!r} is not numeric")
    return typ


def _with_value(obj, path: list, value):
    """``obj`` with the field at ``path`` set to ``value``.  Only the
    dataclasses along the path are copied (``replace``); every other part
    is shared with ``obj``, which the pipeline never changes."""
    name, *rest = path
    return replace(obj, **{name: _with_value(getattr(obj, name), rest, value) if rest else value})


def sweep(config: ScenarioConfig, param: str, values, out_dir=None) -> list:
    """Run the pipeline once per value of a numeric config field.

    Values are checked against the field's type as a config file's would be
    (an int field takes integers only), and every per-value config is
    validated, before anything runs.  All the values are evaluated by one
    ``_stream`` with a sink that drops every batch, so no sweep keeps an
    events list, and consecutive values that leave the traffic unchanged
    share one pass.  Returns one summary dict per value; when ``out_dir`` is
    given, also writes a combined sweep_summary.csv.
    """
    config.validate()
    typ = _param_type(config, param)
    checked, configs = [], []
    for value in values:
        value = _check(value, typ, param)
        cfg_v = _with_value(config, param.split("."), value)
        cfg_v.validate()
        checked.append(value)
        configs.append(cfg_v)

    results = _stream(configs, lambda batch: None)
    # ``map``, not a for loop: no name keeps a finished result, and with it
    # its broker and ledger, alive while the next pass is served.
    rows = list(map(lambda value, res: {"param": param, "value": value, **res.summary_values()}, checked, results))

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
