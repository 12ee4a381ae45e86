"""Independent checks of the program's outputs.

Every quantity is recomputed here from the raw outputs (the event stream,
verdicts, ground truth, ledger and resolved config) with plain Python, never
by calling the program's own scoring, metrics or validation code.  Outputs
are first reduced to an ``Outputs`` record of builtins, from the files that
``bluffsim run`` writes or from an in-memory run, so the same checks serve
both.  Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import yaml

MS_PER_DAY = 86_400_000
EVENT_TYPES = ("impression", "click")
AD_KINDS = ("real", "bluff_a", "bluff_b")
# Summary columns that depend on traffic and billing only, never on the
# detector; a detector-side sweep must leave them unchanged.
TRAFFIC_SIDE = ("total_spend", "fraud_spend", "bluff_impression_share", "bluff_slot_overhead")
SUMMARY_KEYS = (
    "precision", "recall", "f1", "auc", "total_spend", "fraud_spend",
    "fraud_spend_flagged", "bluff_impression_share", "bluff_slot_overhead",
)
FLOAT_TOL = 1e-12
DECOY_SHARE_Z = 6.0  # binomial half-width in standard deviations


@dataclass
class Outputs:
    """One run's outputs as builtins."""

    events: list  # (t, etype, agent_id, ip, page_id, ad_id, ad_kind, slot)
    truth: dict  # agent_id -> kind
    verdicts: dict  # agent_id -> {s_bluff, s_thresh, s_profile, fused, flagged, max_window_clicks, ...}
    summary: dict  # metric -> value
    detector: dict  # resolved detector section of the config
    rho: float
    campaigns: dict  # advertiser_id -> (bid_micros, daily_budget_micros)
    ledger: Optional[list] = None  # (t, advertiser_id, ad_id, amount_micros, agent_id)


# -- building Outputs ----------------------------------------------------------


def _number(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def outputs_from_files(out_dir) -> Outputs:
    """Read the five files ``bluffsim run`` writes."""
    out = Path(out_dir)
    events = []
    with open(out / "events.jsonl", encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            events.append((r["t"], r["etype"], r["agent_id"], r["ip"], r["page_id"], r["ad_id"], r["ad_kind"], r["slot"]))
    with open(out / "truth.csv", encoding="utf-8", newline="") as fh:
        truth = {row["agent_id"]: row["kind"] for row in csv.DictReader(fh)}
    verdicts = {}
    with open(out / "verdicts.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            agent_id = row.pop("agent_id")
            verdicts[agent_id] = {k: _number(v) for k, v in row.items()}
    with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
        summary = {row["metric"]: _number(row["value"]) for row in csv.DictReader(fh)}
    cfg = yaml.safe_load((out / "config.yaml").read_text(encoding="utf-8"))
    return Outputs(
        events=events,
        truth=truth,
        verdicts=verdicts,
        summary=summary,
        detector=dict(cfg["detector"]),
        rho=float(cfg["injection"]["rho"]),
        campaigns={c["advertiser_id"]: (c["bid_micros"], c["daily_budget_micros"]) for c in cfg["campaigns"]},
    )


def outputs_from_result(result) -> Outputs:
    """Reduce an in-memory ``RunResult`` (with its broker's ledger)."""
    cfg = result.config
    d = cfg.detector
    events = [
        (e.t, e.etype.value, e.agent_id, e.ip, e.page_id, e.ad_id, e.ad_kind.value, e.slot)
        for e in result.events
    ]
    verdicts = {
        agent_id: {
            "s_bluff": r.s_bluff,
            "s_thresh": r.s_thresh,
            "s_profile": r.s_profile,
            "fused": r.fused,
            "flagged": r.flagged,
            "p_value": r.p_value,
            "max_window_clicks": r.max_window_clicks,
            "divergence": r.divergence,
        }
        for agent_id, r in result.reports.items()
    }
    return Outputs(
        events=events,
        truth={agent_id: kind.value for agent_id, kind in result.truth.items()},
        verdicts=verdicts,
        summary=dict(result.summary_values()),
        detector={
            "window_ms": d.window_ms,
            "click_cap": d.click_cap,
            "blacklist_ttl_ms": d.blacklist_ttl_ms,
            "fusion_weights": [d.w_bluff, d.w_thresh, d.w_profile],
            "fusion_threshold": d.fusion_threshold,
        },
        rho=cfg.injection.rho,
        campaigns={c.advertiser_id: (c.bid_micros, c.daily_budget_micros) for c in cfg.campaigns},
        ledger=[
            (e.t, e.advertiser_id, e.ad_id, e.amount_micros, e.agent_id)
            for e in result.broker.ledger.entries
        ],
    )


# -- shared recomputations -----------------------------------------------------


def _clicks_by_ip(o: Outputs) -> dict:
    times = defaultdict(list)
    for e in o.events:
        if e[1] == "click":
            times[e[3]].append(e[0])
    for ts in times.values():
        ts.sort()
    return times


def _window_counts(times: list, window_ms: int):
    """(t, clicks in (t - W, t]) for each click time, by bisection."""
    for i, t in enumerate(times):
        yield t, i + 1 - bisect_right(times, t - window_ms)


def _agent_ips(o: Outputs) -> dict:
    ips = {}
    for e in o.events:
        ips[e[2]] = e[3]
    return ips


def _confusion(o: Outputs) -> tuple:
    tp = fp = tn = fn = 0
    for agent_id, v in o.verdicts.items():
        positive = o.truth[agent_id] != "benign"
        if v["flagged"]:
            tp, fp = (tp + 1, fp) if positive else (tp, fp + 1)
        else:
            fn, tn = (fn + 1, tn) if positive else (fn, tn + 1)
    return tp, fp, tn, fn


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= FLOAT_TOL


# -- checks ------------------------------------------------------------------


def check_event_stream(o: Outputs) -> list:
    """Documented order (t, agent_id, ad_id, impression before click) and every
    click paired with an earlier impression of the same (agent, page, ad)."""
    problems = []
    impressions = {}
    prev = None
    for i, e in enumerate(o.events):
        t, etype, agent_id, _, page_id, ad_id, ad_kind, slot = e
        if etype not in EVENT_TYPES or ad_kind not in AD_KINDS or slot < 0:
            problems.append(f"event {i}: malformed {e}")
        key = (t, agent_id, ad_id, 0 if etype == "impression" else 1)
        if prev is not None and key < prev:
            problems.append(f"event {i}: out of order")
        prev = key
        pair = (agent_id, page_id, ad_id)
        if etype == "impression":
            impressions[pair] = ad_kind
        elif impressions.get(pair) != ad_kind:
            problems.append(f"event {i}: click without an earlier matching impression {pair}")
    return problems[:20]


def check_window_scan(o: Outputs) -> list:
    """Each agent's max_window_clicks equals its IP's busiest window, and
    s_thresh is the capped linear ramp over it."""
    window_ms = o.detector["window_ms"]
    cap = o.detector["click_cap"]
    busiest = {ip: max(c for _, c in _window_counts(ts, window_ms)) for ip, ts in _clicks_by_ip(o).items()}
    ips = _agent_ips(o)
    problems = []
    for agent_id, v in o.verdicts.items():
        c = busiest.get(ips.get(agent_id), 0)
        if v["max_window_clicks"] != c:
            problems.append(f"{agent_id}: max_window_clicks {v['max_window_clicks']} != {c}")
        if not _close(v["s_thresh"], min(1.0, max(0.0, (c - cap) / cap))):
            problems.append(f"{agent_id}: s_thresh {v['s_thresh']} off the ramp at {c} clicks")
    return problems[:20]


def check_classification(o: Outputs) -> list:
    """Precision, recall and F1 from verdicts and truth; AUC as the pairwise
    concordance P(bot > benign) + P(tie) / 2."""
    problems = [f"{a}: not in truth" for a in o.verdicts if a not in o.truth]
    if problems:
        return problems[:20]
    tp, fp, tn, fn = _confusion(o)
    p = tp / (tp + fp) if tp + fp else 1.0
    r = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    pos = [v["fused"] for a, v in o.verdicts.items() if o.truth[a] != "benign"]
    neg = sorted(v["fused"] for a, v in o.verdicts.items() if o.truth[a] == "benign")
    if pos and neg:
        twice_wins = sum(2 * bisect_left(neg, s) + (bisect_right(neg, s) - bisect_left(neg, s)) for s in pos)
        auc = twice_wins / (2 * len(pos) * len(neg))
    else:
        auc = float("nan")
    for name, value in (("precision", p), ("recall", r), ("f1", f1), ("auc", auc)):
        if not _close(float(o.summary[name]), value):
            problems.append(f"summary {name} {o.summary[name]} != recomputed {value}")
    return problems


def check_fusion(o: Outputs) -> list:
    """fused is the weighted sum of the three sub-scores, and any agent at or
    over the threshold is flagged."""
    w_b, w_t, w_p = o.detector["fusion_weights"]
    tau = o.detector["fusion_threshold"]
    problems = []
    for agent_id, v in o.verdicts.items():
        expected = w_b * v["s_bluff"] + w_t * v["s_thresh"] + w_p * v["s_profile"]
        if not _close(v["fused"], expected):
            problems.append(f"{agent_id}: fused {v['fused']} != weighted sum {expected}")
        if v["fused"] >= tau and not v["flagged"]:
            problems.append(f"{agent_id}: fused {v['fused']} >= {tau} but not flagged")
    return problems[:20]


def blacklisted_ips(o: Outputs) -> set:
    """IPs whose window count exceeded the cap at a click still within the
    blacklist TTL of the stream's last event."""
    window_ms = o.detector["window_ms"]
    cap = o.detector["click_cap"]
    ttl = o.detector["blacklist_ttl_ms"]
    t_end = max((e[0] for e in o.events), default=0)
    out = set()
    for ip, ts in _clicks_by_ip(o).items():
        last = max((t for t, c in _window_counts(ts, window_ms) if c > cap), default=None)
        if last is not None and last + ttl > t_end:
            out.add(ip)
    return out


def check_blacklist(o: Outputs) -> list:
    """Every agent on a blacklisted IP is flagged, and every flagged agent is
    either at or over the fusion threshold or on a blacklisted IP."""
    tau = o.detector["fusion_threshold"]
    listed = blacklisted_ips(o)
    ips = _agent_ips(o)
    problems = []
    for agent_id, v in o.verdicts.items():
        on_list = ips.get(agent_id) in listed
        if on_list and not v["flagged"]:
            problems.append(f"{agent_id}: IP {ips[agent_id]} blacklisted but agent not flagged")
        if v["flagged"] and not on_list and v["fused"] < tau:
            problems.append(f"{agent_id}: flagged below threshold without a blacklisted IP")
    return problems[:20]


def check_decoy_share(o: Outputs) -> list:
    """The share of decoy impressions matches the summary and lies within a
    binomial bound of rho (each slot is a decoy with probability rho)."""
    n = bluff = 0
    for e in o.events:
        if e[1] == "impression":
            n += 1
            bluff += e[6] != "real"
    if n == 0:
        return ["no impressions"]
    share = bluff / n
    problems = []
    if not _close(float(o.summary["bluff_impression_share"]), share):
        problems.append(f"summary bluff_impression_share {o.summary['bluff_impression_share']} != {share}")
    half_width = DECOY_SHARE_Z * math.sqrt(o.rho * (1 - o.rho) / n)
    if abs(share - o.rho) > half_width:
        problems.append(f"decoy share {share} outside rho {o.rho} +/- {half_width} over {n} impressions")
    return problems


def check_billing(o: Outputs) -> list:
    """Conservation of money.  With a ledger: charges sum to total_spend, no
    advertiser-day over budget, each charge in (0, bid] and matched to its own
    real-ad click, and fraud spend re-derived from truth and verdicts.  Always:
    fraud_spend_flagged <= fraud_spend <= total_spend."""
    s = o.summary
    problems = []
    if not 0 <= s["fraud_spend_flagged"] <= s["fraud_spend"] <= s["total_spend"]:
        problems.append(
            f"spend order broken: flagged {s['fraud_spend_flagged']}, fraud {s['fraud_spend']}, total {s['total_spend']}"
        )
    if o.ledger is None:
        return problems
    clicks = defaultdict(int)
    for e in o.events:
        if e[1] == "click" and e[6] == "real":
            clicks[(e[0], e[2], e[5])] += 1
    day_spend = defaultdict(int)
    total = fraud = flagged = 0
    for i, (t, advertiser_id, ad_id, amount, agent_id) in enumerate(o.ledger):
        if advertiser_id not in o.campaigns:
            problems.append(f"charge {i}: unknown advertiser {advertiser_id}")
            continue
        bid, budget = o.campaigns[advertiser_id]
        if not 0 < amount <= bid:
            problems.append(f"charge {i}: {amount} outside (0, {bid}]")
        key = (t, agent_id, ad_id)
        if clicks[key] <= 0:
            problems.append(f"charge {i}: no real-ad click {key} to match")
        clicks[key] -= 1
        day_spend[(advertiser_id, t // MS_PER_DAY)] += amount
        total += amount
        if o.truth.get(agent_id, "benign") != "benign":
            fraud += amount
            if o.verdicts.get(agent_id, {}).get("flagged"):
                flagged += amount
    for (advertiser_id, day), spent in sorted(day_spend.items()):
        if spent > o.campaigns[advertiser_id][1]:
            problems.append(f"{advertiser_id} day {day}: spent {spent} over budget {o.campaigns[advertiser_id][1]}")
    for name, value in (("total_spend", total), ("fraud_spend", fraud), ("fraud_spend_flagged", flagged)):
        if s[name] != value:
            problems.append(f"summary {name} {s[name]} != ledger {value}")
    return problems[:20]


def check_detection_floor(o: Outputs, min_recall: float = 0.9, min_precision: float = 0.95) -> list:
    tp, fp, _, fn = _confusion(o)
    p = tp / (tp + fp) if tp + fp else 1.0
    r = tp / (tp + fn) if tp + fn else 1.0
    if r >= min_recall and p >= min_precision:
        return []
    return [f"recall {r:.4f} / precision {p:.4f} below {min_recall} / {min_precision}"]


def check_determinism(digests: list) -> list:
    """Every round of one run produced byte-identical outputs."""
    if len(set(digests)) <= 1:
        return []
    return [f"{len(set(digests))} distinct outputs over {len(digests)} rounds"]


def check_sweep(rows: list, values, reference: dict, index: int) -> list:
    """Detector-side sweep: one row per value in order, traffic-side columns
    equal across rows, recall never rising with the threshold, and row
    ``index`` equal to a separate full run at that value (``reference``)."""
    problems = []
    if [row["value"] for row in rows] != list(values):
        return [f"sweep values {[row['value'] for row in rows]} != {list(values)}"]
    for name in TRAFFIC_SIDE:
        seen = {row[name] for row in rows}
        if len(seen) != 1:
            problems.append(f"traffic-side column {name} differs across rows: {sorted(seen)[:4]}")
    ordered = sorted(rows, key=lambda row: row["value"])
    for lo, hi in zip(ordered, ordered[1:]):
        if hi["recall"] > lo["recall"]:
            problems.append(f"recall rises from {lo['recall']} to {hi['recall']} at threshold {hi['value']}")
    for name in SUMMARY_KEYS:
        if not _close(float(rows[index][name]), float(reference[name])):
            problems.append(f"row {index} {name} {rows[index][name]} != full run {reference[name]}")
    return problems


def check_all(o: Outputs, detection_floor: bool = False) -> dict:
    """Run every single-run check; name -> problems."""
    results = {
        "event_stream": check_event_stream(o),
        "window_scan": check_window_scan(o),
        "classification": check_classification(o),
        "fusion": check_fusion(o),
        "blacklist": check_blacklist(o),
        "decoy_share": check_decoy_share(o),
        "billing": check_billing(o),
    }
    if detection_floor:
        results["detection_floor"] = check_detection_floor(o)
    return results
