from collections import deque

import pytest

from bluffsim.config import load_config
from bluffsim.detection import (
    HOURS,
    AgentEvidence,
    Blacklist,
    DetectorConfig,
    Evidence,
    accumulation_settings,
    classify_decoy_click,
    run_detection,
)
from bluffsim.domain import MS_PER_DAY, MS_PER_HOUR, AdKind, Event, EventType, basis_vector
from bluffsim.pipeline import run_scenario


def small_config(**overrides):
    """A desk-scale scenario that runs in well under a second."""
    cfg = load_config("default-attack")
    cfg.mix.n_benign = 60
    cfg.mix.n_random_bot = 4
    cfg.mix.n_trained_bot = 3
    cfg.horizon_days = 2
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def one_ip_max_window(times, window_ms):
    """The busiest-window click count ``run_detection`` reports for one
    agent on one IP clicking one real ad at each of ``times``."""
    events = []
    for page_id, t in enumerate(times):
        for etype in (EventType.IMPRESSION, EventType.CLICK):
            events.append(Event(t, etype, "u", "10.0.0.1", page_id, "ad", AdKind.REAL, 0))
    catalog = {"ad": (AdKind.REAL, basis_vector(16, 0))}
    reports = run_detection(events, DetectorConfig(window_ms=window_ms), catalog)
    return reports["u"].max_window_clicks if reports else 0


# -- references for fast paths in the program -----------------------------------


def weighted_index(rng, weights) -> int:
    """Index drawn proportionally to the given non-negative weights, from one
    ``rng.random()`` draw, summing the weights on every call: the reference
    for ``traffic._hour_draw``."""
    total = 0.0
    for w in weights:
        if w < 0:
            raise ValueError("weights must be non-negative")
        total += w
    if total <= 0.0:
        raise ValueError("weights must not all be zero")
    x = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if x < acc:
            return i
    return len(weights) - 1


def per_advertiser_day(ledger) -> dict:
    """Map (advertiser_id, day_index) -> total charged that day."""
    out: dict = {}
    for e in ledger.entries:
        key = (e.advertiser_id, e.t // MS_PER_DAY)
        out[key] = out.get(key, 0) + e.amount_micros
    return out


def mean_slate_rank(events, ad_ids, exclude_agents=None) -> float:
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


class ReferenceEvidenceScan:
    """The reference for ``detection.EvidenceScan``, fed and read the same
    way: every event looks up its agent's ledger, made at the agent's first
    event, and sets its IP; every click is classified with
    ``classify_decoy_click`` and adds every coordinate of a real ad's
    content.  ``blacklist_adds`` counts its ``Blacklist.add`` calls."""

    def __init__(self, cfg, catalog, ip_regions, reference):
        self.cfg = cfg
        self.catalog = catalog
        self.ip_regions = ip_regions
        self.n_regions = len(reference.regions)
        self.ledgers = {}
        self.ip_windows = {}
        self.ip_max = {}
        self.blacklist = Blacklist(cfg.blacklist_ttl_ms)
        self.blacklist_adds = 0
        self.t_end = 0

    def feed(self, events) -> None:
        cfg = self.cfg
        for t, etype, agent_id, ip, _, ad_id, _, _ in events:
            self.t_end = t
            led = self.ledgers.get(agent_id)
            if led is None:
                led = self.ledgers[agent_id] = AgentEvidence(ip=ip, region_counts=[0] * self.n_regions)
            led.ip = ip
            if etype is not EventType.CLICK:
                continue

            win = self.ip_windows.setdefault(ip, deque())
            win.append(t)
            while win[0] <= t - cfg.window_ms:
                win.popleft()
            self.ip_max[ip] = max(self.ip_max.get(ip, 0), len(win))
            if len(win) > cfg.click_cap:
                self.blacklist.add(ip, t)
                self.blacklist_adds += 1

            if ad_id not in self.catalog:
                raise ValueError(f"clicked ad_id {ad_id} not present in catalog")
            ad_kind, content = self.catalog[ad_id]
            if classify_decoy_click(ad_kind, content, led.observed_profile(), led.real_clicks, cfg):
                led.decoy_clicks += 1
            led.total_clicks += 1
            if ad_kind is AdKind.REAL:
                if led.real_content_sum is None:
                    led.real_content_sum = [0.0] * len(content)
                for i, x in enumerate(content):
                    led.real_content_sum[i] += x
                led.real_clicks += 1
            led.hour_counts[(t // MS_PER_HOUR) % HOURS] += 1
            region = self.ip_regions.get(ip, 0) if self.ip_regions else 0
            if region >= self.n_regions:
                raise ValueError(f"region {region} outside reference distribution")
            led.region_counts[region] += 1

    def evidence(self) -> Evidence:
        blacklisted = frozenset(ip for ip in self.ip_max if self.blacklist.check(ip, self.t_end))
        return Evidence(self.ledgers, self.ip_max, blacklisted, accumulation_settings(self.cfg), self.blacklist_adds)


@pytest.fixture(scope="session")
def default_runs():
    """Criterion-5 scenario, seeds 0..9; shared by several acceptance tests."""
    runs = {}
    for seed in range(10):
        cfg = load_config("default-attack")
        cfg.seed = seed
        runs[seed] = run_scenario(cfg)
    return runs


@pytest.fixture(scope="session")
def dictionary_runs():
    """Criterion-6 scenario (dictionary bots + harvesters), seeds 0..9."""
    runs = {}
    for seed in range(10):
        cfg = load_config("dictionary-attack")
        cfg.seed = seed
        runs[seed] = run_scenario(cfg)
    return runs
