"""Broker-side fraud pipeline: decoy hypothesis test, IP window scan,
blacklist, click-origin profile matching, and verdict fusion.

The detector consumes the event stream plus broker-side knowledge only: the
ad catalog (which ads are decoys, what their content is) and IP geolocation.
Ground-truth agent kinds travel in a separate artifact this module never
ingests, so label leakage is impossible by construction.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

from .broker import ConfigError
from .domain import (
    MS_PER_DAY,
    MS_PER_HOUR,
    AdKind,
    EventType,
    event_sort_key,
    in_event_order,
    relevance,
    validate_event_stream,
)

HOURS = 24


@dataclass
class DetectorConfig:
    """All free parameters of the fused detector.

    ``p0`` is the null-hypothesis probability that a benign click lands on a
    decoy.  It is a calibration value: scripts/calibrate_detector.py measures
    the empirical benign decoy-click rate on a benign-only run and the
    default is set above that rate.
    """

    p0: float = 0.02
    pvalue_threshold: float = 1e-4  # decoy test p-value at which s_bluff hits 1
    min_clicks: int = 5  # evidence gate for the decoy and profile scores
    window_ms: int = 60_000  # sliding window for the per-IP click scan
    click_cap: int = 10  # window click count above which an IP is suspicious
    blacklist_ttl_ms: int = 7 * MS_PER_DAY
    divergence_threshold: float = 0.05  # profile divergence at which s_profile saturates half-scale
    mismatch_epsilon: float = 0.2  # profile/content relevance below which a decoy click counts
    w_bluff: float = 0.6
    w_thresh: float = 0.25
    w_profile: float = 0.15
    fusion_threshold: float = 0.5

    def validate(self) -> None:
        if not 0.0 < self.p0 < 1.0:
            raise ConfigError(f"detector.p0 must be in (0, 1), got {self.p0}")
        if not 0.0 < self.pvalue_threshold < 1.0:
            raise ConfigError("detector.pvalue_threshold must be in (0, 1)")
        if self.min_clicks < 1:
            raise ConfigError("detector.min_clicks must be >= 1")
        if self.window_ms <= 0 or self.click_cap < 1 or self.blacklist_ttl_ms <= 0:
            raise ConfigError("detector: window_ms, click_cap, blacklist_ttl_ms must be positive")
        if self.divergence_threshold <= 0:
            raise ConfigError("detector.divergence_threshold must be positive")
        if not 0.0 <= self.mismatch_epsilon <= 1.0:
            raise ConfigError("detector.mismatch_epsilon must be in [0, 1]")
        w = (self.w_bluff, self.w_thresh, self.w_profile)
        if any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
            raise ConfigError("detector: fusion weights must be non-negative and sum to 1")
        if not 0.0 <= self.fusion_threshold <= 1.0:
            raise ConfigError("detector.fusion_threshold must be in [0, 1]")


def binom_tail_pvalue(k: int, n: int, p0: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p0).

    Direct pmf summation for n <= 50; log-space accumulation (log-sum-exp
    over log pmf terms) beyond that, where naive products would underflow.
    """
    if not 0 <= k <= n:
        raise ValueError(f"require 0 <= k <= n, got k={k}, n={n}")
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"require p0 in (0, 1), got {p0}")
    if k == 0:
        return 1.0
    if n <= 50:
        q0 = 1.0 - p0
        total = 0.0
        for j in range(k, n + 1):
            total += math.comb(n, j) * p0**j * q0 ** (n - j)
        return min(1.0, total)
    log_p = math.log(p0)
    log_q = math.log1p(-p0)
    lg_n1 = math.lgamma(n + 1)
    log_terms = [
        lg_n1 - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * log_p + (n - j) * log_q
        for j in range(k, n + 1)
    ]
    m = max(log_terms)
    s = sum(math.exp(t - m) for t in log_terms)
    return min(1.0, math.exp(m + math.log(s)))


def jensen_shannon(p, q) -> float:
    """Jensen-Shannon divergence with base-2 logs; bounded in [0, 1].

    Symmetric and finite even on disjoint supports, which is why it is used
    here instead of KL.
    """
    if len(p) != len(q):
        raise ValueError("distributions must have equal length")

    def kl(a, b):
        acc = 0.0
        for x, y in zip(a, b):
            if x > 0.0:
                acc += x * math.log2(x / y)
        return acc

    m = [(x + y) / 2.0 for x, y in zip(p, q)]
    return max(0.0, 0.5 * kl(p, m) + 0.5 * kl(q, m))


@dataclass(frozen=True)
class ReferenceProfile:
    """The operator's model of benign traffic: hour-of-day and region
    distributions (each sums to 1)."""

    hours: tuple
    regions: tuple

    def __post_init__(self):
        for name, dist in (("hours", self.hours), ("regions", self.regions)):
            if abs(sum(dist) - 1.0) > 1e-9:
                raise ValueError(f"reference {name} distribution must sum to 1")
        if len(self.hours) != HOURS:
            raise ValueError("reference hours distribution must have 24 bins")

    @classmethod
    def from_config(cls, diurnal, region_count: int) -> "ReferenceProfile":
        total = float(sum(diurnal))
        hours = tuple(w / total for w in diurnal)
        regions = tuple(1.0 / region_count for _ in range(region_count))
        return cls(hours=hours, regions=regions)


class Blacklist:
    """IP blacklist with TTL; re-adding extends, expiry is exclusive."""

    def __init__(self, ttl_ms: int):
        self.ttl_ms = ttl_ms
        self._expiry: dict[str, int] = {}

    def add(self, ip: str, t: int) -> None:
        new_expiry = t + self.ttl_ms
        old = self._expiry.get(ip)
        self._expiry[ip] = new_expiry if old is None else max(old, new_expiry)

    def check(self, ip: str, t: int) -> bool:
        expiry = self._expiry.get(ip)
        return expiry is not None and expiry > t


def classify_decoy_click(
    ad_kind: AdKind,
    content,
    observed_profile,
    supporting_clicks: int,
    cfg: DetectorConfig,
) -> bool:
    """Does this click count as a decoy click in the agent's ledger?

    Profile-targeted decoys always count; real ads never do.  A click on an
    untargeted specialized decoy is presumed a decoy click unless the agent
    has an established history of at least ``min_clicks`` real-ad clicks
    whose mean content matches the decoy's topic (relevance >=
    ``mismatch_epsilon``).  The consistency baseline is built from real-ad
    clicks only: decoy clicks must not be able to vouch for later decoy
    clicks, otherwise a bot could launder its own history.
    """
    if ad_kind is AdKind.BLUFF_A:
        return True
    if ad_kind is AdKind.REAL:
        return False
    if supporting_clicks >= cfg.min_clicks and observed_profile is not None:
        if relevance(observed_profile, content) >= cfg.mismatch_epsilon:
            return False
    return True


def threshold_score(count: int, cfg: DetectorConfig) -> float:
    """Score the busiest window: zero at or below the cap, linear above."""
    return min(1.0, max(0.0, (count - cfg.click_cap) / cfg.click_cap))


def score_bluff(total_clicks: int, decoy_clicks: int, cfg: DetectorConfig) -> tuple:
    """Decoy hypothesis test score and its p-value.

    Log-linear ramp: s = log(p)/log(tau_b), clamped to [0, 1], so the score
    hits exactly 1 at p = tau_b and 0.5 at p = sqrt(tau_b).  Below the
    evidence gate the score is 0.
    """
    if total_clicks < cfg.min_clicks:
        return 0.0, 1.0
    p = binom_tail_pvalue(decoy_clicks, total_clicks, cfg.p0)
    if p >= 1.0:
        return 0.0, 1.0
    if p <= 0.0:
        return 1.0, 0.0
    s = math.log(p) / math.log(cfg.pvalue_threshold)
    return min(1.0, max(0.0, s)), p


def profile_divergence(hour_counts, region_counts, n_clicks: int, ref: ReferenceProfile, cfg: DetectorConfig) -> tuple:
    """Score timing/origin mismatch against the benign reference.

    Empirical distributions get add-one smoothing; divergence is the mean of
    the hour and region Jensen-Shannon divergences; the score ramps linearly
    and saturates at twice the divergence threshold.
    """
    if n_clicks < cfg.min_clicks:
        return 0.0, 0.0
    nh = len(hour_counts)
    nr = len(region_counts)
    p_hours = [(c + 1) / (n_clicks + nh) for c in hour_counts]
    p_regions = [(c + 1) / (n_clicks + nr) for c in region_counts]
    div = 0.5 * (jensen_shannon(p_hours, ref.hours) + jensen_shannon(p_regions, ref.regions))
    s = min(1.0, div / (2.0 * cfg.divergence_threshold))
    return s, div


def fuse(s_bluff: float, s_thresh: float, s_profile: float, cfg: DetectorConfig, blacklisted: bool = False) -> tuple:
    """Convex combination of the sub-scores; a blacklisted IP forces the
    flag regardless of the fused score."""
    fused = cfg.w_bluff * s_bluff + cfg.w_thresh * s_thresh + cfg.w_profile * s_profile
    flagged = blacklisted or fused >= cfg.fusion_threshold
    return fused, flagged


@dataclass
class SuspicionReport:
    agent_id: str
    s_bluff: float
    s_thresh: float
    s_profile: float
    fused: float
    flagged: bool
    p_value: float
    max_window_clicks: int
    divergence: float
    # Evidence detail, not part of the verdict file schema: whether the
    # agent's IP was on the blacklist at stream end (forces the flag), and
    # the click tally the decoy test ran on.
    blacklisted: bool = False
    total_clicks: int = 0
    decoy_clicks: int = 0


# The detector fields that shape the evidence of one scan.  The scoring reads
# two of them again: ``min_clicks`` gates the decoy and profile scores, and
# ``click_cap`` scales the window threshold score.
ACCUMULATION_FIELDS = ("window_ms", "click_cap", "blacklist_ttl_ms", "min_clicks", "mismatch_epsilon")
# The detector fields the fuse step reads, and no sub-score does.
FUSION_FIELDS = ("w_bluff", "w_thresh", "w_profile", "fusion_threshold")
# Every other field may shape an agent's sub-scores.  Taken from the config's
# own fields, so a field added later keys the sub-scores unless it is named in
# ``FUSION_FIELDS``, and sub-scores are never shared across its values.
SCORING_FIELDS = tuple(f.name for f in fields(DetectorConfig) if f.name not in FUSION_FIELDS)


def accumulation_settings(cfg: DetectorConfig) -> tuple:
    """The values of ``ACCUMULATION_FIELDS`` in ``cfg``, in that order."""
    return tuple(getattr(cfg, name) for name in ACCUMULATION_FIELDS)


def scoring_settings(cfg: DetectorConfig) -> tuple:
    """The values of ``SCORING_FIELDS`` in ``cfg``, in that order: configs
    that agree on them give every agent the same sub-scores."""
    return tuple(getattr(cfg, name) for name in SCORING_FIELDS)


@dataclass
class AgentEvidence:
    """One agent's click tallies after a scan of the stream.

    ``EvidenceScan`` makes one at an agent's first click, or in ``evidence``
    for an agent that never clicked, and sets ``ip`` only in ``evidence``.
    ``real_content_sum`` is None until the first real-ad click; it then sums
    the content of every real ad the agent clicked, coordinate by
    coordinate.
    """

    ip: str = ""  # the agent's IP at its last event
    total_clicks: int = 0
    decoy_clicks: int = 0
    real_clicks: int = 0
    real_content_sum: Optional[list] = None
    hour_counts: list = field(default_factory=lambda: [0] * HOURS)
    region_counts: Optional[list] = None

    def observed_profile(self):
        if self.real_clicks == 0 or self.real_content_sum is None:
            return None
        return tuple(x / self.real_clicks for x in self.real_content_sum)


@dataclass
class Evidence:
    """What one scan of an event stream found, before any scoring.

    ``agents`` is in order of each agent's first event; ``window_max`` holds
    each clicking IP's busiest-window count and ``blacklisted`` the IPs still
    on the blacklist at stream end.  ``settings`` records the
    ``accumulation_settings`` the scan ran with, and ``blacklist_adds`` how
    many times the scan added an IP to its blacklist (once per click that
    took its IP's window over the cap).
    """

    agents: dict
    window_max: dict
    blacklisted: frozenset
    settings: tuple
    blacklist_adds: int = 0


def _raise_on_violations(violations: list) -> None:
    """Raise ``ValueError`` naming the first of ``violations``, if any."""
    if violations:
        first = violations[0]
        raise ValueError(
            f"event stream failed validation ({len(violations)} violations; "
            f"first at index {first.index}: {first.reason})"
        )


class EvidenceScan:
    """Per-agent and per-IP evidence of one checked stream, fed in
    ``event_sort_key`` order in pieces; ``evidence`` returns what the events
    fed so far show, as if the stream ended at the last of them.  Feeding
    may go on after ``evidence``; read each ``Evidence`` before feeding more,
    since it shares its tallies with the scan.

    An impression only records its agent's IP.  A click adds to its IP's
    sliding window: IPs whose window click count exceeds the cap are added
    to the blacklist as the stream is scanned (the continually-updated
    list).  A decoy click is classified with ``classify_decoy_click``; a
    real-ad click never counts as a decoy click, and adds the ad's nonzero
    content coordinates to the agent's ``real_content_sum``.  Skipping the
    zeros is exact: each sum starts at +0.0 and so never becomes -0.0, and
    adding a zero of either sign leaves any other float unchanged.  Region
    counts get one bin per region of ``reference``.
    """

    def __init__(
        self,
        cfg: DetectorConfig,
        catalog: dict,
        ip_regions: Optional[dict],
        reference: ReferenceProfile,
    ):
        cfg.validate()
        self._cfg = cfg
        self._catalog = catalog
        self._ip_regions = ip_regions
        self._n_regions = len(reference.regions)
        self._last_ip: dict[str, str] = {}  # agent_id -> IP, in first-event order
        self._ledgers: dict[str, AgentEvidence] = {}  # agent_id -> evidence, made at the first click
        self._nonzero: dict[str, list] = {}  # real ad_id -> [(coordinate, value)] of its nonzero content
        self._ip_windows: dict[str, deque] = {}
        self._ip_max: dict[str, int] = {}
        self._blacklist = Blacklist(cfg.blacklist_ttl_ms)
        self._blacklist_adds = 0
        self._t_end = 0

    def feed(self, events) -> None:
        cfg = self._cfg
        catalog = self._catalog
        ip_regions = self._ip_regions
        n_regions = self._n_regions
        window_ms = cfg.window_ms
        click_cap = cfg.click_cap
        min_clicks = cfg.min_clicks
        click = EventType.CLICK
        real = AdKind.REAL
        bluff_b = AdKind.BLUFF_B
        last_ip = self._last_ip
        ledgers = self._ledgers
        nonzero = self._nonzero
        ip_windows = self._ip_windows
        ip_max = self._ip_max
        blacklist = self._blacklist
        t = self._t_end

        for t, etype, agent_id, ip, _, ad_id, _, _ in events:
            last_ip[agent_id] = ip
            if etype is not click:
                continue
            led = ledgers.get(agent_id)
            if led is None:
                led = ledgers[agent_id] = AgentEvidence(region_counts=[0] * n_regions)

            win = ip_windows.get(ip)
            if win is None:
                win = ip_windows[ip] = deque()
            win.append(t)
            while win[0] <= t - window_ms:
                win.popleft()
            count = len(win)
            if count > ip_max.get(ip, 0):
                ip_max[ip] = count
            if count > click_cap:
                blacklist.add(ip, t)
                self._blacklist_adds += 1

            entry = catalog.get(ad_id)
            if entry is None:
                raise ValueError(f"clicked ad_id {ad_id} not present in catalog")
            ad_kind, content = entry
            if ad_kind is real:
                pairs = nonzero.get(ad_id)
                if pairs is None:
                    pairs = nonzero[ad_id] = [(i, x) for i, x in enumerate(content) if x != 0.0]
                sums = led.real_content_sum
                if sums is None:
                    sums = led.real_content_sum = [0.0] * len(content)
                for i, x in pairs:
                    sums[i] += x
                led.real_clicks += 1
            else:
                # Only a BLUFF_B click past the evidence gate reads the
                # observed profile; skip building it for every other click.
                if ad_kind is bluff_b and led.real_clicks >= min_clicks:
                    observed = led.observed_profile()
                else:
                    observed = None
                if classify_decoy_click(ad_kind, content, observed, led.real_clicks, cfg):
                    led.decoy_clicks += 1
            led.total_clicks += 1
            led.hour_counts[(t // MS_PER_HOUR) % HOURS] += 1
            region = ip_regions.get(ip, 0) if ip_regions else 0
            if region >= n_regions:
                raise ValueError(f"region {region} outside reference distribution")
            led.region_counts[region] += 1
        self._t_end = t

    def evidence(self) -> Evidence:
        """The ``Evidence`` of the events fed so far.  Agents that have not
        clicked get an empty ``AgentEvidence``; every agent's ``ip`` is set
        to its IP at its last event."""
        ledgers = self._ledgers
        agents = {}
        for agent_id, ip in self._last_ip.items():
            led = ledgers.get(agent_id)
            if led is None:
                led = ledgers[agent_id] = AgentEvidence(region_counts=[0] * self._n_regions)
            led.ip = ip
            agents[agent_id] = led
        blacklisted = frozenset(ip for ip in self._ip_max if self._blacklist.check(ip, self._t_end))
        settings = accumulation_settings(self._cfg)
        return Evidence(agents, self._ip_max, blacklisted, settings, self._blacklist_adds)


class SubScores(NamedTuple):
    """One agent's sub-scores before fusion, with the evidence they rest on."""

    s_bluff: float
    s_thresh: float
    s_profile: float
    p_value: float
    max_window_clicks: int
    divergence: float
    blacklisted: bool
    total_clicks: int
    decoy_clicks: int


def sub_scores(evidence: Evidence, cfg: DetectorConfig, reference: ReferenceProfile) -> dict:
    """Score every agent of ``evidence`` with the decoy test, the window
    threshold and the profile divergence; agent_id -> ``SubScores``.

    Reads every detector field but ``FUSION_FIELDS``.  Raises ``ValueError``
    when ``cfg``'s accumulation settings differ from those the evidence was
    built with, since the scan would have come out differently.
    """
    cfg.validate()
    settings = accumulation_settings(cfg)
    if settings != evidence.settings:
        stale = [
            f"{name}={built!r} (config has {now!r})"
            for name, built, now in zip(ACCUMULATION_FIELDS, evidence.settings, settings)
            if built != now
        ]
        raise ValueError("evidence was accumulated with other detector settings: " + ", ".join(stale))
    scores: dict[str, SubScores] = {}
    for agent_id, led in evidence.agents.items():
        s_b, p_value = score_bluff(led.total_clicks, led.decoy_clicks, cfg)
        c = evidence.window_max.get(led.ip, 0)
        s_p, div = profile_divergence(
            led.hour_counts, led.region_counts, led.total_clicks, reference, cfg
        )
        scores[agent_id] = SubScores(
            s_b, threshold_score(c, cfg), s_p, p_value, c, div,
            led.ip in evidence.blacklisted, led.total_clicks, led.decoy_clicks,
        )
    return scores


def fuse_scores(scores: dict, cfg: DetectorConfig) -> dict:
    """Fuse each agent's ``SubScores`` into a verdict with the fusion weights
    and threshold of ``cfg``; agent_id -> ``SuspicionReport``.  Reads only
    ``FUSION_FIELDS``.  Agents on a still-active blacklist entry at stream
    end are flagged regardless of their fused score."""
    reports: dict[str, SuspicionReport] = {}
    for agent_id, (s_b, s_t, s_p, p_value, c, div, blacklisted, total, decoys) in scores.items():
        fused, flagged = fuse(s_b, s_t, s_p, cfg, blacklisted=blacklisted)
        reports[agent_id] = SuspicionReport(
            agent_id, s_b, s_t, s_p, fused, flagged, p_value, c, div, blacklisted, total, decoys
        )
    return reports


def score_evidence(evidence: Evidence, cfg: DetectorConfig, reference: ReferenceProfile) -> dict:
    """Score every agent of ``evidence`` and fuse the scores into verdicts:
    ``fuse_scores`` of ``sub_scores``, so it raises ``ValueError`` as
    ``sub_scores`` does.  A caller scoring one evidence under several fusion
    settings can take ``sub_scores`` once and fuse it per setting."""
    return fuse_scores(sub_scores(evidence, cfg, reference), cfg)


def run_detection(
    events,
    cfg: DetectorConfig,
    catalog: dict,
    ip_regions: Optional[dict] = None,
    reference: Optional[ReferenceProfile] = None,
) -> dict:
    """Check the event stream, scan it once with ``EvidenceScan``, then
    score each agent with ``score_evidence``; raises ``ValueError`` naming
    the first violation ``validate_event_stream`` finds.

    The stream is sorted into ``event_sort_key`` order only when it is out
    of order, into a new list; the caller's list is never modified.
    ``catalog`` maps ad_id -> (AdKind, content vector); it is the broker's
    own inventory knowledge.  ``ip_regions`` maps IP -> region bucket
    (broker-side geolocation).  Without a ``reference``, the benign model is
    flat over the hours and over the regions ``ip_regions`` names.  Pure
    function of its inputs; ground-truth agent kinds are deliberately not an
    input.
    """
    if reference is None:
        region_count = (max(ip_regions.values()) + 1) if ip_regions else 1
        reference = ReferenceProfile.from_config((1.0,) * HOURS, region_count)
    if not isinstance(events, Sequence):
        events = list(events)  # the order check must not consume an iterator
    if not in_event_order(events):
        events = sorted(events, key=event_sort_key)
    _raise_on_violations(validate_event_stream(events))
    scan = EvidenceScan(cfg, catalog, ip_regions, reference)
    scan.feed(events)
    return score_evidence(scan.evidence(), cfg, reference)
