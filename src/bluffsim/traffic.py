"""Traffic generation: populations, sessions, click decisions, events.

One scenario run is single-threaded and fully deterministic.  Every agent
draws from its own RNG substream derived from (seed, stream, agent index),
so adding or removing a cohort never perturbs the traffic of the agents that
remain -- paired-run experiments (for example adding a view-fraud cohort)
compare like with like.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Optional

from .broker import Broker
from .domain import (
    MAX_DWELL_MS,
    MS_PER_DAY,
    MS_PER_HOUR,
    AdKind,
    Agent,
    AgentKind,
    ConfigError,
    Event,
    EventType,
    RelevanceCache,
    TopicVector,
    event_sort_key,
)
from .rng import (
    STREAM_INJECTION,
    STREAM_POPULATION,
    STREAM_TRAFFIC,
    SplitMix64,
)

MAX_BENIGN = 1 << 24  # 10.x.y.z, one address per benign user
MAX_BOT_IP_GROUPS = 1 << 20  # 172.16.0.0/12, one address per bot IP group
# Pages one agent may view in a run.  Page ids (stride 10^6 per agent) and
# injection streams (stride 2^20 per agent) would alias the next agent's
# beyond this.
MAX_PAGES_PER_AGENT = 1_000_000
_AD_ID = itemgetter(5)  # Event.ad_id


@dataclass
class BehaviorParams:
    """Click and browsing behavior knobs shared by a scenario.

    ``accidental_rate`` is the floor probability with which a benign user
    clicks an ad utterly unrelated to their interests; real users misclick,
    which is what keeps the decoy hypothesis test honest.
    """

    base_ctr: float = 0.05  # benign click probability at relevance 1
    accidental_rate: float = 0.002  # benign floor (misclicks), alpha
    bot_click_rate: float = 0.3  # per-ad click probability for clicking bots
    dictionary_skill: float = 0.9  # P(dictionary bot recognizes a bluff_a ad)
    harvest_threshold: float = 0.5  # harvester clicks content at least this relevant
    sessions_per_day: float = 2.0  # benign browsing rate
    pages_per_session: int = 3
    bot_sessions_per_day: float = 15.0  # clicking-bot browsing rate
    harvester_sessions_per_day: float = 30.0  # harvesters crawl aggressively
    page_gap_ms: float = 30_000.0  # mean gap between pages within a session

    def validate(self) -> None:
        for name in ("base_ctr", "accidental_rate", "bot_click_rate", "dictionary_skill", "harvest_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"behavior.{name} must be in [0, 1], got {v}")
        if self.accidental_rate >= self.base_ctr:
            raise ConfigError("behavior.accidental_rate must be below behavior.base_ctr")
        for name in ("sessions_per_day", "bot_sessions_per_day", "harvester_sessions_per_day", "page_gap_ms"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"behavior.{name} must be positive")
        if self.pages_per_session < 1:
            raise ConfigError("behavior.pages_per_session must be >= 1")


# Cohorts in id order, and the mix field that sizes each.  View bots come
# last so that adding a view-fraud cohort to an existing scenario leaves
# every other agent's id unchanged.
_COHORT_ORDER = (
    (AgentKind.BENIGN, "n_benign"),
    (AgentKind.RANDOM_BOT, "n_random_bot"),
    (AgentKind.TRAINED_BOT, "n_trained_bot"),
    (AgentKind.DICTIONARY_BOT, "n_dictionary_bot"),
    (AgentKind.PROFILE_HARVESTER, "n_profile_harvester"),
    (AgentKind.VIEW_BOT, "n_view_bot"),
)


@dataclass
class TrafficMix:
    """Population sizes plus the topic geometry personas are drawn from.

    Benign interests live on the mainstream topics; clicking bots fake
    personas on the attacked verticals (a budget-depletion botnet poses as
    the victim's audience); harvesters chase a niche no campaign serves.
    """

    n_benign: int = 1000
    n_random_bot: int = 30
    n_trained_bot: int = 20
    n_dictionary_bot: int = 0
    n_profile_harvester: int = 0
    n_view_bot: int = 0
    ip_sharing_factor: int = 2  # bots per IP within a cohort
    region_count: int = 1
    benign_topics: int = 10  # benign personas mix two of topics [0, n)
    attack_topics: tuple[int, int] = (10, 12)  # half-open topic range for bot personas
    harvest_topics: tuple[int, int] = (12, 16)  # half-open topic range for harvesters
    view_bot_target: Optional[str] = None  # advertiser whose audience view bots fake

    def total(self) -> int:
        return sum(getattr(self, name) for _, name in _COHORT_ORDER)

    def validate(self, topic_dim: int) -> None:
        """Raise ``ConfigError`` unless the mix is a valid population whose
        topic ranges lie within ``topic_dim`` topics."""
        for _, name in _COHORT_ORDER:
            if getattr(self, name) < 0:
                raise ConfigError(f"mix.{name} must be non-negative")
        if self.total() <= 0:
            raise ConfigError("mix: total population must be positive")
        if self.ip_sharing_factor < 1:
            raise ConfigError("mix.ip_sharing_factor must be >= 1")
        # Beyond these address spaces, unrelated agents would share an IP.
        if self.n_benign > MAX_BENIGN:
            raise ConfigError(f"mix.n_benign exceeds the {MAX_BENIGN} addresses of 10.0.0.0/8")
        bot_groups = -(-(self.total() - self.n_benign) // self.ip_sharing_factor)
        if bot_groups > MAX_BOT_IP_GROUPS:
            raise ConfigError(
                f"mix: {bot_groups} bot IP groups exceed the {MAX_BOT_IP_GROUPS} "
                "addresses of 172.16.0.0/12; raise ip_sharing_factor or shrink the bot cohorts"
            )
        if self.region_count < 1:
            raise ConfigError("mix.region_count must be >= 1")
        if self.benign_topics < 2:
            raise ConfigError("mix.benign_topics must be >= 2")
        for name in ("attack_topics", "harvest_topics"):
            lo, hi = getattr(self, name)
            if not 0 <= lo < hi:
                raise ConfigError(f"mix.{name} must be a non-empty (lo, hi) range")
        if self.benign_topics > topic_dim:
            raise ConfigError(f"mix.benign_topics exceeds topic_dim {topic_dim}")
        for name in ("attack_topics", "harvest_topics"):
            lo, hi = getattr(self, name)
            if hi > topic_dim:
                raise ConfigError(f"mix.{name} ({lo}, {hi}) exceeds topic_dim {topic_dim}")

_MIMIC_KINDS = frozenset({AgentKind.BENIGN, AgentKind.TRAINED_BOT, AgentKind.DICTIONARY_BOT})


def _spread_profile(dim: int, dominant: dict, spread_mass: float) -> TopicVector:
    base = spread_mass / dim
    vec = [base] * dim
    for topic, mass in dominant.items():
        vec[topic] += mass
    return tuple(vec)


def build_population(
    mix: TrafficMix,
    topic_dim: int,
    seed: int,
    campaign_targeting: Optional[dict] = None,
) -> tuple:
    """Construct the agent roster and the IP -> region map.

    Benign users get unique IPs; bot cohorts share IPs in groups of
    ``ip_sharing_factor`` (NAT / botnet co-location).  View bots fake the
    audience of ``view_bot_target`` (default: first campaign) so their
    impressions land on that campaign.
    """
    mix.validate(topic_dim)

    agents: list[Agent] = []
    ip_regions: dict[str, int] = {}
    index = 0
    bot_ip_serial = 0

    def region_for(ip: str, rng: SplitMix64) -> None:
        if ip not in ip_regions:
            ip_regions[ip] = rng.randrange(mix.region_count) if mix.region_count > 1 else 0

    view_target_vec = None
    if campaign_targeting:
        if mix.view_bot_target is not None:
            if mix.view_bot_target not in campaign_targeting:
                raise ConfigError(f"mix.view_bot_target {mix.view_bot_target!r} not in campaigns")
            view_target_vec = campaign_targeting[mix.view_bot_target]
        else:
            view_target_vec = next(iter(campaign_targeting.values()))
    if mix.n_view_bot > 0 and view_target_vec is None:
        raise ConfigError("view bots require at least one campaign to target")

    for kind, attr in _COHORT_ORDER:
        count = getattr(mix, attr)
        for i in range(count):
            rng = SplitMix64.for_stream(seed, STREAM_POPULATION, instance=index)
            if kind is AgentKind.BENIGN:
                a = rng.randrange(mix.benign_topics)
                b = rng.randrange(mix.benign_topics - 1)
                if b >= a:
                    b += 1
                profile = _spread_profile(topic_dim, {a: 0.6, b: 0.3}, 0.1)
                ip = f"10.{(index >> 16) & 0xFF}.{(index >> 8) & 0xFF}.{index & 0xFF}"
            else:
                if kind is AgentKind.PROFILE_HARVESTER:
                    # Mostly mass on the harvested niche plus a whisper of
                    # spread: slates must still fill (zero-relevance users
                    # get no ads at all, hence no decoy exposure).
                    lo, hi = mix.harvest_topics
                    span = hi - lo
                    profile = _spread_profile(
                        topic_dim, {t: 0.98 / span for t in range(lo, hi)}, 0.02
                    )
                elif kind is AgentKind.VIEW_BOT:
                    profile = view_target_vec
                else:
                    # Clicking bots pose narrowly as the attacked vertical's
                    # audience.  The off-vertical spread is kept tiny so that
                    # no mainstream ad can outscore the attacked campaigns in
                    # a bot's slate even at a cold-start quality of 1.0
                    # (otherwise bots bleed spend onto high-bid campaigns
                    # whenever early quality estimates are lucky).
                    lo, hi = mix.attack_topics
                    span = hi - lo
                    if span == 1:
                        profile = _spread_profile(topic_dim, {lo: 0.98}, 0.02)
                    else:
                        a_off = rng.randrange(span)
                        b_off = rng.randrange(span - 1)
                        if b_off >= a_off:
                            b_off += 1
                        profile = _spread_profile(
                            topic_dim, {lo + a_off: 0.49, lo + b_off: 0.49}, 0.02
                        )
                group = bot_ip_serial // mix.ip_sharing_factor
                ip = f"172.{16 + (group >> 16)}.{(group >> 8) & 0xFF}.{group & 0xFF}"
                bot_ip_serial += 1
            region_for(ip, rng)
            agents.append(Agent(agent_id=f"u{index:06d}", kind=kind, profile=profile, ip=ip, index=index))
            index += 1
    return agents, ip_regions


def decide_clicks(
    agent: Agent,
    served: list,
    behavior: BehaviorParams,
    rng: SplitMix64,
    rel: RelevanceCache,
) -> list:
    """The slots of the served slate this agent clicks, in slot order.

    Benign users click by content relevance to their true interests, with a
    probability affine in it: ``accidental_rate`` at relevance 0 (misclicks),
    ``base_ctr`` at relevance 1.  Random and trained bots click every ad at
    the bot rate.  Dictionary bots do the same but recognize (and skip) a
    profile-targeted decoy with probability ``dictionary_skill``; specialized
    untargeted decoys read like real ads to a dictionary lookup, so they get
    no such treatment.  Harvesters click, at the bot rate, the ads whose
    content matches their persona at or above the harvest threshold.  View
    bots never click.

    The kind is tested once; the draws are one per slot, plus a skill draw on
    a dictionary bot's ``BLUFF_A`` slots (taken first) and none on a
    harvester's slots below the threshold.
    """
    kind = agent.kind
    random = rng.random
    if kind is AgentKind.BENIGN:
        floor = behavior.accidental_rate
        slope = behavior.base_ctr - floor
        content_rel = rel.content_relevance(agent.profile, served)
        return [slot for slot, r in enumerate(content_rel) if random() < floor + slope * r]
    if kind is AgentKind.RANDOM_BOT or kind is AgentKind.TRAINED_BOT:
        rate = behavior.bot_click_rate
        return [slot for slot in range(len(served)) if random() < rate]
    if kind is AgentKind.DICTIONARY_BOT:
        rate = behavior.bot_click_rate
        clicked = []
        for slot, ad in enumerate(served):
            p = rate
            if ad.kind is AdKind.BLUFF_A and random() < behavior.dictionary_skill:
                p = behavior.accidental_rate
            if random() < p:
                clicked.append(slot)
        return clicked
    if kind is AgentKind.PROFILE_HARVESTER:
        rate = behavior.bot_click_rate
        threshold = behavior.harvest_threshold
        content_rel = rel.content_relevance(agent.profile, served)
        return [slot for slot, r in enumerate(content_rel) if r >= threshold and random() < rate]
    if kind is AgentKind.VIEW_BOT:
        return []
    raise ValueError(f"unknown agent kind {kind}")


def _session_rate(kind: AgentKind, behavior: BehaviorParams) -> float:
    if kind is AgentKind.BENIGN:
        return behavior.sessions_per_day
    if kind is AgentKind.PROFILE_HARVESTER:
        return behavior.harvester_sessions_per_day
    return behavior.bot_sessions_per_day


def _hour_draw(weights: tuple):
    """``rng ->`` an index drawn proportionally to ``weights``, which are
    non-negative and not all zero, from one ``rng.random()`` draw scaled by
    their total.  The running sums are taken once, not per draw; the index
    is the first whose running sum exceeds the scaled draw, or the last when
    none does.
    """
    cumulative = list(accumulate(weights, initial=0.0))[1:]
    total = cumulative[-1]
    last = len(cumulative) - 1

    def draw(rng: SplitMix64) -> int:
        return min(bisect_right(cumulative, rng.random() * total), last)

    return draw


def _sessions(agents: list, behavior: BehaviorParams, horizon_ms: int, diurnal: tuple, seed: int):
    """Yields (agent, page-view timestamps) for every session over the
    horizon, agent by agent, each agent's sessions by start.

    Benign (and mimicking bot) session starts follow a per-day Poisson count
    placed by the diurnal hour weights; random bots, harvesters and view bots
    arrive uniformly over the horizon.  Pages within a session are spaced by
    exponential gaps, so a session's timestamps strictly increase.  The
    inputs are a validated scenario's; a zero horizon yields nothing.  The
    diurnal weights are summed once per call (see ``_hour_draw``).
    """
    days = horizon_ms // MS_PER_DAY
    draw_hour = _hour_draw(diurnal)
    for agent in agents:
        rng = SplitMix64.for_stream(seed, STREAM_TRAFFIC, instance=agent.index)
        rate = _session_rate(agent.kind, behavior)
        starts: list[int] = []
        if agent.kind in _MIMIC_KINDS:
            for day in range(days):
                n = rng.poisson(rate)
                for _ in range(n):
                    hour = draw_hour(rng)
                    offset = rng.randrange(MS_PER_HOUR)
                    starts.append(day * MS_PER_DAY + hour * MS_PER_HOUR + offset)
        else:
            n = rng.poisson(rate * (horizon_ms / MS_PER_DAY))
            starts = [rng.randrange(horizon_ms) for _ in range(n)]
        starts.sort()
        for start in starts:
            arrivals = [start]
            t = start
            for _ in range(behavior.pages_per_session - 1):
                t += max(1, int(round(rng.expovariate(behavior.page_gap_ms))))
                arrivals.append(t)
            yield agent, tuple(arrivals)


def run_traffic(config, broker: Broker) -> tuple:
    """Drive the serve -> decide -> record loop for a whole scenario.

    Validates ``config`` first, raising ``ConfigError`` naming the field;
    past that the serve path trusts it.  Returns (events in
    ``event_sort_key`` order, truth map agent_id -> AgentKind, ip_regions).
    The events are those ``_serve`` yields, gathered in one list; it raises
    the same ``ConfigError``.
    """
    config.validate()
    truth, ip_regions, batches = _serve(config, broker)
    events: list[Event] = []
    for batch in batches:
        events += batch
    return events, truth, ip_regions


def _serve(config, broker: Broker) -> tuple:
    """The population of a scenario and an iterator over its traffic:
    (truth map agent_id -> AgentKind, ip_regions, batches).

    Iterating ``batches`` runs the serve -> decide -> record loop and yields
    the events in ``event_sort_key`` order, in lists of whole groups of
    equal ``t``, so a consumer can check, scan or write the stream as it is
    made without holding it.  Billing happens in strict timestamp order:
    clicks are queued with their dwell delay and billed before any later
    page is served, so daily budget resets see monotone time and the broker
    can drop pages no click can reach any more.

    ``config`` must be validated (``run_traffic``, ``run`` and ``sweep`` do
    so).  Raises ``ConfigError``, while iterating, when an agent reaches
    ``MAX_PAGES_PER_AGENT`` page views, where its ids would alias another
    agent's.
    """
    campaign_targeting = {c.advertiser_id: c.targeting for c in config.campaigns}
    agents, ip_regions = build_population(config.mix, config.topic_dim, config.seed, campaign_targeting)
    truth = {a.agent_id: a.kind for a in agents}
    return truth, ip_regions, _event_batches(config, broker, agents)


# Events are handed on in batches, at the first group boundary past this
# many: a buffer that does not grow with the run, and few hand-offs.  One
# hand-off per page view made a 5-day default-attack ``run`` about 15%
# slower in CPU time.
_BATCH_EVENTS = 512


def _event_batches(config, broker: Broker, agents: list):
    """The serve loop of ``_serve``: yields lists of events in final order.

    Events are made in units with non-decreasing ``t``: one page's
    impressions, already in ``event_sort_key`` order (ad_id order, slot order
    among repeated ids), or one click.  Units at the same ``t`` gather in a
    group; a group is sorted only when it holds more than one unit, that is
    when a click or another page shares its millisecond.
    """
    behavior = config.behavior
    horizon_ms = config.horizon_days * MS_PER_DAY
    # The page-view schedule in time order, agent index breaking ties, with
    # each page view (t, i) held as the one int t * n + i: a third of the
    # memory of a pair.  ``build_population`` numbers agents by position, so
    # ``agents[i].index == i`` and per-agent state below is a list indexed
    # the same way.
    n = len(agents)
    page_views = sorted(
        t * n + agent.index
        for agent, arrivals in _sessions(agents, behavior, horizon_ms, config.diurnal, config.seed)
        for t in arrivals
    )
    page_counters = [0] * n
    click_rngs = [
        SplitMix64.for_stream(config.seed, STREAM_TRAFFIC, instance=(1 << 32) + a.index) for a in agents
    ]
    impression = EventType.IMPRESSION
    click = EventType.CLICK
    # Builds an Event from a tuple of its fields without the Python-level
    # ``Event.__new__`` call: a run makes one per impression and per click.
    new_event = tuple.__new__

    batch: list[Event] = []  # whole groups, in final order
    group: list[Event] = []  # the units at time group_t, as made
    group_t = None
    tied = False  # whether the group holds more than one unit

    def add(t: int, unit: list) -> None:
        nonlocal group, group_t, tied
        if t == group_t:
            group += unit
            tied = True
            return
        if tied:
            group.sort(key=event_sort_key)
        batch.extend(group)
        group, group_t, tied = unit, t, False

    pending: list = []  # heap of (t_click, serial, agent index, page_id, ad_id, ad_kind, slot)
    serial = 0

    def flush_pending(upto: int) -> None:
        while pending and pending[0][0] <= upto:
            tc, _, i, page_id, ad_id, ad_kind, slot = heapq.heappop(pending)
            agent = agents[i]
            broker.record_click(ad_id, tc, agent.agent_id, page_id)
            add(tc, [new_event(Event, (tc, click, agent.agent_id, agent.ip, page_id, ad_id, ad_kind, slot))])

    for view in page_views:
        t, i = divmod(view, n)
        if pending and pending[0][0] <= t:
            flush_pending(t)
        if len(batch) >= _BATCH_EVENTS:
            yield batch
            batch = []
        agent = agents[i]
        agent_id = agent.agent_id
        counter = page_counters[i]
        if counter >= MAX_PAGES_PER_AGENT:
            raise ConfigError(
                f"agent {agent_id} reaches {MAX_PAGES_PER_AGENT} page views, beyond which its page ids "
                "and injection streams alias another agent's; lower horizon_days, "
                "behavior.pages_per_session or the sessions-per-day rates"
            )
        page_counters[i] = counter + 1
        page_id = i * 1_000_000 + counter
        inj_rng = SplitMix64.for_stream(config.seed, STREAM_INJECTION, instance=i * 1_048_576 + counter)
        slate = broker.serve_page(
            agent.profile, config.slots_per_page, inj_rng, t, agent_id, page_id
        )
        if not slate:
            continue
        ip = agent.ip
        unit = [
            new_event(Event, (t, impression, agent_id, ip, page_id, ad.ad_id, ad.kind, slot))
            for slot, ad in enumerate(slate)
        ]
        unit.sort(key=_AD_ID)
        add(t, unit)
        rng = click_rngs[i]
        for slot in decide_clicks(agent, slate, behavior, rng, broker.rel):
            ad = slate[slot]
            delay = 1 + rng.randrange(MAX_DWELL_MS)
            heapq.heappush(pending, (t + delay, serial, i, page_id, ad.ad_id, ad.kind, slot))
            serial += 1
    flush_pending(1 << 62)
    add(None, [])  # closes the last group
    yield batch
