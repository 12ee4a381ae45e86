"""Core vocabulary shared by every other module: topics, ads, agents, events.

Conventions used throughout the simulator:

* Topic vectors are plain tuples of non-negative floats of length D
  (``topic_dim``).  They are immutable and hashable, which makes relevance
  caching trivial.
* Money is an ``int`` number of micro-currency units (1 micro = 1e-6 of a
  currency unit).  All billing arithmetic is exact integer arithmetic.
* Timestamps are ``int`` simulated milliseconds since scenario start.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

DEFAULT_TOPIC_DIM = 16

# A decoy of the profile-targeted kind must have content this unrelated to
# the profile it is served against (cosine relevance strictly below).
EPSILON_BLUFF = 0.05

MS_PER_HOUR = 3_600_000
MS_PER_DAY = 86_400_000

# A click lands between 1 and this many ms after its impression, so the
# broker may drop a page once this long has passed since it was served.
MAX_DWELL_MS = 4000

TopicVector = tuple  # tuple[float, ...] of length D


class ConfigError(ValueError):
    """Raised when a configuration cannot produce a valid artifact."""


class AdKind(enum.Enum):
    REAL = "real"
    BLUFF_A = "bluff_a"  # targeted at the profile, content unrelated to it
    BLUFF_B = "bluff_b"  # specialized content, untargeted


class AgentKind(enum.Enum):
    BENIGN = "benign"
    RANDOM_BOT = "random_bot"
    TRAINED_BOT = "trained_bot"
    DICTIONARY_BOT = "dictionary_bot"
    PROFILE_HARVESTER = "profile_harvester"
    VIEW_BOT = "view_bot"


class EventType(enum.Enum):
    IMPRESSION = "impression"
    CLICK = "click"


def basis_vector(dim: int, topic: int) -> TopicVector:
    return tuple(1.0 if i == topic else 0.0 for i in range(dim))


def relevance(a: TopicVector, b: TopicVector) -> float:
    """Cosine similarity of two topic vectors, in [0, 1].

    Symmetric and scale-invariant.  Zero vectors are a caller error.
    """
    if len(a) != len(b):
        raise ValueError("topic vectors must have equal length")
    dot = 0.0
    na = 0.0
    nb = 0.0
    for x, y in zip(a, b):
        dot += x * y
        na += x * x
        nb += y * y
    if na <= 0.0 or nb <= 0.0:
        raise ValueError("relevance of a zero vector is undefined")
    r = dot / math.sqrt(na * nb)
    # Guard against rounding drifting a hair past 1.0.
    return min(1.0, max(0.0, r))


class RelevanceCache:
    """Memoizes relevance over (vector, vector) pairs.

    Topic vectors are hashable tuples, so the cache key is just the pair,
    and every lookup hashes both vectors.  Profiles and ad vectors are static
    for the life of a run.  Serving does not look up each pair per page:
    ``Broker.rank_ads`` calls ``get`` once per (profile, ad) pair to build a
    per-profile row and reuses the row; click decisions go through
    ``content_relevance``, which keeps a row per profile too; and
    ``Broker.make_bluff_a`` memoises the outcome for each (profile, pool
    vector).  In the serving loop the cache answers only the misses of those
    rows and memos.
    """

    __slots__ = ("_cache", "_content_rows")

    def __init__(self):
        self._cache: dict = {}
        self._content_rows: dict = {}  # profile -> {ad_id: relevance to its content}

    def get(self, a: TopicVector, b: TopicVector) -> float:
        key = (a, b)
        r = self._cache.get(key)
        if r is None:
            r = relevance(a, b)
            self._cache[key] = r
        return r

    def content_relevance(self, profile: TopicVector, ads) -> list:
        """Relevance of each ad's content to ``profile``, in order.

        The profile is hashed once per call; each ad is then looked up by
        ad_id in that profile's row, filled through ``get`` on a miss.  Rows
        grow with distinct profiles, not with calls, and assume each ad_id
        names one content vector, as within one broker (see
        ``Broker.catalog``).
        """
        row = self._content_rows.get(profile)
        if row is None:
            row = self._content_rows[profile] = {}
        out = []
        for ad in ads:
            r = row.get(ad.ad_id)
            if r is None:
                r = row[ad.ad_id] = self.get(profile, ad.content)
            out.append(r)
        return out


@dataclass(frozen=True, slots=True)
class AdUnit:
    """A single creative: targeting decides who sees it, content is what the
    user actually reads.  Bluff ads are house ads: no advertiser, zero bid.
    Slotted, since the broker keeps a targeted decoy per (profile, pool vector).
    """

    ad_id: str
    kind: AdKind
    targeting: TopicVector
    content: TopicVector
    bid_micros: int = 0
    advertiser_id: Optional[str] = None

    def __post_init__(self):
        if self.kind is AdKind.REAL:
            if self.advertiser_id is None:
                raise ValueError(f"real ad {self.ad_id} requires an advertiser_id")
            if self.bid_micros <= 0:
                raise ValueError(f"real ad {self.ad_id} requires a positive bid")
        else:
            if self.advertiser_id is not None:
                raise ValueError(f"bluff ad {self.ad_id} must not have an advertiser")
            if self.bid_micros != 0:
                raise ValueError(f"bluff ad {self.ad_id} must have zero bid")
        if self.kind is AdKind.BLUFF_A:
            r = relevance(self.targeting, self.content)
            if r >= EPSILON_BLUFF:
                raise ValueError(
                    f"bluff_a ad {self.ad_id} has relevance {r:.4f} >= {EPSILON_BLUFF}"
                )


@dataclass(frozen=True)
class Agent:
    """A traffic source.  ``profile`` is the user's true interests for benign
    agents and the faked/target persona for bots.  The kind is ground truth
    and never reaches the detection pipeline.
    """

    agent_id: str
    kind: AgentKind
    profile: TopicVector
    ip: str
    index: int  # stable numeric key used to derive per-agent RNG substreams


class Event(NamedTuple):
    """One impression or click.  A named tuple rather than a dataclass: a run
    makes one per impression and click, and a tuple is built in one step and
    carries no per-instance ``__dict__``."""

    t: int
    etype: EventType
    agent_id: str
    ip: str
    page_id: int
    ad_id: str
    ad_kind: AdKind
    slot: int


def event_sort_key(e: Event):
    """Documented total order: (t, agent_id, ad_id, impression-before-click)."""
    t, etype, agent_id, _, _, ad_id, _, _ = e
    return (t, agent_id, ad_id, 0 if etype is EventType.IMPRESSION else 1)


def in_event_order(events: Iterable[Event]) -> bool:
    """Whether ``events`` already follow ``event_sort_key`` (ties allowed),
    so that sorting them would leave them as they are."""
    impression = EventType.IMPRESSION
    prev = None
    for t, etype, agent_id, _, _, ad_id, _, _ in events:
        key = (t, agent_id, ad_id, 0 if etype is impression else 1)
        if prev is not None and key < prev:
            return False
        prev = key
    return True


@dataclass
class StreamViolation:
    index: int
    reason: str


class StreamCheck:
    """One-pass check of ordering and click/impression pairing, fed an event
    stream in pieces; ``violations`` lists what it found so far, with each
    event's index in the whole stream.

    Timestamps must be non-decreasing, slots non-negative, and every click
    must follow an impression with the same (agent_id, page_id, ad_id) that
    is at most ``MAX_DWELL_MS`` older, as ``Broker.record_click`` requires.
    Impressions are kept the way the broker keeps open pages: in two
    generations, the older dropped when more than ``MAX_DWELL_MS`` has passed
    since the newer began, so only impressions a later click could still
    match are held.  For a stream whose timestamps never decrease this
    reports exactly the clicks with no such impression before them.
    """

    __slots__ = ("violations", "_count", "_prev_t", "_open", "_open_prev", "_rotated_at")

    def __init__(self):
        self.violations: list[StreamViolation] = []
        self._count = 0
        self._prev_t = None
        self._open: dict = {}  # (agent_id, page_id, ad_id) -> t of its latest impression
        self._open_prev: dict = {}
        self._rotated_at = 0

    def feed(self, events: Iterable[Event]) -> None:
        impression = EventType.IMPRESSION
        violations = self.violations
        prev_t = self._prev_t
        open_now = self._open
        open_prev = self._open_prev
        rotated_at = self._rotated_at
        i = self._count
        for t, etype, agent_id, _, page_id, ad_id, _, slot in events:
            if prev_t is not None and t < prev_t:
                violations.append(StreamViolation(i, f"timestamp {t} decreases from {prev_t}"))
            prev_t = t
            if t - rotated_at > MAX_DWELL_MS:
                open_prev = open_now
                open_now = {}
                rotated_at = t
            key = (agent_id, page_id, ad_id)
            if etype is impression:
                open_now[key] = t
            else:
                shown = open_now.get(key)
                if shown is None:
                    shown = open_prev.get(key)
                if shown is None or t - shown > MAX_DWELL_MS:
                    violations.append(StreamViolation(i, f"click without matching impression: {key}"))
            if slot < 0:
                violations.append(StreamViolation(i, f"negative slot index {slot}"))
            i += 1
        self._count = i
        self._prev_t = prev_t
        self._open = open_now
        self._open_prev = open_prev
        self._rotated_at = rotated_at


def validate_event_stream(events: Iterable[Event]) -> list[StreamViolation]:
    """Check ordering and click/impression pairing in one pass (see
    ``StreamCheck``); returns the violations, empty for a well-formed
    stream."""
    check = StreamCheck()
    check.feed(events)
    return check.violations
