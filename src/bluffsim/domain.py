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
from typing import Iterable, NamedTuple, Optional, Sequence

DEFAULT_TOPIC_DIM = 16

# A decoy of the profile-targeted kind must have content this unrelated to
# the profile it is served against (cosine relevance strictly below).
EPSILON_BLUFF = 0.05

MS_PER_HOUR = 3_600_000
MS_PER_DAY = 86_400_000

TopicVector = tuple  # tuple[float, ...] of length D


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


def make_topic_vector(weights: Iterable[float], dim: Optional[int] = None) -> TopicVector:
    """Validate and freeze a topic vector.

    Raises ValueError if any weight is negative, all weights are zero, or the
    length does not match ``dim`` when given.
    """
    vec = tuple(float(w) for w in weights)
    if dim is not None and len(vec) != dim:
        raise ValueError(f"topic vector must have length {dim}, got {len(vec)}")
    if any(w < 0.0 for w in vec):
        raise ValueError("topic vector weights must be non-negative")
    if not any(w > 0.0 for w in vec):
        raise ValueError("topic vector must have at least one positive weight")
    return vec


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
    for the life of a run.  Ranking does not look up each (profile, ad) pair
    per page: ``Broker.rank_ads`` calls ``get`` once per pair to build a
    per-profile row and reuses the row, and click decisions go through
    ``content_relevance``, which keeps a row per profile too; in the serving
    loop the cache mostly answers decoy construction and row misses.
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


@dataclass(frozen=True)
class AdUnit:
    """A single creative: targeting decides who sees it, content is what the
    user actually reads.  Bluff ads are house ads: no advertiser, zero bid.
    """

    ad_id: str
    kind: AdKind
    targeting: TopicVector
    content: TopicVector
    bid_micros: int = 0
    advertiser_id: Optional[str] = None
    created_at: int = 0

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
    region: int
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


def validate_event_stream(events: Sequence[Event]) -> list[StreamViolation]:
    """Check ordering and click/impression pairing.

    Returns a list of violations (empty means the stream is well formed).
    Every click must reference an impression with the same
    (agent_id, page_id, ad_id) at an earlier-or-equal timestamp, and
    timestamps must be non-decreasing.
    """
    violations: list[StreamViolation] = []
    seen_impressions: set = set()
    prev_t = None
    impression = EventType.IMPRESSION
    for i, (t, etype, agent_id, _, page_id, ad_id, _, slot) in enumerate(events):
        if prev_t is not None and t < prev_t:
            violations.append(StreamViolation(i, f"timestamp {t} decreases from {prev_t}"))
        prev_t = t
        key = (agent_id, page_id, ad_id)
        if etype is impression:
            seen_impressions.add(key)
        else:
            if key not in seen_impressions:
                violations.append(
                    StreamViolation(i, f"click without matching impression: {key}")
                )
        if slot < 0:
            violations.append(StreamViolation(i, f"negative slot index {slot}"))
    return violations
