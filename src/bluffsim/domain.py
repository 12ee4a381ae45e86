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
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
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


def sort_time_ties(events: list) -> None:
    """Sort ``events`` in place into ``event_sort_key`` order, for a list
    whose timestamps never decrease: only runs of equal ``t`` can then be out
    of order, and each run is sorted on its own, so sort keys exist for one
    run at a time.  If ``t`` does decrease, the whole list is sorted by
    ``event_sort_key``.  Either way the result equals
    ``sorted(events, key=event_sort_key)``.
    """
    start = 0
    prev = None
    # Only runs already passed are rewritten, each with as many events, so
    # the iteration below never sees a changed position.
    for end, t in enumerate(map(itemgetter(0), events)):
        if t == prev:
            continue
        if prev is not None and t < prev:
            events.sort(key=event_sort_key)
            return
        if end - start > 1:
            run = events[start:end]
            run.sort(key=event_sort_key)
            events[start:end] = run
        start, prev = end, t
    run = events[start:]
    run.sort(key=event_sort_key)
    events[start:] = run


@dataclass
class StreamViolation:
    index: int
    reason: str


def validate_event_stream(events: Iterable[Event]) -> list[StreamViolation]:
    """Check ordering and click/impression pairing.

    Returns a list of violations (empty means the stream is well formed).
    Every click must reference an impression with the same
    (agent_id, page_id, ad_id) at an earlier-or-equal timestamp, and
    timestamps must be non-decreasing.

    A first pass collects the keys that clicks name; the second strikes a
    key off at its first impression, so a click whose key is still pending
    has no impression before it.  Only keys some click names are ever held:
    the set grows with clicks, not with the stream.  An iterator is read into
    a list for the two passes.
    """
    if not isinstance(events, Sequence):
        events = list(events)
    impression = EventType.IMPRESSION
    # Indexing three fields costs less than unpacking all eight.
    pending = {(e[2], e[4], e[5]) for e in events if e[1] is not impression}
    violations: list[StreamViolation] = []
    prev_t = None
    for i, (t, etype, agent_id, _, page_id, ad_id, _, slot) in enumerate(events):
        if prev_t is not None and t < prev_t:
            violations.append(StreamViolation(i, f"timestamp {t} decreases from {prev_t}"))
        prev_t = t
        key = (agent_id, page_id, ad_id)
        if etype is impression:
            pending.discard(key)
        elif key in pending:
            violations.append(StreamViolation(i, f"click without matching impression: {key}"))
        if slot < 0:
            violations.append(StreamViolation(i, f"negative slot index {slot}"))
    return violations
