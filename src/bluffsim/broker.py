"""The ad brokerage: ranking, decoy injection, billing, budgets, quality.

The broker ranks real ads by bid x quality x relevance, replaces each slot
with a decoy ad with probability ``rho``, charges first-price per click with
daily-budget clamping, and keeps Laplace-smoothed quality scores per ad.

Decoy ads are house ads: zero bid, no advertiser, and never a ledger entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .domain import (
    EPSILON_BLUFF,
    MAX_DWELL_MS,
    MS_PER_DAY,
    AdKind,
    AdUnit,
    ConfigError,
    RelevanceCache,
    TopicVector,
    basis_vector,
)
from .rng import STREAM_BLUFF_POOL, SplitMix64


@dataclass
class QualityScore:
    """Click-through counters with Laplace smoothing: q = (c+1)/(n+2)."""

    impressions: int = 0
    clicks: int = 0

    @property
    def q(self) -> float:
        return (self.clicks + 1) / (self.impressions + 2)


@dataclass
class InjectionConfig:
    rho: float = 0.10  # per-slot probability the slot carries a decoy
    type_b_share: float = 0.5  # fraction of decoy slots that are untargeted
    bluff_pool_size: int = 64

    def validate(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"injection.rho must be in [0, 1], got {self.rho}")
        if not 0.0 <= self.type_b_share <= 1.0:
            raise ConfigError(f"injection.type_b_share must be in [0, 1], got {self.type_b_share}")
        if self.bluff_pool_size <= 0:
            raise ConfigError("injection.bluff_pool_size must be positive")


@dataclass
class Campaign:
    advertiser_id: str
    ads: list  # list[AdUnit], all REAL
    daily_budget_micros: int
    spent_today_micros: int = 0


@dataclass(slots=True)
class LedgerEntry:
    """One charge, made only by ``Broker.record_click``; everything else
    reads entries.  Not frozen: a frozen dataclass's ``__init__`` sets each
    field through ``object.__setattr__``, which tripled the cost of making
    one."""

    t: int
    advertiser_id: str
    ad_id: str
    amount_micros: int
    # Not part of the billing record proper; retained so economics can
    # attribute spend to traffic sources without re-joining on timestamps.
    agent_id: str


class BillingLedger:
    """Append-only sequence of per-click charges (real ads only).  Only
    ``Broker.record_click`` appends, straight to ``entries`` after it has
    charged the campaign and written the ad's ranking weight, and no entry
    is changed once made."""

    def __init__(self):
        self.entries: list[LedgerEntry] = []


class Broker:
    """Single-run broker state: inventory, quality, budgets, decoy machinery.

    All mutation happens from the single-threaded simulation loop; reads for
    metric computation take place after the run.

    Once the broker is built, its quality counters and campaign budgets are
    written only by the broker itself, and each write also updates the
    per-ad ranking weight that ``rank_ads`` reads, so a counter or budget
    changed from outside would not reach the ranking.  ``serve_page`` and
    ``record_click`` write the weight of the ad whose counter they bump
    in place, next to the bump; ``_reweigh`` writes it at construction, at
    the day rollover and when a charge spends a campaign's budget.
    """

    def __init__(
        self,
        campaigns: list,
        injection: InjectionConfig,
        topic_dim: int,
        seed: int,
    ):
        injection.validate()
        self.injection = injection
        self.topic_dim = topic_dim
        self.campaigns: dict[str, Campaign] = {}
        self.ads: dict[str, AdUnit] = {}
        self.quality: dict[str, QualityScore] = {}
        self.ledger = BillingLedger()
        self.rel = RelevanceCache()
        self.overhead_micros = 0  # score value of real ads displaced by decoys
        self.pages_served = 0  # serve_page calls, empty slates included
        self.decoy_impressions = 0  # slots served with a decoy; real ones count in ``quality``
        self.bluff_b_impressions = 0  # the untargeted (BLUFF_B) part of decoy_impressions
        self.clicks_clamped = 0  # real-ad clicks charged below the bid (0 included) by the budget
        # Open pages, (agent_id, page_id) -> (t, slate), in two generations:
        # those served since ``_rotated_at`` and those of the generation
        # before.  See ``serve_page``.
        self._pages: dict = {}
        self._pages_prev: dict = {}
        self._rotated_at = 0
        self._day = 0
        self._rows: dict = {}  # profile -> ranking row, see rank_ads
        self._bluff_a: dict = {}  # profile -> {pool index: AdUnit or None}, see make_bluff_a

        for c in campaigns:
            if c.advertiser_id in self.campaigns:
                raise ConfigError(f"duplicate advertiser_id {c.advertiser_id}")
            self.campaigns[c.advertiser_id] = c
            for ad in c.ads:
                if ad.kind is not AdKind.REAL:
                    raise ConfigError("campaigns may contain only real ads")
                if ad.ad_id in self.ads:
                    raise ConfigError(f"duplicate ad_id {ad.ad_id}")
                if ad.advertiser_id != c.advertiser_id:
                    raise ConfigError(f"ad {ad.ad_id} of advertiser {ad.advertiser_id} in campaign {c.advertiser_id}")
                self.ads[ad.ad_id] = ad
                self.quality[ad.ad_id] = QualityScore()
        self._inventory = sorted(
            ((c, ad, self.quality[ad.ad_id]) for c in campaigns for ad in c.ads),
            key=lambda entry: entry[1].ad_id,
        )
        # Ranking state in inventory (ad_id) order, see rank_ads.
        self._index = {ad.ad_id: j for j, (_, ad, _) in enumerate(self._inventory)}
        self._weights = [0.0] * len(self._inventory)
        for j in range(len(self._inventory)):
            self._reweigh(j)
        self._scores = [0.0] * len(self._inventory)
        self._score_of = self._scores.__getitem__

        pool_rng = SplitMix64.for_stream(seed, stream=STREAM_BLUFF_POOL)
        self._bluff_pool = self._build_bluff_pool(pool_rng)
        self._bluff_b_units = self._build_bluff_b_units()
        # Decoy units share ad_ids with fixed content, so the catalog the
        # detector consumes stays consistent across impressions.
        for unit in self._bluff_b_units:
            self.ads[unit.ad_id] = unit

    # -- decoy construction -------------------------------------------------

    def _build_bluff_pool(self, rng: SplitMix64) -> list:
        """Content vectors for profile-targeted decoys: one heavy topic with
        a thin spread, so almost any realistic (sparse-ish) profile admits a
        pool vector with relevance below the decoy bound.
        """
        pool = []
        d = self.topic_dim
        spread = 0.05 / (d - 1)
        for i in range(self.injection.bluff_pool_size):
            topic = rng.randrange(d)
            vec = tuple(0.95 if j == topic else spread for j in range(d))
            pool.append((f"ba{i:03d}", vec))
        return pool

    def _build_bluff_b_units(self) -> list:
        d = self.topic_dim
        uniform = tuple(1.0 / d for _ in range(d))
        # Spread mass 0.09 keeps the dominant topic's share of mass >= 0.9
        # with slack, immune to float-summation rounding.
        spread = 0.09 / (d - 1)
        units = []
        for j in range(d):
            content = tuple(0.9 if i == j else spread for i in range(d))
            units.append(
                AdUnit(ad_id=f"bb{j:02d}", kind=AdKind.BLUFF_B, targeting=uniform, content=content)
            )
        return units

    def make_bluff_a(self, profile: TopicVector, rng: SplitMix64) -> AdUnit:
        """Decoy targeted at this profile with content unrelated to it.

        Draws from the pool until the relevance bound holds; falls back to a
        basis vector in the profile's minimum-weight coordinate.  A profile so
        dense that even the fallback is related is a configuration error.

        Each distinct profile keeps a memo from pool index to its validated
        decoy, or None when that pool vector is too related to the profile,
        so a draw seen before costs one dict lookup.  The memo is bounded by
        distinct profiles times the pool size, and the draws are the same.
        """
        memo = self._bluff_a.get(profile)
        if memo is None:
            memo = self._bluff_a[profile] = {}
        pool = self._bluff_pool
        for _ in range(self.injection.bluff_pool_size):
            k = rng.randrange(len(pool))
            if k not in memo:
                ad_id, content = pool[k]
                memo[k] = (
                    AdUnit(ad_id, AdKind.BLUFF_A, targeting=profile, content=content)
                    if self.rel.get(profile, content) < EPSILON_BLUFF
                    else None
                )
            unit = memo[k]
            if unit is not None:
                return unit
        min_topic = min(range(len(profile)), key=lambda i: (profile[i], i))
        content = basis_vector(len(profile), min_topic)
        r = self.rel.get(profile, content)
        if r >= EPSILON_BLUFF:
            raise ConfigError(
                f"profile is too dense to admit an unrelated decoy (best achievable relevance {r:.4f})"
            )
        return AdUnit(
            ad_id=f"ba-basis{min_topic:02d}",
            kind=AdKind.BLUFF_A,
            targeting=profile,
            content=content,
        )

    def make_bluff_b(self, rng: SplitMix64) -> AdUnit:
        """Untargeted decoy with specialized (single-topic-dominant) content."""
        return self._bluff_b_units[rng.randrange(self.topic_dim)]

    # -- serving ------------------------------------------------------------

    def _reweigh(self, j: int) -> None:
        """Recompute the ranking weight of inventory entry ``j``: bid x quality
        while its campaign has budget left today, else 0.0.  ``serve_page``
        and ``record_click`` write the same float inline."""
        c, ad, qs = self._inventory[j]
        self._weights[j] = ad.bid_micros * qs.q if c.spent_today_micros < c.daily_budget_micros else 0.0

    def _advance_day(self, day: int) -> None:
        """Start ``day``, which differs from the current one: every budget is
        back, and so is every weight."""
        for c in self.campaigns.values():
            c.spent_today_micros = 0
        for j in range(len(self._inventory)):
            self._reweigh(j)
        self._day = day

    def score(self, profile: TopicVector, ad: AdUnit) -> float:
        return ad.bid_micros * self.quality[ad.ad_id].q * self.rel.get(profile, ad.targeting)

    def rank_ads(self, profile: TopicVector, slots: int) -> list:
        """Top ``slots`` budget-eligible real ads by bid x quality x relevance.

        Zero-score ads (no targeting overlap) are not served.  Ties break by
        ascending ad_id.  May return fewer than ``slots`` ads.

        The broker keeps one weight per ad, bid x quality, or 0.0 once its
        campaign has spent today's budget, in ad_id order; the broker's own
        writers keep it current (see ``Broker``).  Relevance is the only
        factor fixed per (profile, ad), so each distinct profile value gets
        one cached row of relevances in the same order, 0.0 for unrelated
        ads.  Rows grow with distinct profiles, not with users, and assume
        the inventory and ad targeting are fixed for the broker's life.  A
        page multiplies weights by the row into a score buffer the broker
        keeps, the same float as ``score``, and sorts the indices by score:
        the sort is stable and descending, so ties keep the ad_id order, and
        zero scores sort last.  The buffer holds this page's scores until
        the next call.
        """
        if slots < 1:
            raise ValueError("slots must be >= 1")
        row = self._rows.get(profile)
        if row is None:
            row = self._rows[profile] = []
            for _, ad, _ in self._inventory:
                row.append(self.rel.get(profile, ad.targeting))
        scores = self._scores
        scores[:] = map(mul, self._weights, row)
        top = sorted(range(len(scores)), key=self._score_of, reverse=True)
        del top[slots:]
        # Zero scores sort last and are not served.  No comprehension here or
        # above: one would allocate a function object and closure cells, all
        # GC-tracked, in every call, and a collection can start at each.
        while top and scores[top[-1]] <= 0.0:
            top.pop()
        inventory = self._inventory
        for k in range(len(top)):
            top[k] = inventory[top[k]][1]
        return top

    def serve_page(
        self,
        profile: TopicVector,
        slots: int,
        rng: SplitMix64,
        t: int,
        agent_id: str,
        page_id: int,
    ) -> list:
        """Build the slate for one page view and meter impressions.

        Starts from the ranked real slate; each slot is independently
        replaced by a decoy with probability rho (untargeted decoy with
        probability type_b_share, else one built for this profile).
        Replaced real ads receive no impression, and add the score they were
        ranked with, read from ``rank_ads``'s buffer, to ``overhead_micros``.
        Every served slot is metered: a decoy in ``decoy_impressions`` (and
        an untargeted one in ``bluff_b_impressions``), a real ad in its
        ``quality`` entry.  A real ad's impression is bumped and its ranking
        weight rewritten here, in place, as the float ``_reweigh`` makes; the
        budget test is not needed, since an ad whose campaign has spent its
        budget weighs 0.0 and a zero score is never served.

        The page stays open for clicks until ``MAX_DWELL_MS`` after ``t``.
        Pages are kept in two generations; when more than ``MAX_DWELL_MS``
        has passed since the current one began, it becomes the previous one
        and the previous one is dropped, so every dropped page was served
        more than ``MAX_DWELL_MS`` before this page.  Clicks must therefore
        be recorded in time order with page serves: each click before any
        page served later than the click.
        """
        if t - self._rotated_at > MAX_DWELL_MS:
            self._pages_prev = self._pages
            self._pages = {}
            self._rotated_at = t
        if t // MS_PER_DAY != self._day:
            self._advance_day(t // MS_PER_DAY)
        slate = self.rank_ads(profile, slots)
        self.pages_served += 1
        rho = self.injection.rho
        type_b_share = self.injection.type_b_share
        index = self._index
        inventory = self._inventory
        weights = self._weights
        for i, ad in enumerate(slate):
            j = index[ad.ad_id]
            if rho > 0.0 and rng.random() < rho:
                # A displaced ad gets no impression, so its weight, and the
                # score it was ranked with, still hold.
                self.overhead_micros += int(round(self._scores[j]))
                self.decoy_impressions += 1
                if rng.random() < type_b_share:
                    self.bluff_b_impressions += 1
                    slate[i] = self.make_bluff_b(rng)
                else:
                    slate[i] = self.make_bluff_a(profile, rng)
            else:
                qs = inventory[j][2]
                qs.impressions += 1
                weights[j] = ad.bid_micros * ((qs.clicks + 1) / (qs.impressions + 2))
        self._pages[(agent_id, page_id)] = (t, tuple(slate))
        return slate

    # -- billing ------------------------------------------------------------

    def record_click(self, ad_id: str, t: int, agent_id: str, page_id: int) -> int:
        """Meter a click and charge the advertiser; returns micros charged.

        Decoy clicks are never charged.  The charge is clamped to the
        campaign's remaining daily budget; a clamped click, charged 0 or
        more, counts in ``clicks_clamped``.  The click bumps the ad's
        ``clicks`` and rewrites its ranking weight in place, as the float
        ``_reweigh`` makes from the spend before this charge; a charge that
        spends the budget then zeroes the weights of all the campaign's ads
        through ``_reweigh`` until the next day.  The charge is appended to
        the ledger last.

        The click must land on an ad of a page that ``serve_page`` served
        this agent at most ``MAX_DWELL_MS`` earlier, and be recorded before
        any page served later than ``t`` (see ``serve_page``); otherwise it
        is refused with ``ValueError``.
        """
        if t // MS_PER_DAY != self._day:
            self._advance_day(t // MS_PER_DAY)
        key = (agent_id, page_id)
        page = self._pages.get(key) or self._pages_prev.get(key)
        slate = page[1] if page is not None and t - page[0] <= MAX_DWELL_MS else ()
        for ad in slate:
            if ad.ad_id == ad_id:
                break
        else:
            raise ValueError(
                f"click without a served impression: agent={agent_id} page={page_id} ad={ad_id}"
            )
        if ad.kind is not AdKind.REAL:
            return 0
        j = self._index[ad_id]
        campaign, _, qs = self._inventory[j]
        qs.clicks += 1
        charge = ad.bid_micros
        spent = campaign.spent_today_micros
        budget = campaign.daily_budget_micros
        self._weights[j] = ad.bid_micros * ((qs.clicks + 1) / (qs.impressions + 2)) if spent < budget else 0.0
        remaining = budget - spent
        if remaining < charge:
            self.clicks_clamped += 1
            if remaining <= 0:
                return 0
            charge = remaining
        spent += charge
        campaign.spent_today_micros = spent
        assert spent <= budget
        if spent == budget:
            for spent_ad in campaign.ads:
                self._reweigh(self._index[spent_ad.ad_id])
        self.ledger.entries.append(LedgerEntry(t, campaign.advertiser_id, ad_id, charge, agent_id))
        return charge

    # -- views for downstream consumers --------------------------------------

    def catalog(self) -> dict:
        """ad_id -> (AdKind, content vector); what the broker knows about its
        own inventory and decoys, legitimately available to detection.
        """
        cat = {ad_id: (ad.kind, ad.content) for ad_id, ad in self.ads.items()}
        for ad_id, content in self._bluff_pool:
            cat[ad_id] = (AdKind.BLUFF_A, content)
        d = self.topic_dim
        for topic in range(d):
            cat[f"ba-basis{topic:02d}"] = (AdKind.BLUFF_A, basis_vector(d, topic))
        return cat
