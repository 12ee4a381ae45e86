import pytest

from bluffsim.config import load_config
from bluffsim.detection import DetectorConfig, run_detection
from bluffsim.domain import MS_PER_DAY, AdKind, Event, EventType, basis_vector
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
