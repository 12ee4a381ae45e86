import pytest

from bluffsim.config import load_config
from bluffsim.detection import DetectorConfig, run_detection
from bluffsim.domain import AdKind, Event, EventType, basis_vector
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
