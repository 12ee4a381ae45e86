"""bluffsim: a deterministic pay-per-click ad-network simulator that injects
decoy ads and evaluates a fused click-fraud detection pipeline against
explicit benign and adversarial traffic models."""

from .broker import Broker, Campaign, ConfigError, InjectionConfig
from .config import (
    CampaignSpec,
    PRESETS,
    ScenarioConfig,
    default_campaigns,
    dump_config,
    load_config,
)
from .detection import (
    Blacklist,
    DetectorConfig,
    EvidenceScan,
    ReferenceProfile,
    SuspicionReport,
    binom_tail_pvalue,
    run_detection,
    score_evidence,
)
from .domain import (
    AdKind,
    AdUnit,
    Agent,
    AgentKind,
    Event,
    EventType,
    relevance,
    validate_event_stream,
)
from .metrics import (
    Confusion,
    EconomicSummary,
    Metered,
    confusion,
    economics,
    f1,
    precision,
    recall,
    roc_points,
)
from .pipeline import RunResult, RunOutputs, run, run_scenario, sweep
from .rng import SplitMix64
from .traffic import (
    BehaviorParams,
    TrafficMix,
    build_population,
    decide_clicks,
    run_traffic,
)

__version__ = "0.1.0"
