"""Scenario configuration: key tree, validation, presets, echo round-trip.

Config files are YAML.  The key tree is the dataclass tree under
``ScenarioConfig``: parsing, key checks and the echo all walk its fields and
annotations, so a key exists exactly where a field does (the detector's three
fusion weights are the one exception: a single ``fusion_weights`` list).
Unknown keys are hard errors (no silent typos), every value must fit its
field's annotation (nothing is truncated or converted from a string), and
every failure names the offending field path.  A file may start from a named preset
via the ``preset`` key and override individual fields.
"""

from __future__ import annotations

import copy
import functools
import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional

import yaml

from .broker import InjectionConfig
from .detection import DetectorConfig
from .domain import DEFAULT_TOPIC_DIM, ConfigError
from .traffic import BehaviorParams, TrafficMix

FLAT_DIURNAL = tuple(1.0 for _ in range(24))


@dataclass
class CampaignSpec:
    advertiser_id: str
    bid_micros: int
    daily_budget_micros: int
    targeting: tuple[float, ...]

    def validate(self, path: str, topic_dim: int) -> None:
        if not self.advertiser_id:
            raise ConfigError(f"{path}.advertiser_id must be non-empty")
        if self.bid_micros <= 0:
            raise ConfigError(f"{path}.bid_micros must be positive")
        if self.daily_budget_micros <= 0:
            raise ConfigError(f"{path}.daily_budget_micros must be positive")
        if len(self.targeting) != topic_dim:
            raise ConfigError(f"{path}.targeting must have length {topic_dim}")
        if any(w < 0 for w in self.targeting) or not any(w > 0 for w in self.targeting):
            raise ConfigError(f"{path}.targeting must be non-negative with positive mass")


def default_campaigns(topic_dim: int = DEFAULT_TOPIC_DIM) -> list:
    """The stock inventory: two campaigns on each of ten mainstream
    verticals, plus four cheap campaigns on the two attacked verticals.

    The attacked verticals carry low bids: the scripted botnets pose as that
    audience, and the bid ratio is what places fraudulent spend in the
    expected 10-15% share of total spend at the default mix.
    """
    if topic_dim < 12:
        raise ConfigError(f"campaigns: the default campaigns need topic_dim >= 12, got {topic_dim}; list the campaigns")

    def targeting(topic: int, neighbor: int) -> tuple:
        vec = [0.0] * topic_dim
        vec[topic] = 0.8
        vec[neighbor] = 0.2
        return tuple(vec)

    campaigns = []
    for v in range(10):
        for k, suffix in enumerate("ab"):
            campaigns.append(
                CampaignSpec(
                    advertiser_id=f"adv{v:02d}{suffix}",
                    bid_micros=400_000 + (v * 2 + k) * 60_000,
                    daily_budget_micros=500_000_000,
                    targeting=targeting(v, (v + 1) % 10),
                )
            )
    for i, v in enumerate((10, 11, 10, 11)):
        campaigns.append(
            CampaignSpec(
                advertiser_id=f"niche{i:02d}",
                bid_micros=42_000,
                daily_budget_micros=200_000_000,
                targeting=targeting(v, 21 - v),
            )
        )
    return campaigns


@dataclass
class ScenarioConfig:
    seed: int = 0
    horizon_days: int = 7
    slots_per_page: int = 4
    topic_dim: int = DEFAULT_TOPIC_DIM
    diurnal: tuple[float, ...] = FLAT_DIURNAL
    mix: TrafficMix = field(default_factory=TrafficMix)
    behavior: BehaviorParams = field(default_factory=BehaviorParams)
    injection: InjectionConfig = field(default_factory=InjectionConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    # None stands for ``default_campaigns(topic_dim)``, built on construction.
    campaigns: list[CampaignSpec] = None

    def __post_init__(self):
        if self.campaigns is None:
            self.campaigns = default_campaigns(self.topic_dim)

    def validate(self) -> None:
        if not 0 <= self.seed < (1 << 64):
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.horizon_days < 1:
            raise ConfigError("horizon_days must be >= 1")
        if self.slots_per_page < 1:
            raise ConfigError("slots_per_page must be >= 1")
        if self.topic_dim < 2:
            raise ConfigError("topic_dim must be >= 2")
        if len(self.diurnal) != 24:
            raise ConfigError("diurnal must have exactly 24 weights")
        if any(w < 0 for w in self.diurnal) or not any(w > 0 for w in self.diurnal):
            raise ConfigError("diurnal weights must be non-negative, not all zero")
        self.mix.validate(self.topic_dim)
        self.behavior.validate()
        self.injection.validate()
        self.detector.validate()
        seen = set()
        for i, c in enumerate(self.campaigns):
            c.validate(f"campaigns[{i}]", self.topic_dim)
            if c.advertiser_id in seen:
                raise ConfigError(f"campaigns[{i}]: duplicate advertiser_id {c.advertiser_id}")
            seen.add(c.advertiser_id)
        target = self.mix.view_bot_target
        if target is not None and target not in seen:
            raise ConfigError(f"mix.view_bot_target {target!r} names no campaign")
        if self.mix.n_view_bot > 0 and not seen:
            raise ConfigError("mix.n_view_bot: view bots require at least one campaign to target")


# -- parsing ------------------------------------------------------------------

# The detector's fusion weights are three fields but one YAML key.
_FUSION_WEIGHTS = ("w_bluff", "w_thresh", "w_profile")


@functools.cache
def _field_types(cls) -> dict:
    """Field name -> resolved annotation of a config dataclass."""
    return typing.get_type_hints(cls)


@functools.cache
def _keys(cls) -> dict:
    """YAML key -> type of a config dataclass, in field order."""
    keys = {}
    for f in fields(cls):
        if cls is DetectorConfig and f.name in _FUSION_WEIGHTS:
            keys["fusion_weights"] = tuple[float, float, float]
        else:
            keys[f.name] = _field_types(cls)[f.name]
    return keys


def _check(value, typ, path: str):
    """Return ``value`` as a field annotated ``typ`` stores it, or raise a
    ConfigError naming ``path``.  Nothing is cast: only an int given for a
    float field becomes a float.  A float field refuses NaN and infinities."""
    if typ is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if typ is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if typ is str or typ == Optional[str]:
        if value is None and typ is not str:
            return None
        if isinstance(value, str) and value:
            return value
        raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
    if is_dataclass(typ):
        return _build(typ, value, path)
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    item_types = typing.get_args(typ)
    if typing.get_origin(typ) is list:  # list of sections, every key required
        return [_build(item_types[0], item, f"{path}[{i}]", required=True) for i, item in enumerate(value)]
    if item_types[-1] is Ellipsis:
        item_types = item_types[:1] * len(value)
    elif len(value) != len(item_types):
        raise ConfigError(f"{path}: expected a list of {len(item_types)}, got {value!r}")
    return tuple(_check(v, t, f"{path}[{i}]") for i, (v, t) in enumerate(zip(value, item_types)))


def _build(cls, data, path: str, required: bool = False):
    """A ``cls`` from a YAML mapping: its defaults overridden key by key or,
    with ``required``, every key given."""
    label = path or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{label}: expected a mapping")
    keys = _keys(cls)
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ConfigError(f"{label}: unknown keys {unknown}")
    if required:
        for key in keys:
            if key not in data:
                raise ConfigError(f"{label}: missing required key {key}")
    values = {key: _check(value, keys[key], f"{path}.{key}" if path else key) for key, value in data.items()}
    if "fusion_weights" in values:
        values.update(zip(_FUSION_WEIGHTS, values.pop("fusion_weights")))
    return cls(**values)


# -- presets -------------------------------------------------------------------


# Each preset's overrides of the stock scenario, merged under a file's own.
PRESETS = {
    "default-attack": {},
    "benign-only": {"mix": {"n_random_bot": 0, "n_trained_bot": 0}},
    # Trained bots swapped for perfect-dictionary bots, plus a
    # profile-harvesting cohort chasing the unserved niche.
    "dictionary-attack": {
        "mix": {"n_trained_bot": 0, "n_dictionary_bot": 20, "n_profile_harvester": 20},
        "behavior": {"dictionary_skill": 1.0},
    },
    "baseline-no-bluff": {"injection": {"rho": 0.0}},
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(source: str) -> ScenarioConfig:
    """Load a scenario from a YAML file path or a preset name.

    A file may name a base preset via the ``preset`` key; its remaining keys
    override the preset.  Unknown keys anywhere are errors.
    """
    path = Path(source)
    if path.exists():
        try:
            data = yaml.safe_load(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{source}: cannot read config file: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"{source}: YAML parse error: {exc}") from exc
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"{source}: top level must be a mapping")
    elif source in PRESETS:
        data = {"preset": source}
    else:
        raise ConfigError(f"config source {source!r} is neither a file nor a preset name")

    preset_name = data.pop("preset", None)
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset_name!r}; available: {sorted(PRESETS)}"
            )
        data = _deep_merge(PRESETS[preset_name], data)
    cfg = _build(ScenarioConfig, data, "")
    cfg.validate()
    return cfg


# -- echo ----------------------------------------------------------------------


def _echo(value):
    """A config value as plain YAML data, sections in field order."""
    if is_dataclass(value):
        return {
            key: _echo(
                [getattr(value, w) for w in _FUSION_WEIGHTS] if key == "fusion_weights" else getattr(value, key)
            )
            for key in _keys(type(value))
        }
    if isinstance(value, (list, tuple)):
        return [_echo(v) for v in value]
    return value


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Fully-resolved config as a plain dict, same key tree as the input."""
    return _echo(cfg)


def dump_config(cfg: ScenarioConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False, default_flow_style=None)
