"""Golden outputs: a fast guard that serve-path and detection changes keep
every output byte identical.

The digests are of a 1-day default-attack run at seed 0.  A change that is
meant to alter outputs must update them and say why; any other change that
trips this test altered behaviour by accident.  The events writer is also
checked line by line against ``json.dumps`` on ids no preset produces.
"""

import dataclasses
import functools
import hashlib
import json

from hypothesis import given, settings, strategies as st

from bluffsim.config import load_config
from bluffsim.domain import AdKind, Event, EventType
from bluffsim.pipeline import run, run_scenario, write_outputs
from conftest import small_config

GOLDEN_SHA256 = {
    "events.jsonl": "004dee085659f3c31aee41bf3a31977e1c6d0ba5ec0576f27fb1fc9fc48ec05f",
    "truth.csv": "65b73f75f2966546ab9e869ddcd9f88ce398299456ad446a94a1ba51a85fa776",
    "verdicts.csv": "03f8d81a69b70fec30c32e70f5f25d0ab99a7cc249f38187836c5a2b33e05c96",
    "summary.csv": "fed9e42f37641de70ae366e8fca7b4d8899383b49293fffedf3826b262d8394c",
    "config.yaml": "00fedf4760ef25307d431762cb8c809fefbcce0679c3daffaba4c93c3888dae8",
}


def test_one_day_default_attack_outputs_match_golden_digests(tmp_path):
    cfg = load_config("default-attack")
    cfg.seed = 0
    cfg.horizon_days = 1
    outputs = run(cfg, tmp_path)
    paths = (outputs.events_path, outputs.truth_path, outputs.verdicts_path, outputs.summary_path, outputs.config_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert got == GOLDEN_SHA256


# -- events.jsonl line format ---------------------------------------------------

# Strings a YAML advertiser_id can carry into an ad_id: quotes, backslashes,
# control characters, non-ASCII text; plus any other code point.
_AWKWARD = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé漢 \U0001f600'), st.characters()),
    max_size=12,
)
_EVENTS = st.lists(
    st.builds(
        Event,
        st.integers(),
        st.sampled_from(EventType),
        _AWKWARD,
        _AWKWARD,
        st.integers(),
        _AWKWARD,
        st.sampled_from(AdKind),
        st.integers(),
    ),
    max_size=20,
)


@functools.cache
def _small_result():
    return run_scenario(small_config(horizon_days=1))


@settings(max_examples=60, deadline=None)
@given(events=_EVENTS)
def test_events_file_equals_json_dumps_reference(tmp_path_factory, events):
    result = dataclasses.replace(_small_result(), events=events)
    outputs = write_outputs(result, tmp_path_factory.mktemp("events"))
    reference = "".join(
        json.dumps(
            {
                "t": e.t,
                "etype": e.etype.value,
                "agent_id": e.agent_id,
                "ip": e.ip,
                "page_id": e.page_id,
                "ad_id": e.ad_id,
                "ad_kind": e.ad_kind.value,
                "slot": e.slot,
            },
            separators=(",", ":"),
        )
        + "\n"
        for e in events
    )
    assert outputs.events_path.read_bytes() == reference.encode("utf-8")
