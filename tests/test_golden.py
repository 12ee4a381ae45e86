"""Golden outputs: a fast guard that serve-path and detection changes keep
every output byte identical.

The digests are of a 1-day default-attack run at seed 0.  A change that is
meant to alter outputs must update them and say why; any other change that
trips this test altered behaviour by accident.
"""

import hashlib

from bluffsim.config import load_config
from bluffsim.pipeline import run

GOLDEN_SHA256 = {
    "events.jsonl": "004dee085659f3c31aee41bf3a31977e1c6d0ba5ec0576f27fb1fc9fc48ec05f",
    "verdicts.csv": "03f8d81a69b70fec30c32e70f5f25d0ab99a7cc249f38187836c5a2b33e05c96",
    "summary.csv": "fed9e42f37641de70ae366e8fca7b4d8899383b49293fffedf3826b262d8394c",
    "config.yaml": "00fedf4760ef25307d431762cb8c809fefbcce0679c3daffaba4c93c3888dae8",
}


def test_one_day_default_attack_outputs_match_golden_digests(tmp_path):
    cfg = load_config("default-attack")
    cfg.seed = 0
    cfg.horizon_days = 1
    outputs = run(cfg, tmp_path)
    paths = (outputs.events_path, outputs.verdicts_path, outputs.summary_path, outputs.config_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert got == GOLDEN_SHA256
