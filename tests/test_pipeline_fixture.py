"""Five pipeline modes at --size 40 --seed 0 against their pinned values.

tests/fixtures/pipeline_size40.json holds what each mode produced when it
was last rewritten (by scripts/pipeline_fixture.py): prediction texts and
hashes must match exactly, report fields too; loss values may move by 1e-9
(BLAS summation order) and n-best scores by 1e-12 (a sample's scores depend
in their last bits on the other samples decoded beside it).
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from pipeline_fixture import FIXTURE, MODES, run_mode  # noqa: E402

PINNED = json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("mode", sorted(MODES))
def test_pipeline_matches_pinned_values(mode, tmp_path):
    got, want = run_mode(mode, tmp_path), PINNED[mode]
    assert got["sha256"] == want["sha256"]
    assert got["report"] == want["report"]

    assert len(got["loss_log"]) == len(want["loss_log"])
    for row, pinned in zip(got["loss_log"], want["loss_log"]):
        assert row[:2] == pinned[:2]
        assert row[2:] == pytest.approx(pinned[2:], rel=0.0, abs=1e-9), row[:2]

    assert len(got["predictions"]) == len(want["predictions"])
    for record, pinned in zip(got["predictions"], want["predictions"]):
        assert (record["id"], record["prediction"]) == (pinned["id"], pinned["prediction"])
        nbest, pinned_nbest = record.get("nbest", []), pinned.get("nbest", [])
        assert [h["prediction"] for h in nbest] == [h["prediction"] for h in pinned_nbest]
        assert [h["score"] for h in nbest] == pytest.approx(
            [h["score"] for h in pinned_nbest], rel=0.0, abs=1e-12), record["id"]
        assert sorted(record) == sorted(pinned)
