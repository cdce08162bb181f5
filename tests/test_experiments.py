"""Tests for the desk-scale experiment scripts in scripts/, run at tiny
model sizes so they stay fast."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import joint_vs_baseline  # noqa: E402
import overfit_check  # noqa: E402
from joint_vs_baseline import joint_vs_baseline_run  # noqa: E402
from overfit_check import overfit_run  # noqa: E402

TINY_MODEL = dict(d_model=16, num_layers=1, num_heads=2, ffn_dim=32,
                  picker_hidden=(8,), rel_pos_buckets=8,
                  rel_pos_max_distance=16)


class TestOverfitRun:
    def test_memorizes_two_samples(self):
        exact_pct, generator_loss, pairs = overfit_run(
            size=2, epochs=60, seed=6, beam_size=2, learning_rate=3e-3,
            model_overrides=TINY_MODEL)
        assert exact_pct == 100.0
        assert generator_loss < 0.5
        assert len(pairs) == 2
        assert all(isinstance(t, str) for _, t in pairs)

    def test_writes_artifacts_when_given_a_directory(self, tmp_path):
        overfit_run(size=2, epochs=1, seed=0, beam_size=1,
                    model_overrides=TINY_MODEL, out_dir=str(tmp_path))
        assert (tmp_path / "checkpoint.bin").exists()
        assert (tmp_path / "loss_log.csv").exists()


class TestJointVsBaselineRun:
    def test_one_seed_comparison_shape(self):
        joint_f1, baseline_f1, tag_f1 = joint_vs_baseline_run(
            seeds=(0,), corpus_size=24, held_out=8, epochs=2,
            learning_rate=2e-3, model_overrides=TINY_MODEL,
        )
        assert len(joint_f1) == 1
        assert len(baseline_f1) == 1
        assert len(tag_f1) == 1
        assert 0.0 <= joint_f1[0] <= 100.0
        assert 0.0 <= baseline_f1[0] <= 100.0
        assert 0.0 <= tag_f1[0] <= 1.0

    def test_held_out_bounds_checked(self):
        with pytest.raises(ValueError):
            joint_vs_baseline_run(seeds=(0,), corpus_size=10, held_out=10)
        with pytest.raises(ValueError):
            joint_vs_baseline_run(seeds=(0,), corpus_size=10, held_out=0)


@pytest.mark.parametrize("script,argv,code,lines", [
    (overfit_check, ["--size", "4", "--epochs", "5", "--show-misses"], 0, [
        "exact match: 100.0%",
        "final generator loss: 1.1780",
        "  0: when did radiohead start to perform",
        "  1: when does moby start",
        "  2: when did spoon start to perform",
        "  3: what did phoenix do in london",
    ]),
    # too few steps to memorize anything: the check fails
    (overfit_check, ["--size", "4", "--epochs", "1", "--learning-rate", "1e-4"], 1, [
        "exact match: 0.0%",
        "final generator loss: 4.2713",
    ]),
    (joint_vs_baseline, ["--seeds", "1,2", "--corpus-size", "24",
                         "--held-out", "8", "--epochs", "1"], 0, [
        "  seed   joint f1   baseline f1   picker f1",
        "     1       9.25          5.72       0.400",
        "     2       0.00          0.00       0.192",
        "  mean       4.62          2.86       0.296",
        "joint - baseline gap: +1.76 points",
    ]),
], ids=["overfit_check", "overfit_check_fails", "joint_vs_baseline"])
def test_main_prints_its_report(monkeypatch, capsys, script, argv, code, lines):
    monkeypatch.setattr(sys, "argv", [script.__file__, *argv])
    assert script.main() == code
    assert capsys.readouterr().out.splitlines() == lines
