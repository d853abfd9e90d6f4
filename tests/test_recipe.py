"""The seeded recipe in tools/recipe.py runs every CLI stage, records a hash
per artifact, and its compare mode tells two records apart. The ``recipe`` and
``tiny_record`` fixtures are in conftest.py; test_cli.py::test_full_recipe
checks what each stage of the same tiny run writes."""

import json

from shm_fomo.anomaly_head import FILTER_LENGTHS

REGIMES = ("no_pretrain", "pretrain_uc", "pretrain_all")   # the ablation's
STAGE_FILES = {
    "synth-gen-normal": {"manifest.json", "rec_normal_000.bin", "rec_normal_001.bin",
                         "rec_normal_002.bin"},
    "synth-gen-damaged": {"manifest.json", "rec_damaged_000.bin"},
    "synth-gen-traffic": {"manifest.json", "rec_traffic_000.bin", "rec_traffic_001.bin"},
    **{f"preprocess-{name}": {"dataset.shmd", "preprocess.json"}
       for name in ("ad-train", "ad-calib", "ad-test", "tle-train", "tle-test", "tle-pool")},
    **{stage: {"checkpoint.ckpt", "trainlog.csv"}
       for stage in ("pretrain", "finetune-ad", "finetune-tle", "pretrain-student", "distill",
                     "pretrain-uc", "pretrain-all", *(f"finetune-tle-{r}" for r in REGIMES))},
    "eval-ad": {"decisions.csv", "report.csv"},
    "baseline-pca-ad": {"report.csv"},
    **{stage: {"predictions.csv", "report.csv"}
       for stage in ("eval-tle", "eval-tle-student", "baseline-knn-tle", "baseline-linreg-tle",
                     *(f"eval-tle-{r}" for r in REGIMES))},
}


def test_tiny_run_records_every_artifact(tiny_record):
    rec = json.loads(tiny_record.read_text())
    assert set(rec["artifacts"]) == {f"{stage}/{name}" for stage, names in STAGE_FILES.items()
                                     for name in names}
    assert set(rec["seconds"]) == set(STAGE_FILES)
    assert [r["filter_len"] for r in rec["reports"]["eval-ad"]] == [
        str(L) for L in FILTER_LENGTHS]
    for regime in REGIMES:
        assert [r["model_id"] for r in rec["reports"][f"eval-tle-{regime}"]] == ["mae"]


def test_compare_exits_1_on_one_changed_hash(recipe, tiny_record, tmp_path, capsys):
    assert recipe.main(["--compare", str(tiny_record), str(tiny_record)]) == 0
    assert "0 differ" in capsys.readouterr().out
    rec = json.loads(tiny_record.read_text())
    rec["artifacts"]["pretrain/checkpoint.ckpt"] = "0" * 64
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(rec))
    assert recipe.main(["--compare", str(tiny_record), str(edited)]) == 1
    assert "differs: pretrain/checkpoint.ckpt" in capsys.readouterr().out
