import json

import numpy as np
import pytest

from labelforge.cli import apply_overrides, load_config, main


BASE_INI = """\
[synth]
num_ids = 20
samples_per_id = 10
dim = 16
within_id_sigma = 0.15
seed = 0

[split]
labeled_id_fraction = 0.5
overlap_id_fraction = 0.3
seed = 1

[cluster]
gcn_epochs = 60

[eval]
holdout_per_id = 2
"""


@pytest.fixture
def base_config(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text(BASE_INI)
    return str(path)


def _write_ini(tmp_path, text, name="bad.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- config validation (exit code 1) ---

def test_unknown_section_rejected(tmp_path, capsys):
    cfg = _write_ini(tmp_path, "[bogus]\nx = 1\n")
    assert main(["run", "--config", cfg]) == 1
    assert "bogus" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = _write_ini(tmp_path, "[synth]\nnum_identities = 5\n")
    assert main(["run", "--config", cfg]) == 1
    assert "num_identities" in capsys.readouterr().err


def test_bad_value_rejected(tmp_path, capsys):
    cfg = _write_ini(tmp_path, "[knn]\nk = three\n")
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "knn" in err and "k" in err


def test_bad_algorithm_rejected(tmp_path, capsys):
    cfg = _write_ini(tmp_path, "[cluster]\nalgorithm = spectral\n")
    assert main(["run", "--config", cfg]) == 1
    assert "spectral" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "nope.ini" in capsys.readouterr().err


def test_threads_must_be_positive(base_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", base_config, "--out", out, "--threads", "0"]) == 1
    assert "threads" in capsys.readouterr().err


# --- stage errors (exit code 2) ---

def test_stage_without_artifacts_exits_2(base_config, tmp_path, capsys):
    out = str(tmp_path / "empty")
    assert main(["cluster", "--config", base_config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "cluster" in err  # message names the stage
    assert "decisions" in err or "train.emb" in err  # and the missing path


def test_report_before_stages_exits_2(base_config, tmp_path, capsys):
    out = str(tmp_path / "empty")
    assert main(["report", "--config", base_config, "--out", out]) == 2
    assert "stage_gen.json" in capsys.readouterr().err


# --- overrides ---

def test_seed_override_rederives_stage_seeds(base_config):
    cfg = load_config(base_config)
    apply_overrides(cfg, seed=100)
    assert cfg["synth"]["seed"] == 100
    assert cfg["split"]["seed"] == 101
    # every derived seed is distinct
    seeds = [
        cfg["synth"]["seed"], cfg["split"]["seed"], cfg["eval"]["seed"],
        cfg["cluster"]["gcn_seed"], cfg["cluster"]["kmeans_seed"],
        cfg["noise"]["classifier_seed"], cfg["train"]["seed"],
    ]
    assert len(set(seeds)) == len(seeds)


def test_out_override(base_config, tmp_path):
    cfg = load_config(base_config)
    apply_overrides(cfg, out=str(tmp_path / "elsewhere"))
    assert cfg.out_dir == str(tmp_path / "elsewhere")


# --- full runs ---

def _strip_wall_clock(payload):
    if isinstance(payload, dict):
        return {
            k: _strip_wall_clock(v)
            for k, v in payload.items()
            if k != "wall_clock_sec"
        }
    return payload


def _load_report(out_dir):
    with open(f"{out_dir}/report.json") as fh:
        return _strip_wall_clock(json.load(fh))


def test_run_pipeline_smoke(base_config, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", "--config", base_config, "--out", out]) == 0
    report = _load_report(out)
    assert set(report["stages"]) == {
        "gen", "separate", "cluster", "noise", "retrain", "evaluate"
    }
    ev = report["stages"]["evaluate"]
    for variant in ("baseline", "hard", "soft"):
        assert 0.0 <= ev[variant]["verification_accuracy"] <= 1.0


def test_staged_execution_equals_run(base_config, tmp_path):
    out = str(tmp_path / "out")
    for stage in ("gen", "separate", "cluster", "noise", "retrain", "evaluate", "report"):
        assert main([stage, "--config", base_config, "--out", out]) == 0
    staged = _load_report(out)
    assert main(["run", "--config", base_config, "--out", out]) == 0
    assert _load_report(out) == staged


def test_evt_disabled_treats_everything_as_disjoint(tmp_path):
    cfg = _write_ini(
        tmp_path,
        BASE_INI.replace("overlap_id_fraction = 0.3", "overlap_id_fraction = 0")
        + "\n[evt]\nenabled = false\n",
        name="disjoint.ini",
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    report = _load_report(out)
    counts = report["stages"]["separate"]["counts"]
    assert counts["overlap"] == 0 and counts["rejected"] == 0
    assert counts["disjoint"] == report["stages"]["gen"]["n_unlabeled"]


def test_degenerate_clustering_falls_back_to_zero_p_minus(tmp_path):
    # dbscan on this harness collapses to one giant cluster; the noise
    # stage cannot fit a model and must fall back to p_minus == 0
    cfg = _write_ini(
        tmp_path,
        BASE_INI.replace("gcn_epochs = 60", "algorithm = dbscan\ngcn_epochs = 60"),
        name="dbscan.ini",
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--seed", "0"]) == 0
    report = _load_report(out)
    ns = report["stages"]["noise"]
    assert ns["otsu_t"] is None
    assert ns["mean_p_minus"] == 0.0
    pm = np.loadtxt(f"{out}/pseudo_clusters_pm.csv", delimiter=",", skiprows=1)
    assert np.all(pm[:, 2] == 0.0)


def test_report_is_sorted_and_finite(base_config, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", "--config", base_config, "--out", out]) == 0
    with open(f"{out}/report.json") as fh:
        text = fh.read()
    # sorted keys and no NaN/Infinity tokens in the serialized report
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
    assert "NaN" not in text and "Infinity" not in text


# --- GCN training keys ---

@pytest.mark.parametrize(
    "line, key",
    [
        ("gcn_batch_size = 0", "gcn_batch_size"),
        ("gcn_epochs = -1", "gcn_epochs"),
        ("gcn_lr = nan", "gcn_lr"),
    ],
)
def test_gcn_key_out_of_range_rejected(tmp_path, capsys, line, key):
    cfg = _write_ini(tmp_path, BASE_INI.replace("gcn_epochs = 60", line))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_gcn_divergence_exits_2(tmp_path, capsys):
    cfg = _write_ini(tmp_path, BASE_INI.replace("gcn_epochs = 60", "gcn_epochs = 60\ngcn_lr = 1e150"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "cluster" in err and "diverged" in err
