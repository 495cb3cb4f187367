import functools
import json
import os
import shutil
import signal

import numpy as np
import pytest

from labelforge import cli, cluster, errors, noise, train
from labelforge.cli import SCHEMA, apply_overrides, load_config, main, run_pipeline
from labelforge.evt import WeibullParams


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

[cluster]
gcn_epochs = 60

[eval]
holdout_per_id = 2
"""

TINY_INI = BASE_INI.replace("gcn_epochs = 60", "gcn_epochs = 5") + "\n[train]\nepochs = 5\n"
# TINY_INI's [cluster], [train] and [eval], for a harness of another size
TINY_SECTIONS = "[cluster]\ngcn_epochs = 5\n\n[train]\nepochs = 5\n\n[eval]\nholdout_per_id = 2\n"


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
    cfg = _write_ini(tmp_path, "[train]\nepochs = three\n")
    assert main(["run", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: bad value for [train] epochs: ")


def test_bad_algorithm_rejected(tmp_path, capsys):
    cfg = _write_ini(tmp_path, "[cluster]\nalgorithm = spectral\n")
    assert main(["run", "--config", cfg]) == 1
    assert "spectral" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "nope.ini" in capsys.readouterr().err


def test_non_utf8_config_rejected(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[synth]\nseed = \xff\xfe\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: malformed config {path}:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text", ["[DEFAULT]\nseed = 3\n", "[DEFAULT]\nk = 3\n\n[synth]\nseed = 3\n"],
    ids=["alone", "beside-synth"],
)
def test_default_section_rejected(tmp_path, capsys, text):
    # configparser copies [DEFAULT] keys into every section
    cfg = _write_ini(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "config error: unknown config section [DEFAULT]\n"


def test_threads_flag_rejected(base_config, tmp_path, capsys):
    # the k-NN build has one path; argparse rejects the old flag like any unknown one
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--config", base_config, "--out", str(tmp_path / "out"), "--threads", "2"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


# --- stage errors (exit code 2) ---

# stage -> the input its first reader opens
FIRST_INPUT = {"separate": "train_emb.npz", "cluster": "train_emb.npz", "noise": "train_emb.npz",
               "retrain": "train_emb.npz", "evaluate": "test_emb.npz", "report": "stage_gen.json"}


@pytest.mark.parametrize("stage", FIRST_INPUT)
def test_stage_without_artifacts_exits_2(base_config, tmp_path, capsys, stage):
    out = str(tmp_path / "empty")
    assert main([stage, "--config", base_config, "--out", out]) == 2
    err = capsys.readouterr().err
    # the message names the stage and the missing path
    assert err.startswith(f"error: stage '{stage}' failed:") and FIRST_INPUT[stage] in err


def test_out_naming_a_file_exits_2(base_config, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["gen", "--config", base_config, "--out", str(afile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'gen' failed:") and str(afile) in err
    assert "Traceback" not in err


def test_stage_rejects_output_of_another_config(base_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["gen", "--config", base_config, "--out", out, "--seed", "0"]) == 0
    assert main(["separate", "--config", base_config, "--out", out, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'separate' failed: stage 'gen' ran under a different")


def test_negative_seed_override_rejected(base_config, tmp_path, capsys):
    assert main(["gen", "--config", base_config, "--out", str(tmp_path), "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("config error: --seed")


# --- overrides ---

def test_seed_override_rederives_stage_seeds(base_config):
    cfg = load_config(base_config)
    apply_overrides(cfg, seed=100)
    assert cfg["synth"]["seed"] == 100
    assert cfg.seed("split") == 101
    # every derived seed is distinct
    seeds = [
        cfg.seed("synth"), cfg.seed("split"), cfg.seed("eval"),
        cfg.seed("gcn"), cfg.seed("kmeans"),
        cfg.seed("classifier"), cfg.seed("train"),
    ]
    assert len(set(seeds)) == len(seeds)


# every key the removed sections held: a config with either section exits 1,
# whatever it holds
REMOVED_SECTIONS = {
    "knn": "k = 8\nthresholds = 0.5\nthreshold_count = 12\nmax_size = 100\n",
    "noise": "metric = class_margin\ngamma = 1\nclassifier_seed = 5\nclassifier_epochs = 30\n"
             "n_bins = 64\nclassifier_lr = 1.0\n",
}


# every seed derives from [synth] seed; the keys after that are fixed at the
# defaults of the functions they fed, or at the rule their sentinel chose,
# DBSCAN went, every head trains with its encoder, and the [knn] and [noise]
# sections went whole
@pytest.mark.parametrize("section, key", [
    ("split", "seed"), ("eval", "seed"), ("cluster", "gcn_seed"), ("cluster", "kmeans_seed"),
    ("train", "seed"), ("cluster", "min_cluster_size"), ("cluster", "gcn_batch_size"),
    ("evt", "n_bins"), ("evt", "confidence"), ("train", "alpha"), ("train", "margin_m"),
    ("train", "batch_size"), ("eval", "fars"), ("eval", "ks"), ("cluster", "kmeans_k"),
    ("cluster", "augment_unions"), ("train", "merge_overlap"), ("cluster", "dbscan_eps"),
    ("cluster", "dbscan_min_size"), ("train", "lr"), ("cluster", "gcn_lr"),
    ("train", "with_encoder"), ("knn", "thresholds"), ("knn", "threshold_count"),
    ("knn", "max_size"), ("noise", "classifier_seed"), ("noise", "classifier_epochs"),
    ("noise", "n_bins"), ("noise", "classifier_lr"),
])
def test_removed_key_rejected(tmp_path, capsys, section, key):
    # a removed key is rejected as unknown whatever its value; in a removed
    # section the section is rejected first
    cfg = _write_ini(tmp_path, f"[{section}]\n{key} = 1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    if section in REMOVED_SECTIONS:
        assert err == f"config error: unknown config section [{section}]\n"
    else:
        assert err.startswith("config error: unknown key") and repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section", REMOVED_SECTIONS)
def test_removed_section_rejected(tmp_path, capsys, section):
    cfg = _write_ini(tmp_path, f"{BASE_INI}\n[{section}]\n{REMOVED_SECTIONS[section]}")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: unknown config section [{section}]\n"


def test_every_schema_key_is_read(tmp_path):
    # a key that no run reads would be a setting that changes nothing
    read = set()

    class Recording(dict):
        def __init__(self, section, values):
            super().__init__(values)
            self.section = section

        def __getitem__(self, key):
            read.add((self.section, key))
            return super().__getitem__(key)

    for algorithm in ("gcn", "kmeans", "hac"):
        text = TINY_INI.replace("[cluster]\n", f"[cluster]\nalgorithm = {algorithm}\n")
        cfg = load_config(_write_ini(tmp_path, text, f"{algorithm}.ini"))
        cfg.values = {s: Recording(s, v) for s, v in cfg.values.items()}
        run_pipeline(apply_overrides(cfg, out=str(tmp_path / algorithm)))
    assert {(s, k) for s, keys in SCHEMA.items() for k in keys} - read == set()


def test_run_help_lists_every_default(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    for section, keys in SCHEMA.items():
        for key, (_, default) in keys.items():
            assert f"[{section}] {key} = {default!r}\n" in out


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
    # one cluster of every sample (HAC at the largest cosine distance): the
    # noise stage cannot fit a model and must fall back to p_minus == 0
    cfg = _write_ini(
        tmp_path,
        BASE_INI.replace("gcn_epochs = 60", "algorithm = hac\nhac_threshold = 2"),
        name="one_cluster.ini",
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--seed", "0"]) == 0
    report = _load_report(out)
    assert report["stages"]["cluster"]["num_clusters"] == 1
    ns = report["stages"]["noise"]
    assert ns["otsu_t"] is None
    assert ns["mean_p_minus"] == 0.0
    with np.load(f"{out}/pseudo_clusters_pm.npz") as z:
        assert np.all(z["p_minus"] == 0.0)


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
        # no longer a key: rejected as unknown
        ("gcn_batch_size = 0", "gcn_batch_size"),
        ("gcn_lr = nan", "gcn_lr"),
    ],
)
def test_gcn_key_out_of_range_rejected(tmp_path, capsys, line, key):
    cfg = _write_ini(tmp_path, BASE_INI.replace("gcn_epochs = 60", line))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown key") and repr(key) in err


# --- value ranges ---

# test id -> (text of BASE_INI, its replacement, the text the error must hold);
# a removed key is rejected as unknown whatever its value, and a key of a
# removed section as that section
OUT_OF_RANGE = {
    "algorithm=dbscan": ("gcn_epochs = 60", "algorithm = dbscan", "algorithm"),
    "gcn_epochs=-1": ("gcn_epochs = 60", "gcn_epochs = -1", "[cluster] gcn_epochs"),
    "hac_threshold": ("gcn_epochs = 60", "algorithm = hac\nhac_threshold = nan", "hac_threshold"),
    "hac_threshold=-1": (
        "gcn_epochs = 60", "algorithm = hac\nhac_threshold = -1", "[cluster] hac_threshold"
    ),
    "labeled_id_fraction": (
        "labeled_id_fraction = 0.5", "labeled_id_fraction = nan", "labeled_id_fraction"
    ),
    "labeled_id_fraction=0": (
        "labeled_id_fraction = 0.5", "labeled_id_fraction = 0", "[split] labeled_id_fraction"
    ),
    "labeled_id_fraction=1": (
        "labeled_id_fraction = 0.5\noverlap_id_fraction = 0.3",
        "labeled_id_fraction = 1.0\noverlap_id_fraction = 0",
        "[split] labeled_id_fraction",
    ),
    "overlap_id_fraction": (
        "overlap_id_fraction = 0.3", "overlap_id_fraction = 1.5", "[split] overlap_id_fraction"
    ),
    "num_ids": ("num_ids = 20", "num_ids = 1", "[synth] num_ids"),
    "samples_per_id": ("samples_per_id = 10", "samples_per_id = 0", "[synth] samples_per_id"),
    "samples_per_id_max": (
        "samples_per_id = 10", "samples_per_id = 10\nsamples_per_id_max = -1",
        "[synth] samples_per_id_max",
    ),
    "samples_per_id_max<samples_per_id": (
        "samples_per_id = 10", "samples_per_id = 10\nsamples_per_id_max = 5",
        "[synth] samples_per_id_max = 5 is below [synth] samples_per_id = 10",
    ),
    "dim": ("dim = 16", "dim = 1", "[synth] dim"),
    "within_id_sigma": (
        "within_id_sigma = 0.15", "within_id_sigma = -1", "[synth] within_id_sigma"
    ),
    "seed": ("seed = 0", "seed = -1", "[synth] seed"),
    "epochs": ("[eval]", "[train]\nepochs = -1\n\n[eval]", "[train] epochs"),
    "pairs_per_class": (
        "holdout_per_id = 2", "holdout_per_id = 2\npairs_per_class = 0", "[eval] pairs_per_class"
    ),
    "k": ("[eval]", "[knn]\nk = 0\n\n[eval]", "unknown config section [knn]"),
    "threshold_count": (
        "[eval]", "[knn]\nthreshold_count = 0\n\n[eval]", "unknown config section [knn]"
    ),
    "max_size": ("[eval]", "[knn]\nmax_size = 0\n\n[eval]", "unknown config section [knn]"),
    "gamma": ("[eval]", "[noise]\ngamma = inf\n\n[eval]", "unknown config section [noise]"),
    "gamma=-1": ("[eval]", "[noise]\ngamma = -1\n\n[eval]", "unknown config section [noise]"),
    "classifier_epochs": (
        "[eval]", "[noise]\nclassifier_epochs = 0\n\n[eval]", "unknown config section [noise]"
    ),
    "noise_n_bins": (
        "[eval]", "[noise]\nn_bins = 1\n\n[eval]", "unknown config section [noise]"
    ),
    "min_cluster_size": (
        "gcn_epochs = 60", "gcn_epochs = 60\nmin_cluster_size = 0",
        "unknown key 'min_cluster_size'",
    ),
    "evt_n_bins": (
        "[eval]", "[evt]\nn_bins = 1\n\n[eval]", "unknown key 'n_bins' in section [evt]"
    ),
    "confidence": ("[eval]", "[evt]\nconfidence = 1\n\n[eval]", "unknown key 'confidence'"),
    "alpha": ("[eval]", "[train]\nalpha = 0\n\n[eval]", "unknown key 'alpha'"),
    "margin_m": ("[eval]", "[train]\nmargin_m = 2\n\n[eval]", "unknown key 'margin_m'"),
    "batch_size": ("[eval]", "[train]\nbatch_size = 0\n\n[eval]", "unknown key 'batch_size'"),
    "ks": ("holdout_per_id = 2", "holdout_per_id = 2\nks = 1, 0", "unknown key 'ks'"),
    "fars": ("holdout_per_id = 2", "holdout_per_id = 2\nfars = 0.01, 2", "unknown key 'fars'"),
}


@pytest.mark.parametrize("old, new, key", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_config_value_out_of_range_rejected(tmp_path, capsys, old, new, key):
    cfg = _write_ini(tmp_path, BASE_INI.replace(old, new))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert "Traceback" not in err


# --- baseline algorithms ---

@pytest.mark.parametrize("algorithm", ["kmeans", "hac"])
def test_baseline_algorithm_runs(tmp_path, algorithm):
    cfg = _write_ini(tmp_path, TINY_INI.replace("gcn_epochs = 5", f"algorithm = {algorithm}"))
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    stage = _load_report(out)["stages"]["cluster"]
    assert stage["algorithm"] == algorithm
    assert stage["n_clustered_input"] > 0


def test_kmeans_reports_the_k_it_used(tmp_path):
    text = TINY_INI.replace("gcn_epochs = 5", "algorithm = kmeans")
    out = str(tmp_path / "out")
    assert main(["run", "--config", _write_ini(tmp_path, text), "--out", out]) == 0
    stage = _load_report(out)["stages"]["cluster"]
    # K comes from the harness's identity size, samples_per_id = 10
    assert stage["kmeans"] == {"k": max(2, stage["n_clustered_input"] // 10)}


# the learning rates are constants: a divergence test raises one in the module
def test_gcn_divergence_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cluster, "gcn_train", functools.partial(cluster.gcn_train, lr=1e150))
    cfg = _write_ini(tmp_path, BASE_INI)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "cluster" in err and "diverged" in err


def test_head_divergence_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(train, "train_head", functools.partial(train.train_head, lr=1e30))
    cfg = _write_ini(tmp_path, BASE_INI)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'separate' failed:") and "diverged" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def run_through_noise(tmp_path_factory):
    """(config, output directory of a run of every stage before retrain)."""
    root = tmp_path_factory.mktemp("through-noise")
    cfg = _write_ini(root, TINY_INI, name="tiny.ini")
    for stage in ("gen", "separate", "cluster", "noise"):
        assert main([stage, "--config", cfg, "--out", str(root / "out")]) == 0
    return cfg, root / "out"


# the two heads train at the same time; the hard head's outcome comes first
@pytest.mark.parametrize(
    "diverging, written",
    [({"soft"}, ["hard.npz"]), ({"hard"}, []), ({"hard", "soft"}, [])],
    ids=["soft", "hard", "both"],
)
def test_retrain_head_divergence_exits_2(run_through_noise, tmp_path, capsys, monkeypatch,
                                         diverging, written):
    cfg, finished = run_through_noise
    out = tmp_path / "out"
    shutil.copytree(finished, out)
    real = train.train_head
    # one learning rate per head: the message names the one that failed
    lrs = {"hard": 1e30, "soft": 1e31}

    def train_head(*args, use_weights=False, **kwargs):
        variant = "soft" if use_weights else "hard"
        if variant in diverging:
            kwargs["lr"] = lrs[variant]
        return real(*args, use_weights=use_weights, **kwargs)

    monkeypatch.setattr(train, "train_head", train_head)
    assert main(["retrain", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'retrain' failed:") and "diverged" in err
    assert f"(lr={lrs['hard' if 'hard' in diverging else 'soft']})" in err
    assert "Traceback" not in err
    assert not (out / "stage_retrain.json").exists()
    assert [name for name in ("hard.npz", "soft.npz") if (out / name).exists()] == written


def _raise_unpicklable():
    # pickles, but does not unpickle: StageFailure takes two arguments
    raise errors.StageFailure("retrain", ValueError())


# the soft head trains in a forked child: a child that sends no readable
# result fails the stage by its exit status, and none outlives it
@pytest.mark.parametrize(
    "end, how",
    [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
        (_raise_unpicklable, "exit status 0"),
    ],
    ids=["exit", "killed", "unreadable"],
)
def test_retrain_soft_child_without_result_exits_2(run_through_noise, tmp_path, capsys,
                                                   monkeypatch, end, how):
    cfg, finished = run_through_noise
    out = tmp_path / "out"
    shutil.copytree(finished, out)
    real = train.train_head

    def train_head(*args, use_weights=False, **kwargs):
        if use_weights:
            end()
        return real(*args, use_weights=use_weights, **kwargs)

    monkeypatch.setattr(train, "train_head", train_head)
    assert main(["retrain", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: stage 'retrain' failed: the soft head's process ended ({how}) "
                   "without a readable result\n")
    assert [name for name in ("hard.npz", "soft.npz", "stage_retrain.json")
            if (out / name).exists()] == ["hard.npz"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_noise_classifier_divergence_exits_2(tmp_path, capsys, recwarn, monkeypatch):
    monkeypatch.setattr(
        noise, "train_linear_classifier",
        functools.partial(noise.train_linear_classifier, lr=1e30),
    )
    # k-means leaves the noise stage several clusters to train on
    ini = TINY_INI.replace("[cluster]\n", "[cluster]\nalgorithm = kmeans\n")
    cfg = _write_ini(tmp_path, ini)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'noise' failed:") and "diverged" in err
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_k_at_or_above_sample_count_exits_2(tmp_path, capsys):
    # two labeled identities of 4 samples: the labeled graph has 8 samples for k = 8
    text = "[synth]\nnum_ids = 4\nsamples_per_id = 4\ndim = 16\n\n" + TINY_SECTIONS
    cfg = _write_ini(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'cluster' failed:") and "k=8 out of range for n=8" in err


# --- artifacts: one format, unreadable files exit 2 ---

@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """Output directory of one complete pipeline run, shared read-only."""
    root = tmp_path_factory.mktemp("finished")
    cfg = root / "tiny.ini"
    cfg.write_text(TINY_INI)
    out = root / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return str(cfg), out


@pytest.fixture
def run_copy(finished_run, tmp_path):
    """(config, writable copy of the finished run's output directory)."""
    cfg, out = finished_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return cfg, copy


def _stage_exit(capsys, stage, cfg, out):
    code = main([stage, "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


# one cluster: the noise stage fits no model
ONE_CLUSTER_INI = TINY_INI.replace("[cluster]\n", "[cluster]\nalgorithm = hac\nhac_threshold = 2\n")


@pytest.mark.parametrize(
    "ini", [TINY_INI, ONE_CLUSTER_INI + "\n[evt]\nenabled = false\n"], ids=["gcn", "no-fits"]
)
def test_output_directory_holds_one_artifact_format(tmp_path, ini):
    # every config writes the same files: each one a later stage reads, a
    # stage fragment or the report
    out = tmp_path / "out"
    assert main(["run", "--config", _write_ini(tmp_path, ini), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["train_emb.npz", "test_emb.npz", "train_labels.npz", "test_labels.npz", "split.npz",
         "baseline.npz", "decisions.npz", "pseudo_clusters.npz", "pseudo_clusters_pm.npz",
         "hard.npz", "soft.npz", "report.json"]
        + [f"stage_{name}.json" for name in
           ("gen", "separate", "cluster", "noise", "retrain", "evaluate")]
    )


def test_report_holds_the_fits_the_cuts_come_from(finished_run):
    _, out = finished_run
    stages = _load_report(out)["stages"]
    sep, noi = stages["separate"], stages["noise"]
    assert float(WeibullParams(**sep["low"]).quantile(0.95)) == sep["lower_cut"]
    assert float(WeibullParams(**sep["high"]).quantile(0.05)) == sep["upper_cut"]
    assert (noi["wb_low"] is None) == (noi["otsu_t"] is None)


# a lower mode of equal scores: no within-identity spread, HAC at distance 0
EQUAL_SCORES_INI = """\
[synth]
num_ids = 20
samples_per_id = 20
dim = 16
within_id_sigma = 0
seed = 1

[split]
overlap_id_fraction = 0.3

[cluster]
algorithm = hac
hac_threshold = 0
"""


@pytest.mark.parametrize(
    "ini, why",
    [(ONE_CLUSTER_INI, "need >= 2 clusters, got 1"),
     (EQUAL_SCORES_INI, "a side of Otsu threshold is all one score: 20 / 100")],
    ids=["one-cluster", "equal-scores"],
)
def test_noise_fallback_treats_every_assignment_as_clean(tmp_path, ini, why):
    out = tmp_path / "out"
    assert main(["run", "--config", _write_ini(tmp_path, ini), "--out", str(out)]) == 0
    noi = _load_report(out)["stages"]["noise"]
    assert noi["no_fit"] == why
    assert noi["otsu_t"] is None and noi["wb_low"] is None and noi["mean_p_minus"] == 0.0


def test_one_sided_scores_fall_back_to_all_disjoint(run_copy, tmp_path):
    # at the default within_id_sigma, 4 identities and no overlap leave 20
    # unlabeled max-logit scores, 13 / 7 about the Otsu threshold: too few to
    # fit the upper mode, so separate marks every sample disjoint, as with EVT
    # disabled
    _, out = run_copy
    text = (TINY_INI.replace("within_id_sigma = 0.15\n", "").replace("num_ids = 20", "num_ids = 4")
            .replace("overlap_id_fraction = 0.3", "overlap_id_fraction = 0"))
    assert main(["run", "--config", _write_ini(tmp_path, text), "--out", str(out)]) == 0
    stages = _load_report(out)["stages"]
    assert stages["separate"]["no_fit"] == "sides of Otsu threshold too small: 13 / 7"
    n = stages["gen"]["n_unlabeled"]
    assert stages["separate"]["counts"] == {"disjoint": n, "overlap": 0, "rejected": 0}
    assert stages["cluster"]["n_clustered_input"] == n


def test_unlabeled_scores_all_equal_fall_back_to_all_disjoint(tmp_path):
    # one unlabeled identity with no spread: its max-logit scores are all
    # one value, which no threshold splits
    text = "[synth]\nnum_ids = 3\nsamples_per_id = 10\ndim = 16\nwithin_id_sigma = 0\n\n"
    out = tmp_path / "out"
    cfg = _write_ini(tmp_path, text + TINY_SECTIONS)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    stages = _load_report(out)["stages"]
    assert stages["separate"]["no_fit"] == "fewer than 2 distinct scores among 10"
    n = stages["gen"]["n_unlabeled"]
    assert stages["separate"]["counts"] == {"disjoint": n, "overlap": 0, "rejected": 0}


@pytest.mark.parametrize(
    "name, stage",
    [("baseline.npz", "retrain"), ("baseline.npz", "evaluate"), ("hard.npz", "evaluate"),
     ("split.npz", "separate"), ("decisions.npz", "cluster")],
)
def test_truncated_archive_exits_2(run_copy, capsys, name, stage):
    cfg, out = run_copy
    blob = (out / name).read_bytes()
    (out / name).write_bytes(blob[: len(blob) // 2])
    code, err = _stage_exit(capsys, stage, cfg, out)
    assert code == 2
    assert err.startswith(f"error: stage '{stage}' failed:") and name in err


def test_retrained_heads_equal_two_trainings_in_turn(finished_run, tmp_path):
    # the stage trains the soft head in a forked child beside the hard one
    cfg_path, out = finished_run
    cfg = apply_overrides(load_config(cfg_path), out=str(out))
    train_emb, train_labels, labeled_idx, unlabeled_idx, _ = cli._load_split(cfg)
    dis_emb, _ = cli._load_disjoint(cfg, train_emb, train_labels, unlabeled_idx)
    pseudo = (dis_emb, cli._load_clustering(cfg, "pseudo_clusters_pm.npz", dis_emb.n))
    labeled = cli._subset(train_emb, train_labels, labeled_idx)
    for variant, use_weights in (("hard", False), ("soft", True)):
        model = cli._train_head(cfg, labeled, pseudo, use_weights)
        train.save_trained_model(model, tmp_path / f"{variant}.npz")
        assert (tmp_path / f"{variant}.npz").read_bytes() == (out / f"{variant}.npz").read_bytes()


def test_missing_model_archive_exits_2(run_copy, capsys):
    cfg, out = run_copy
    # evaluate needs every model, not only the baseline
    for name, stage in (("hard.npz", "evaluate"), ("baseline.npz", "retrain")):
        (out / name).unlink()
        code, err = _stage_exit(capsys, stage, cfg, out)
        assert code == 2 and name in err


def test_non_archive_split_exits_2(run_copy, capsys):
    cfg, out = run_copy
    (out / "split.npz").write_text("index\n0\njunk\n")
    code, err = _stage_exit(capsys, "cluster", cfg, out)
    assert code == 2 and "split.npz" in err


def test_archive_missing_array_exits_2(run_copy, capsys):
    cfg, out = run_copy
    _drop_array(out / "baseline.npz", "head")
    code, err = _stage_exit(capsys, "retrain", cfg, out)
    assert code == 2 and "'head'" in err


def test_archive_arrays_must_fit_together(run_copy, capsys):
    cfg, out = run_copy
    with np.load(out / "split.npz") as z:
        split = {k: z[k] for k in z.files}
    split["overlap_mask"] = split["overlap_mask"][:-1]
    np.savez(out / "split.npz", **split)
    code, err = _stage_exit(capsys, "noise", cfg, out)
    assert code == 2 and "'overlap_mask'" in err


def test_decisions_must_match_unlabeled_count(run_copy, capsys):
    cfg, out = run_copy
    with np.load(out / "decisions.npz") as z:
        decisions = z["decisions"]
    np.savez(out / "decisions.npz", decisions=decisions[:-1])
    code, err = _stage_exit(capsys, "retrain", cfg, out)
    assert code == 2 and "unlabeled samples" in err


def test_unknown_decision_code_exits_2(run_copy, capsys):
    cfg, out = run_copy
    with np.load(out / "decisions.npz") as z:
        decisions = z["decisions"]
    decisions[0] = 7
    np.savez(out / "decisions.npz", decisions=decisions)
    code, err = _stage_exit(capsys, "cluster", cfg, out)
    assert code == 2 and "decision code 7" in err


def test_split_index_out_of_range_exits_2(run_copy, capsys):
    cfg, out = run_copy
    with np.load(out / "split.npz") as z:
        split = {k: z[k] for k in z.files}
    split["labeled_idx"][-1] = 10**6
    np.savez(out / "split.npz", **split)
    code, err = _stage_exit(capsys, "separate", cfg, out)
    assert code == 2 and "out of range" in err


def test_report_rejects_fragments_of_another_config(run_copy, tmp_path, capsys):
    cfg, out = run_copy
    other = _write_ini(tmp_path, TINY_INI.replace("epochs = 5\n", "epochs = 6\n"), "other.ini")
    code, err = _stage_exit(capsys, "report", other, out)
    assert code == 2
    assert err.startswith("error: stage 'report' failed: stage 'gen' ran under a different config")
    # a full run under the new config replaces every fragment
    assert _stage_exit(capsys, "run", other, out)[0] == 0


def test_corrupt_stage_fragment_fails_report(run_copy, capsys):
    cfg, out = run_copy
    (out / "stage_gen.json").write_text('{"n_train": ')
    code, err = _stage_exit(capsys, "report", cfg, out)
    assert code == 2
    assert err.startswith("error: stage 'report' failed:") and "stage_gen.json" in err


# --- malformed embeddings, labels and clusterings exit 2, naming their cause ---

def _edit_archive(path, edit, names=None):
    """Replace each array ``names`` lists (every array by default) of the
    archive at ``path`` by ``edit`` of it."""
    with np.load(path) as z:
        arrays = {name: z[name] for name in z.files}
    for name in names or list(arrays):
        arrays[name] = edit(arrays[name])
    np.savez(path, **arrays)


def _drop_array(path, name):
    """Rewrite the archive at ``path`` without its array ``name``."""
    with np.load(path) as z:
        kept = {k: z[k] for k in z.files if k != name}
    np.savez(path, **kept)


def _put(index, value):
    """An edit that sets ``array[index]`` to ``value(array)``."""
    def edit(array):
        array[index] = value(array)
        return array
    return edit


PM = "pseudo_clusters_pm.npz"


def _share_split_indices(out):
    """Point the first 10 unlabeled indices of split.npz at labeled samples."""
    with np.load(out / "split.npz") as z:
        labeled = z["labeled_idx"]
    _edit_archive(out / "split.npz", _put(slice(0, 10), lambda u: labeled[:10]), ["unlabeled_idx"])


def _narrow_model(out):
    """Drop the last embedding dimension of soft.npz's head and encoder."""
    _edit_archive(out / "soft.npz", lambda head: head[:, :-1], ["head"])
    _edit_archive(out / "soft.npz", lambda enc: enc[:, :-1, :-1], ["encoder"])


@pytest.mark.parametrize(
    "edit, stage, cause",
    [
        (lambda out: _edit_archive(out / PM, lambda p: np.full(p.shape, "abc"), ["p_minus"]),
         "retrain", "array 'p_minus' is <U3"),
        (lambda out: _edit_archive(out / PM, _put(2, lambda p: 1.5), ["p_minus"]), "retrain",
         "p_minus values must lie in [0, 1]"),
        (lambda out: _edit_archive(out / PM, _put(2, lambda p: np.nan), ["p_minus"]), "retrain",
         "p_minus values must lie in [0, 1]"),
        # without p⁻ the soft head trained as the hard one, byte for byte
        (lambda out: _drop_array(out / PM, "p_minus"), "retrain",
         "pseudo_clusters_pm.npz: missing array 'p_minus'"),
        (lambda out: _edit_archive(out / PM, _put(2, lambda a: a.max() + 2), ["assignment"]),
         "retrain", "cluster ids must be contiguous with no gaps"),
        (lambda out: _edit_archive(out / "train_emb.npz", _put(0, lambda r: 2 * r[0])),
         "separate", "normalized flag set but rows are not unit-norm"),
        (lambda out: _edit_archive(out / "test_emb.npz", _put(0, lambda r: np.nan)), "evaluate",
         "normalized flag set but rows are not unit-norm"),
        (lambda out: _edit_archive(out / "pseudo_clusters.npz", lambda a: a[:-5]), "noise",
         " disjoint samples"),
        (lambda out: _edit_archive(out / PM, lambda a: a[:-5]), "retrain",
         " disjoint samples"),
        # a short label array used to pass separate and end cluster in an
        # IndexError, or to let evaluate score only the rows it covers
        (lambda out: _edit_archive(out / "train_labels.npz", lambda a: a[:-5]), "separate",
         "train_labels.npz: 195 labels for the 200 rows of "),
        (lambda out: _edit_archive(out / "test_labels.npz", lambda a: a[:-5]), "evaluate",
         "test_labels.npz: 35 labels for the 40 rows of "),
        # one identity made the verification-pair builder loop forever, and
        # no identity with two samples ended evaluate in a traceback
        (lambda out: _edit_archive(out / "test_labels.npz", np.zeros_like), "evaluate",
         "verification pairs need two or more identities, got 1"),
        (lambda out: _edit_archive(out / "test_labels.npz", lambda a: np.arange(a.size)),
         "evaluate", "verification pairs need an identity with two or more samples"),
        # shared indices let separate train and score on the same rows
        (_share_split_indices, "separate",
         "split.npz: labeled_idx and unlabeled_idx repeat 10 indices"),
        (lambda out: _edit_archive(out / "decisions.npz", lambda d: np.ones_like(d)), "cluster",
         "decisions.npz: separate marked no unlabeled sample disjoint: {'disjoint': 0,"),
        # a model of another width ended evaluate in a matmul traceback
        (_narrow_model, "evaluate", "soft.npz: a model of width 15 for the width-16 rows of "),
        # a model without its encoder was scored on the raw test rows
        (lambda out: _drop_array(out / "hard.npz", "encoder"), "evaluate",
         "hard.npz: missing array 'encoder'"),
    ],
    ids=["p-abc", "p-1.5", "p-nan", "p-missing", "cluster-id-gap", "train-row-x2", "test-row-nan",
         "short-clustering", "short-clustering-pm", "short-train-labels", "short-test-labels",
         "one-test-identity", "singleton-test-identities", "shared-split-index", "no-disjoint",
         "model-width", "no-encoder"],
)
def test_malformed_input_exits_2(run_copy, capsys, edit, stage, cause):
    cfg, out = run_copy
    edit(out)
    code, err = _stage_exit(capsys, stage, cfg, out)
    assert code == 2
    assert err.startswith(f"error: stage '{stage}' failed:") and cause in err
    assert "diverged" not in err
