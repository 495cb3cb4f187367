"""Pipeline orchestration and the ``forge`` command line.

Stages (gen, separate, cluster, noise, retrain, evaluate, report) persist
their artifacts under the output directory; ``run`` executes them all.
Every stage writes a JSON fragment that ``report`` merges into one
deterministic, sorted-key report (wall-clock fields excepted).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import cluster as cl
from . import evt, knn, metrics, noise, synth, train
from .data import (
    UNASSIGNED,
    Clustering,
    EmbeddingSet,
    LabelSet,
    load_archive,
    load_clustering,
    load_embeddings,
    load_labels,
    read_json,
    relabel,
    save_archive,
    save_clustering,
    save_embeddings,
    save_labels,
    write_json,
)
from .errors import (
    ConfigError,
    CorruptArtifact,
    LabelForgeError,
    MissingArtifact,
    OneSidedData,
    StageFailure,
    TooFewClusters,
)

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# section -> key -> (parser, default). The parsed config carries every key.
_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return value


def _parse_floats(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_float(v) for v in raw.split(","))


def _parse_ints(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(v) for v in raw.split(","))


SCHEMA: dict[str, dict[str, tuple]] = {
    "synth": {
        "num_ids": (int, 60),
        "samples_per_id": (int, 20),
        "samples_per_id_max": (int, 0),  # 0 disables the long tail
        "dim": (int, 32),
        "within_id_sigma": (_parse_float, 0.25),
        "seed": (int, 0),
    },
    "split": {
        "labeled_id_fraction": (_parse_float, 0.5),
        "overlap_id_fraction": (_parse_float, 0.0),
        "seed": (int, 1),
    },
    "knn": {
        "k": (int, 8),
        "thresholds": (_parse_floats, ()),  # empty -> quantile defaults
        "threshold_count": (int, 12),
        "max_size": (int, 100),
    },
    "cluster": {
        "algorithm": (str, "gcn"),
        "min_cluster_size": (int, 2),
        "augment_unions": (int, -1),  # -1 -> two thirds of the proposal count
        "gcn_epochs": (int, 300),
        "gcn_lr": (_parse_float, 0.5),
        "gcn_batch_size": (int, 16),
        "gcn_seed": (int, 2),
        "kmeans_k": (int, 0),  # 0 -> n_samples // samples_per_id
        "kmeans_seed": (int, 3),
        "hac_threshold": (_parse_float, 0.5),
        "dbscan_eps": (_parse_float, 0.5),
        "dbscan_min_size": (int, 2),
    },
    "evt": {
        "enabled": (_parse_bool, True),
        "n_bins": (int, 64),
        "confidence": (_parse_float, 0.95),
    },
    "noise": {
        "metric": (str, "class_margin"),
        "gamma": (_parse_float, 1.0),
        "classifier_epochs": (int, 30),
        "classifier_lr": (_parse_float, 1.0),
        "classifier_seed": (int, 4),
        "n_bins": (int, 64),
    },
    "train": {
        "alpha": (_parse_float, 16.0),
        "margin_m": (_parse_float, 0.35),
        "epochs": (int, 40),
        "lr": (_parse_float, 0.1),
        "batch_size": (int, 256),
        "seed": (int, 6),
        "with_encoder": (_parse_bool, True),
    },
    "eval": {
        "holdout_per_id": (int, 4),
        "fars": (_parse_floats, (1e-2, 1e-3)),
        "ks": (_parse_ints, (1, 5)),
        "pairs_per_class": (int, 3),
        "seed": (int, 5),
    },
    "paths": {
        "out_dir": (str, "out"),
    },
}

# --seed N re-derives every stage seed from one base value
_SEED_KEYS = (
    ("synth", "seed", 0),
    ("split", "seed", 1),
    ("eval", "seed", 2),
    ("cluster", "gcn_seed", 3),
    ("cluster", "kmeans_seed", 4),
    ("noise", "classifier_seed", 5),
    ("train", "seed", 6),
)


class PipelineConfig:
    """Fully resolved configuration: every schema key has a typed value."""

    def __init__(self, values: dict[str, dict]):
        self.values = values
        self.threads = 1
        if self.values["cluster"]["algorithm"] not in ("gcn", "kmeans", "hac", "dbscan"):
            raise ConfigError(
                f"[cluster] algorithm must be gcn/kmeans/hac/dbscan, "
                f"got {self.values['cluster']['algorithm']!r}"
            )
        if self.values["noise"]["metric"] not in noise.METRICS:
            raise ConfigError(
                f"[noise] metric must be one of {noise.METRICS}, "
                f"got {self.values['noise']['metric']!r}"
            )
        if self.values["eval"]["holdout_per_id"] < 2:
            raise ConfigError("[eval] holdout_per_id must be >= 2")
        c = self.values["cluster"]
        for key in ("gcn_epochs", "gcn_batch_size"):
            if c[key] < 1:
                raise ConfigError(f"[cluster] {key} must be >= 1, got {c[key]}")
        if not (math.isfinite(c["gcn_lr"]) and c["gcn_lr"] > 0):
            raise ConfigError(f"[cluster] gcn_lr must be finite and > 0, got {c['gcn_lr']}")
        if not c["dbscan_eps"] > 0:
            raise ConfigError(f"[cluster] dbscan_eps must be > 0, got {c['dbscan_eps']}")
        for key, least in (("dbscan_min_size", 1), ("kmeans_k", 0)):
            if c[key] < least:
                raise ConfigError(f"[cluster] {key} must be >= {least}, got {c[key]}")

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def echo(self) -> dict:
        """JSON-serializable copy of the resolved configuration."""
        return {
            section: {k: list(v) if isinstance(v, tuple) else v for k, v in keys.items()}
            for section, keys in self.values.items()
        }

    @property
    def out_dir(self) -> str:
        return self.values["paths"]["out_dir"]


def load_config(path) -> PipelineConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}")

    values = {s: {k: d for k, (_, d) in keys.items()} for s, keys in SCHEMA.items()}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            conv = SCHEMA[section][key][0]
            try:
                values[section][key] = conv(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}")
    return PipelineConfig(values)


def apply_overrides(cfg: PipelineConfig, seed=None, out=None) -> PipelineConfig:
    if seed is not None:
        for section, key, offset in _SEED_KEYS:
            cfg.values[section][key] = seed + offset
    if out is not None:
        cfg.values["paths"]["out_dir"] = out
    return cfg


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _path(cfg: PipelineConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


def _require(stage: str, path: str) -> str:
    if not os.path.exists(path):
        raise MissingArtifact(stage, path)
    return path


def _timed(stage_fn, cfg: PipelineConfig) -> dict:
    start = time.perf_counter()
    payload = stage_fn(cfg)
    payload["wall_clock_sec"] = time.perf_counter() - start
    return payload


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_gen(cfg: PipelineConfig) -> dict:
    s = cfg["synth"]
    scfg = synth.SynthConfig(
        num_ids=s["num_ids"],
        samples_per_id=s["samples_per_id"] + cfg["eval"]["holdout_per_id"],
        dim=s["dim"],
        within_id_sigma=s["within_id_sigma"],
        seed=s["seed"],
        samples_per_id_max=(
            s["samples_per_id_max"] + cfg["eval"]["holdout_per_id"]
            if s["samples_per_id_max"] > 0
            else None
        ),
    )
    emb, labels = synth.generate_identities(scfg)

    # last holdout_per_id samples of each identity form the held-out eval set
    holdout = cfg["eval"]["holdout_per_id"]
    test_mask = np.zeros(emb.n, dtype=bool)
    for ident in range(labels.num_ids):
        members = np.flatnonzero(labels.labels == ident)
        test_mask[members[-holdout:]] = True
    train_emb = EmbeddingSet(emb.rows[~test_mask], normalized=True)
    train_labels = LabelSet(labels.labels[~test_mask])
    test_emb = EmbeddingSet(emb.rows[test_mask], normalized=True)
    test_labels = LabelSet(labels.labels[test_mask])

    spec = synth.SplitSpec(
        labeled_id_fraction=cfg["split"]["labeled_id_fraction"],
        overlap_id_fraction=cfg["split"]["overlap_id_fraction"],
        seed=cfg["split"]["seed"],
    )
    labeled_idx, unlabeled_idx, gt_overlap = synth.make_overlap_split(
        train_emb, train_labels, spec
    )

    save_embeddings(train_emb, _path(cfg, "train.emb"))
    save_labels(train_labels, _path(cfg, "train_labels.csv"))
    save_embeddings(test_emb, _path(cfg, "test.emb"))
    save_labels(test_labels, _path(cfg, "test_labels.csv"))
    save_archive(
        {"labeled_idx": labeled_idx, "unlabeled_idx": unlabeled_idx, "overlap_mask": gt_overlap},
        _path(cfg, "split.npz"),
    )

    return {
        "n_train": train_emb.n,
        "n_test": test_emb.n,
        "n_labeled": int(labeled_idx.size),
        "n_unlabeled": int(unlabeled_idx.size),
        "num_ids": labels.num_ids,
        "n_overlap_samples": int(gt_overlap.sum()),
    }


def _load_gen(stage: str, cfg: PipelineConfig):
    train_emb = load_embeddings(_require(stage, _path(cfg, "train.emb")))
    train_labels = load_labels(_require(stage, _path(cfg, "train_labels.csv")))
    path = _require(stage, _path(cfg, "split.npz"))
    spec = {"labeled_idx": ("i8", "l"), "unlabeled_idx": ("i8", "u"), "overlap_mask": ("?", "u")}
    labeled_idx, unlabeled_idx, gt_overlap = load_archive(path, spec).values()
    for idx in (labeled_idx, unlabeled_idx):
        if idx.size and not (0 <= idx.min() and idx.max() < train_emb.n):
            raise CorruptArtifact(f"{path}: sample index out of range for n={train_emb.n}")
    return train_emb, train_labels, labeled_idx, unlabeled_idx, gt_overlap


def _load_decisions(stage: str, cfg: PipelineConfig, unlabeled_idx: np.ndarray) -> np.ndarray:
    """Per unlabeled sample: evt.DISJOINT, OVERLAP or REJECTED."""
    path = _require(stage, _path(cfg, "decisions.npz"))
    decisions = load_archive(path, {"decisions": ("i8", "u")})["decisions"]
    if decisions.shape != unlabeled_idx.shape:
        raise CorruptArtifact(
            f"{path}: {decisions.size} decisions for {unlabeled_idx.size} unlabeled samples"
        )
    return decisions


def _labeled_subset(train_emb, train_labels, labeled_idx):
    emb = EmbeddingSet(train_emb.rows[labeled_idx], normalized=True)
    return emb, LabelSet(relabel(train_labels.labels[labeled_idx]))


def _rates(decided_overlap: np.ndarray, gt_overlap: np.ndarray):
    """(false_positive_rate, false_negative_rate) against ground truth;
    None where the truth side is empty."""
    truly_disjoint = ~gt_overlap
    fpr = (
        float(np.mean(decided_overlap[truly_disjoint]))
        if truly_disjoint.any()
        else None
    )
    fnr = (
        float(np.mean(~decided_overlap[gt_overlap])) if gt_overlap.any() else None
    )
    return fpr, fnr


def stage_separate(cfg: PipelineConfig) -> dict:
    stage = "separate"
    train_emb, train_labels, labeled_idx, unlabeled_idx, gt_overlap = _load_gen(stage, cfg)
    lab_emb, lab_labels = _labeled_subset(train_emb, train_labels, labeled_idx)

    t = cfg["train"]
    loss_cfg = train.LossConfig(alpha=t["alpha"], margin_m=t["margin_m"])
    baseline = train.train_head(
        (lab_emb, lab_labels),
        None,
        loss_cfg,
        epochs=t["epochs"],
        lr=t["lr"],
        seed=t["seed"],
        with_encoder=t["with_encoder"],
        batch_size=t["batch_size"],
    )
    train.save_trained_model(baseline, _path(cfg, "baseline.npz"))

    unl_emb = EmbeddingSet(train_emb.rows[unlabeled_idx], normalized=True)
    scores = evt.max_logits(baseline.head, unl_emb)

    out: dict = {"enabled": cfg["evt"]["enabled"]}
    if not cfg["evt"]["enabled"]:
        decisions = np.full(unl_emb.n, evt.DISJOINT, dtype=np.int64)
        out["counts"] = {"disjoint": int(unl_emb.n), "overlap": 0, "rejected": 0}
    else:
        mix = evt.fit_two_weibull_mixture(
            scores, n_bins=cfg["evt"]["n_bins"], confidence=cfg["evt"]["confidence"]
        )
        write_json(dataclasses.asdict(mix), _path(cfg, "mixture.json"))
        decisions = evt.separate_overlap(scores, mix)
        counts = {
            "disjoint": int(np.sum(decisions == evt.DISJOINT)),
            "overlap": int(np.sum(decisions == evt.OVERLAP)),
            "rejected": int(np.sum(decisions == evt.REJECTED)),
        }
        wb_fpr, wb_fnr = _rates(decisions == evt.OVERLAP, gt_overlap)
        otsu_fpr, otsu_fnr = _rates(scores >= mix.otsu_t, gt_overlap)

        # goodness of fit on the lower max-logit mode: location-shifted
        # Weibull vs a Gaussian with matched mean/std
        low_sample = scores[scores < mix.otsu_t]
        low_fit = evt.weibull_fit_shifted(low_sample)
        sse_weibull = evt.fit_sse(
            lambda v: evt.weibull_eval(low_fit, v, "pdf"), low_sample
        )
        sse_gaussian = evt.fit_sse(
            evt.gaussian_pdf(float(low_sample.mean()), float(low_sample.std())),
            low_sample,
        )
        out.update(
            {
                "otsu_t": mix.otsu_t,
                "lower_cut": mix.lower_cut,
                "upper_cut": mix.upper_cut,
                "counts": counts,
                "weibull_fpr": wb_fpr,
                "weibull_fnr": wb_fnr,
                "otsu_fpr": otsu_fpr,
                "otsu_fnr": otsu_fnr,
                "sse_weibull": sse_weibull,
                "sse_gaussian": sse_gaussian,
            }
        )
    save_archive({"decisions": decisions}, _path(cfg, "decisions.npz"))
    return out


def stage_cluster(cfg: PipelineConfig) -> dict:
    stage = "cluster"
    train_emb, train_labels, labeled_idx, unlabeled_idx, _ = _load_gen(stage, cfg)
    disjoint_idx = unlabeled_idx[_load_decisions(stage, cfg, unlabeled_idx) == evt.DISJOINT]
    dis_emb = EmbeddingSet(train_emb.rows[disjoint_idx], normalized=True)

    c = cfg["cluster"]
    algorithm = c["algorithm"]
    if algorithm == "gcn":
        clustering = _gcn_cluster(cfg, train_emb, train_labels, labeled_idx, dis_emb)
    elif algorithm == "kmeans":
        K = c["kmeans_k"] or max(2, dis_emb.n // cfg["synth"]["samples_per_id"])
        clustering = cl.kmeans(dis_emb, K=K, seed=c["kmeans_seed"])
    elif algorithm == "hac":
        clustering = cl.hac(dis_emb, dist_threshold=c["hac_threshold"])
    else:
        clustering = cl.dbscan(dis_emb, eps=c["dbscan_eps"], min_size=c["dbscan_min_size"])

    save_clustering(clustering, _path(cfg, "pseudo_clusters.csv"))

    # diagnostics against the synthetic ground truth
    gt = LabelSet(relabel(train_labels.labels[disjoint_idx]))
    pw = metrics.pairwise_prf(clustering, gt)
    bc = metrics.bcubed_prf(clustering, gt)
    return {
        "algorithm": algorithm,
        "n_clustered_input": dis_emb.n,
        "num_clusters": clustering.num_clusters,
        "coverage": metrics.coverage(clustering),
        "pairwise": {"precision": pw[0], "recall": pw[1], "f1": pw[2]},
        "bcubed": {"precision": bc[0], "recall": bc[1], "f1": bc[2]},
    }


def _gcn_cluster(cfg, train_emb, train_labels, labeled_idx, dis_emb) -> Clustering:
    c = cfg["cluster"]
    k = cfg["knn"]["k"]
    max_size = cfg["knn"]["max_size"]
    lab_emb, lab_labels = _labeled_subset(train_emb, train_labels, labeled_idx)

    # purity regressor is trained on the labeled split, where IoU/IoP
    # targets are known
    lab_graph = knn.build_knn_graph(lab_emb, k=k)
    lab_thresholds = _thresholds(cfg, lab_graph)
    lab_props = knn.proposals_from_thresholds(lab_graph, lab_thresholds, max_size=max_size)
    n_aug = c["augment_unions"]
    if n_aug < 0:
        n_aug = 2 * len(lab_props) // 3
    aug = cl.union_augment(lab_props, n_aug, seed=c["gcn_seed"] + 1)
    model = cl.gcn_train(
        lab_props + aug,
        lab_emb,
        lab_graph,
        lab_labels,
        epochs=c["gcn_epochs"],
        lr=c["gcn_lr"],
        seed=c["gcn_seed"],
        batch_size=c["gcn_batch_size"],
    )
    cl.save_gcn_model(model, _path(cfg, "gcn.npz"))

    graph = knn.build_knn_graph(dis_emb, k=k, threads=cfg.threads)
    props = knn.proposals_from_thresholds(graph, _thresholds(cfg, graph), max_size=max_size)
    scores = cl.score_proposals(model, props, dis_emb, graph)
    return cl.deoverlap(props, scores, min_cluster_size=c["min_cluster_size"])


def _thresholds(cfg: PipelineConfig, g: knn.KnnGraph) -> list[float]:
    configured = cfg["knn"]["thresholds"]
    if configured:
        return sorted(configured, reverse=True)
    return knn.default_thresholds(g, count=cfg["knn"]["threshold_count"])


def stage_noise(cfg: PipelineConfig) -> dict:
    stage = "noise"
    train_emb, train_labels, _, unlabeled_idx, _ = _load_gen(stage, cfg)
    disjoint_idx = unlabeled_idx[_load_decisions(stage, cfg, unlabeled_idx) == evt.DISJOINT]
    clustering = load_clustering(_require(stage, _path(cfg, "pseudo_clusters.csv")))
    dis_emb = EmbeddingSet(train_emb.rows[disjoint_idx], normalized=True)

    n = cfg["noise"]
    gt = LabelSet(relabel(train_labels.labels[disjoint_idx]))
    tags = noise.label_cluster_errors(clustering, gt)
    assigned = clustering.assignment != UNASSIGNED
    ap: dict[str, float | None] = {metric: None for metric in noise.METRICS}
    model = None
    pm = np.zeros(dis_emb.n)
    try:
        head = noise.train_linear_classifier(
            dis_emb,
            clustering,
            epochs=n["classifier_epochs"],
            lr=n["classifier_lr"],
            seed=n["classifier_seed"],
        )
    except TooFewClusters:
        # degenerate clustering: no basis for uncertainty, treat as clean
        pass
    else:
        # AP of each metric at flagging mis-clustered samples, vs ground truth
        for metric in noise.METRICS:
            s = noise.uncertainty_scores(head, dis_emb, metric)
            # higher entropy means less confident; flip the others
            ranking = s if metric == "entropy" else -s
            positives = tags[assigned] != noise.CORRECT
            if positives.any():
                ap[metric] = noise.average_precision(ranking[assigned], positives)
        margins = noise.uncertainty_scores(head, dis_emb, n["metric"])
        try:
            model = noise.fit_noise_model(
                margins, metric=n["metric"], n_bins=n["n_bins"]
            )
        except OneSidedData:
            # no separable lower mode: treat every assignment as clean
            pass
        else:
            write_json(dataclasses.asdict(model), _path(cfg, "noise_model.json"))
            pm = noise.p_minus(model, margins)
    pm = np.where(assigned, pm, 0.0)
    save_clustering(
        Clustering(clustering.assignment, p_minus=pm),
        _path(cfg, "pseudo_clusters_pm.csv"),
    )
    return {
        "metric": n["metric"],
        "otsu_t": model.otsu_t if model is not None else None,
        "average_precision": ap,
        "mean_p_minus": float(pm[assigned].mean()) if assigned.any() else None,
        "n_error_samples": int(np.sum(tags[assigned] != noise.CORRECT)),
    }


def stage_retrain(cfg: PipelineConfig) -> dict:
    stage = "retrain"
    train_emb, train_labels, labeled_idx, unlabeled_idx, _ = _load_gen(stage, cfg)
    disjoint_idx = unlabeled_idx[_load_decisions(stage, cfg, unlabeled_idx) == evt.DISJOINT]
    clustering = load_clustering(_require(stage, _path(cfg, "pseudo_clusters_pm.csv")))
    baseline = train.load_trained_model(_require(stage, _path(cfg, "baseline.npz")))

    lab_emb, lab_labels = _labeled_subset(train_emb, train_labels, labeled_idx)
    dis_emb = EmbeddingSet(train_emb.rows[disjoint_idx], normalized=True)

    t = cfg["train"]
    loss_cfg = train.LossConfig(
        alpha=t["alpha"], margin_m=t["margin_m"], gamma=cfg["noise"]["gamma"]
    )
    out = {}
    for variant, use_weights in (("hard", False), ("soft", True)):
        model = train.train_head(
            (lab_emb, lab_labels),
            (dis_emb, clustering),
            loss_cfg,
            epochs=t["epochs"],
            lr=t["lr"],
            seed=t["seed"],
            use_weights=use_weights,
            with_encoder=t["with_encoder"],
            batch_size=t["batch_size"],
        )
        train.save_trained_model(model, _path(cfg, f"{variant}.npz"))
        out[variant] = {
            "initial_loss": model.initial_loss,
            "final_loss": model.final_loss,
            "num_classes": int(model.head.weights.shape[0]),
        }
    out["baseline"] = {
        "initial_loss": baseline.initial_loss,
        "final_loss": baseline.final_loss,
        "num_classes": int(baseline.head.weights.shape[0]),
    }
    return out


def stage_evaluate(cfg: PipelineConfig) -> dict:
    stage = "evaluate"
    test_emb = load_embeddings(_require(stage, _path(cfg, "test.emb")))
    test_labels = load_labels(_require(stage, _path(cfg, "test_labels.csv")))

    e = cfg["eval"]
    protocol = metrics.build_verification_protocol(
        test_labels, pairs_per_class=e["pairs_per_class"], seed=e["seed"]
    )
    # gallery: first held-out sample per identity; probes: the rest
    gallery_idx, probe_idx = [], []
    for ident in range(test_labels.num_ids):
        members = np.flatnonzero(test_labels.labels == ident)
        gallery_idx.append(members[0])
        probe_idx.extend(members[1:].tolist())
    gallery_idx = np.array(gallery_idx)
    probe_idx = np.array(probe_idx)

    out = {}
    for variant in ("baseline", "hard", "soft"):
        path = _path(cfg, f"{variant}.npz")
        if variant != "baseline" and not os.path.exists(path):
            continue  # evaluate whatever models exist
        model = train.load_trained_model(_require(stage, path))
        emb = train.embed(model, test_emb) if model.encoder is not None else test_emb
        acc, tars = metrics.verification_metrics(emb, protocol, fars=e["fars"])
        ranks = metrics.identification_rank(
            (EmbeddingSet(emb.rows[gallery_idx], normalized=True), test_labels.labels[gallery_idx]),
            (EmbeddingSet(emb.rows[probe_idx], normalized=True), test_labels.labels[probe_idx]),
            ks=e["ks"],
        )
        out[variant] = {
            "verification_accuracy": acc,
            "tar_at_far": {str(far): tar for far, tar in tars.items()},
            "identification_rank": {str(k): v for k, v in ranks.items()},
        }
    return out


STAGES = (
    ("gen", stage_gen),
    ("separate", stage_separate),
    ("cluster", stage_cluster),
    ("noise", stage_noise),
    ("retrain", stage_retrain),
    ("evaluate", stage_evaluate),
)


def _run_stage(name: str, fn, cfg: PipelineConfig) -> dict:
    os.makedirs(cfg.out_dir, exist_ok=True)
    try:
        payload = _timed(fn, cfg)
        write_json(payload, _path(cfg, f"stage_{name}.json"))
    except MissingArtifact:
        raise
    except LabelForgeError as exc:
        raise StageFailure(name, exc)
    return payload


def build_report(cfg: PipelineConfig) -> dict:
    paths = {name: _require("report", _path(cfg, f"stage_{name}.json")) for name, _ in STAGES}
    try:
        report = {
            "config": cfg.echo(),
            "seed": cfg["synth"]["seed"],
            "stages": {name: read_json(path) for name, path in paths.items()},
        }
        write_json(report, _path(cfg, "report.json"))
    except LabelForgeError as exc:
        raise StageFailure("report", exc)
    return report


def run_pipeline(cfg: PipelineConfig) -> dict:
    for name, fn in STAGES:
        _run_stage(name, fn, cfg)
    return build_report(cfg)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _defaults_epilog() -> str:
    lines = ["config defaults:"]
    for section, keys in SCHEMA.items():
        for key, (_, default) in keys.items():
            lines.append(f"  [{section}] {key} = {default!r}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="forge",
        description="Semi-supervised pseudo-label pipeline for embedding classifiers.",
        epilog=_defaults_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [name for name, _ in STAGES] + ["report", "run"]
    for name in commands:
        p = sub.add_parser(
            name,
            epilog=_defaults_epilog(),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="path to INI config file")
        p.add_argument("--seed", type=int, default=None, help="override all stage seeds")
        p.add_argument("--threads", type=int, default=1, help="worker cap for k-NN search")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, seed=args.seed, out=args.out)
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        cfg.threads = args.threads
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "run":
            run_pipeline(cfg)
        elif args.command == "report":
            build_report(cfg)
        else:
            fn = dict(STAGES)[args.command]
            _run_stage(args.command, fn, cfg)
    except (MissingArtifact, StageFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
