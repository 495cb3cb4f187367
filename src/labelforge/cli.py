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
import hashlib
import json
import os
import sys
import threading
import time

import numpy as np

from . import cluster as cl
from . import evt, knn, metrics, noise, synth, train
from .data import (
    UNASSIGNED,
    Clustering,
    EmbeddingSet,
    LabelSet,
    groups,
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
    InvalidData,
    IoFailure,
    LabelForgeError,
    OneSidedData,
    StageFailure,
    StaleArtifact,
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


def _float_in(interval: str):
    """Parser of a float inside ``interval``, written like ``"(0, 1]"``;
    NaN lies in no interval."""
    lo, hi = (float(v) for v in interval[1:-1].split(","))

    def parse(raw: str) -> float:
        value = float(raw)
        above = lo < value if interval[0] == "(" else lo <= value
        below = value < hi if interval[-1] == ")" else value <= hi
        if not (above and below):
            raise ValueError(f"must be in {interval}, got {value}")
        return value

    return parse


def _int_from(lo: int):
    """Parser of an int that is at least ``lo``."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < lo:
            raise ValueError(f"must be >= {lo}, got {value}")
        return value

    return parse


def _one_of(*names: str):
    def parse(raw: str) -> str:
        if raw not in names:
            raise ValueError(f"must be one of {', '.join(names)}, got {raw!r}")
        return raw

    return parse


SCHEMA: dict[str, dict[str, tuple]] = {
    "synth": {
        "num_ids": (_int_from(2), 60),
        "samples_per_id": (_int_from(1), 20),
        "samples_per_id_max": (_int_from(0), 0),  # 0 disables the long tail
        "dim": (_int_from(2), 32),
        "within_id_sigma": (_float_in("[0, inf)"), 0.25),
        "seed": (_int_from(0), 0),  # the one seed; see _SEED_OFFSETS
    },
    "split": {
        # both sides need an identity of their own
        "labeled_id_fraction": (_float_in("(0, 1)"), 0.5),
        "overlap_id_fraction": (_float_in("[0, 1]"), 0.0),
    },
    "cluster": {
        "algorithm": (_one_of("gcn", "kmeans", "hac"), "gcn"),
        "gcn_epochs": (_int_from(1), 300),
        "hac_threshold": (_float_in("[0, 2]"), 0.5),  # a cosine distance
    },
    "evt": {
        "enabled": (_parse_bool, True),
    },
    "train": {
        "epochs": (_int_from(1), 40),
    },
    "eval": {
        "holdout_per_id": (_int_from(2), 4),
        "pairs_per_class": (_int_from(1), 3),
    },
    "paths": {
        "out_dir": (str, "out"),
    },
}

# every random stream's seed: [synth] seed plus its offset
_SEED_OFFSETS = {
    "synth": 0, "split": 1, "eval": 2, "gcn": 3, "kmeans": 4, "classifier": 5, "train": 6,
}


class PipelineConfig:
    """Fully resolved configuration: every schema key has a typed value.
    ``load_config`` checks each value's range; values passed in directly are
    taken as they are."""

    def __init__(self, values: dict[str, dict]):
        self.values = values

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def seed(self, stream: str) -> int:
        """The seed of one random stream, derived from ``[synth] seed``."""
        return self.values["synth"]["seed"] + _SEED_OFFSETS[stream]

    def echo(self) -> dict:
        """JSON-serializable copy of the resolved configuration."""
        return {section: dict(keys) for section, keys in self.values.items()}

    def sha(self) -> str:
        """sha256 of the resolved configuration, ``[paths]`` excepted."""
        echo = self.echo()
        del echo["paths"]
        return hashlib.sha256(json.dumps(echo, sort_keys=True).encode()).hexdigest()

    @property
    def out_dir(self) -> str:
        return self.values["paths"]["out_dir"]


def load_config(path) -> PipelineConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}")
    # configparser copies [DEFAULT] keys into every section
    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")

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
    s = values["synth"]
    if 0 < s["samples_per_id_max"] < s["samples_per_id"]:
        raise ConfigError(
            f"[synth] samples_per_id_max = {s['samples_per_id_max']} is below "
            f"[synth] samples_per_id = {s['samples_per_id']}; 0 disables the long tail"
        )
    return PipelineConfig(values)


def apply_overrides(cfg: PipelineConfig, seed=None, out=None) -> PipelineConfig:
    if seed is not None:
        cfg.values["synth"]["seed"] = seed
    if out is not None:
        cfg.values["paths"]["out_dir"] = out
    return cfg


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _path(cfg: PipelineConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


def _load_labeled(cfg: PipelineConfig, split: str):
    """The embeddings and labels of ``split`` (train or test), one label per row."""
    emb_path, labels_path = _path(cfg, f"{split}_emb.npz"), _path(cfg, f"{split}_labels.npz")
    emb, labels = load_embeddings(emb_path), load_labels(labels_path)
    if labels.n != emb.n:
        raise CorruptArtifact(f"{labels_path}: {labels.n} labels for the {emb.n} rows of {emb_path}")
    return emb, labels


def _load_split(cfg: PipelineConfig):
    """Train embeddings and labels, the labeled and unlabeled row indices,
    and the ground-truth overlap mask of the unlabeled rows."""
    train_emb, train_labels = _load_labeled(cfg, "train")
    path = _path(cfg, "split.npz")
    spec = {"labeled_idx": ("i8", "l"), "unlabeled_idx": ("i8", "u"), "overlap_mask": ("?", "u")}
    labeled_idx, unlabeled_idx, gt_overlap = load_archive(path, spec).values()
    both = np.concatenate([labeled_idx, unlabeled_idx])
    if both.size and not (0 <= both.min() and both.max() < train_emb.n):
        raise CorruptArtifact(f"{path}: sample index out of range for n={train_emb.n}")
    repeats = both.size - np.unique(both).size
    if repeats:
        raise CorruptArtifact(f"{path}: labeled_idx and unlabeled_idx repeat {repeats} indices")
    return train_emb, train_labels, labeled_idx, unlabeled_idx, gt_overlap


def _subset(emb: EmbeddingSet, labels: LabelSet, idx: np.ndarray):
    """Rows ``idx`` and their labels, relabeled to contiguous ids."""
    return EmbeddingSet(emb.rows[idx], normalized=True), LabelSet(relabel(labels.labels[idx]))


_DECISIONS = {"disjoint": evt.DISJOINT, "overlap": evt.OVERLAP, "rejected": evt.REJECTED}


def _load_disjoint(cfg: PipelineConfig, train_emb, train_labels, unlabeled_idx):
    """Embeddings and ground-truth labels of the unlabeled samples that
    ``separate`` marked evt.DISJOINT, the input of cluster, noise and retrain."""
    path = _path(cfg, "decisions.npz")
    decisions = load_archive(path, {"decisions": ("i8", "u")})["decisions"]
    if decisions.shape != unlabeled_idx.shape:
        raise CorruptArtifact(
            f"{path}: {decisions.size} decisions for {unlabeled_idx.size} unlabeled samples"
        )
    unknown = ~np.isin(decisions, list(_DECISIONS.values()))
    if unknown.any():
        code = decisions[unknown][0]
        raise CorruptArtifact(f"{path}: decision code {code} is not one of {_DECISIONS}")
    if not np.any(decisions == evt.DISJOINT):
        counts = {name: int(np.sum(decisions == code)) for name, code in _DECISIONS.items()}
        raise InvalidData(f"{path}: separate marked no unlabeled sample disjoint: {counts}")
    return _subset(train_emb, train_labels, unlabeled_idx[decisions == evt.DISJOINT])


def _load_clustering(cfg: PipelineConfig, name: str, n: int) -> Clustering:
    """The clustering ``name`` of the ``n`` disjoint samples."""
    clustering = load_clustering(_path(cfg, name))
    if clustering.n != n:
        raise CorruptArtifact(f"{_path(cfg, name)}: {clustering.n} rows for {n} disjoint samples")
    return clustering


def _train_head(cfg: PipelineConfig, labeled, pseudo=None, use_weights=False):
    """The baseline (no ``pseudo``), hard or soft (``use_weights``) head."""
    return train.train_head(
        labeled, pseudo, train.LossConfig(), epochs=cfg["train"]["epochs"], seed=cfg.seed("train"),
        use_weights=use_weights,
    )


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
        seed=cfg.seed("synth"),
        samples_per_id_max=(
            s["samples_per_id_max"] + cfg["eval"]["holdout_per_id"]
            if s["samples_per_id_max"] > 0
            else None
        ),
    )
    emb, labels = synth.generate_identities(scfg)

    # last holdout_per_id samples of each identity form the held-out eval set
    order, bounds = groups(labels.labels, labels.num_ids)
    from_end = np.repeat(bounds[1:], np.diff(bounds)) - np.arange(emb.n)
    test_mask = np.zeros(emb.n, dtype=bool)
    test_mask[order[from_end <= cfg["eval"]["holdout_per_id"]]] = True
    train_emb, train_labels = _subset(emb, labels, ~test_mask)
    test_emb, test_labels = _subset(emb, labels, test_mask)

    spec = synth.SplitSpec(
        labeled_id_fraction=cfg["split"]["labeled_id_fraction"],
        overlap_id_fraction=cfg["split"]["overlap_id_fraction"],
        seed=cfg.seed("split"),
    )
    labeled_idx, unlabeled_idx, gt_overlap = synth.make_overlap_split(
        train_emb, train_labels, spec
    )

    save_embeddings(train_emb, _path(cfg, "train_emb.npz"))
    save_labels(train_labels, _path(cfg, "train_labels.npz"))
    save_embeddings(test_emb, _path(cfg, "test_emb.npz"))
    save_labels(test_labels, _path(cfg, "test_labels.npz"))
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


def _rates(decided_overlap: np.ndarray, gt_overlap: np.ndarray):
    """(false_positive_rate, false_negative_rate) against ground truth;
    None where the truth side is empty."""
    truly_disjoint = ~gt_overlap
    fpr = float(np.mean(decided_overlap[truly_disjoint])) if truly_disjoint.any() else None
    fnr = float(np.mean(~decided_overlap[gt_overlap])) if gt_overlap.any() else None
    return fpr, fnr


def stage_separate(cfg: PipelineConfig) -> dict:
    train_emb, train_labels, labeled_idx, unlabeled_idx, gt_overlap = _load_split(cfg)
    baseline = _train_head(cfg, _subset(train_emb, train_labels, labeled_idx))
    train.save_trained_model(baseline, _path(cfg, "baseline.npz"))

    unl_emb = EmbeddingSet(train_emb.rows[unlabeled_idx], normalized=True)
    scores = evt.max_logits(baseline.head, unl_emb)

    out: dict = {"enabled": cfg["evt"]["enabled"]}
    mix = None
    if cfg["evt"]["enabled"]:
        try:
            mix = evt.fit_two_weibull_mixture(scores)
        except OneSidedData as exc:
            # too few scores for one of the two modes: nothing to separate
            out["no_fit"] = str(exc)
    if mix is None:
        decisions = np.full(unl_emb.n, evt.DISJOINT, dtype=np.int64)
    else:
        decisions = evt.separate_overlap(scores, mix)
        wb_fpr, wb_fnr = _rates(decisions == evt.OVERLAP, gt_overlap)
        otsu_fpr, otsu_fnr = _rates(scores >= mix.otsu_t, gt_overlap)

        # goodness of fit on the lower max-logit mode: location-shifted
        # Weibull vs a Gaussian with matched mean/std
        low_sample = scores[scores < mix.otsu_t]
        low_fit = evt.weibull_fit_shifted(low_sample)
        sse_weibull = evt.fit_sse(low_fit.pdf, low_sample)
        sse_gaussian = evt.fit_sse(
            evt.gaussian_pdf(float(low_sample.mean()), float(low_sample.std())),
            low_sample,
        )
        out.update(
            {
                **dataclasses.asdict(mix),  # otsu_t, both fits and the cuts
                "weibull_fpr": wb_fpr,
                "weibull_fnr": wb_fnr,
                "otsu_fpr": otsu_fpr,
                "otsu_fnr": otsu_fnr,
                "sse_weibull": sse_weibull,
                "sse_gaussian": sse_gaussian,
            }
        )
    out["counts"] = {name: int(np.sum(decisions == code)) for name, code in _DECISIONS.items()}
    save_archive({"decisions": decisions}, _path(cfg, "decisions.npz"))
    return out


def stage_cluster(cfg: PipelineConfig) -> dict:
    train_emb, train_labels, labeled_idx, unlabeled_idx, _ = _load_split(cfg)
    dis_emb, gt = _load_disjoint(cfg, train_emb, train_labels, unlabeled_idx)

    c = cfg["cluster"]
    algorithm = c["algorithm"]
    out = {"algorithm": algorithm}
    if algorithm == "gcn":
        clustering = _gcn_cluster(cfg, _subset(train_emb, train_labels, labeled_idx), dis_emb)
    elif algorithm == "kmeans":
        # K reads the harness's true identity size: an oracle-K reference
        K = max(2, dis_emb.n // cfg["synth"]["samples_per_id"])
        clustering = cl.kmeans(dis_emb, K=K, seed=cfg.seed("kmeans"))
        out["kmeans"] = {"k": K}
    else:
        clustering = cl.hac(dis_emb, dist_threshold=c["hac_threshold"])

    save_clustering(clustering, _path(cfg, "pseudo_clusters.npz"))

    # diagnostics against the synthetic ground truth
    pw = metrics.pairwise_prf(clustering, gt)
    bc = metrics.bcubed_prf(clustering, gt)
    return {
        **out,
        "n_clustered_input": dis_emb.n,
        "num_clusters": clustering.num_clusters,
        "coverage": metrics.coverage(clustering),
        "pairwise": {"precision": pw[0], "recall": pw[1], "f1": pw[2]},
        "bcubed": {"precision": bc[0], "recall": bc[1], "f1": bc[2]},
    }


def _gcn_cluster(cfg, labeled, dis_emb) -> Clustering:
    lab_emb, lab_labels = labeled

    # purity regressor is trained on the labeled split, where IoU/IoP
    # targets are known
    lab_graph = knn.build_knn_graph(lab_emb)
    # each graph's sweep comes from its own similarity distribution
    lab_props = knn.proposals_from_thresholds(lab_graph, knn.default_thresholds(lab_graph))
    aug = cl.union_augment(lab_props, 2 * len(lab_props) // 3, seed=cfg.seed("gcn") + 1)
    model = cl.gcn_train(
        lab_props + aug,
        lab_emb,
        lab_graph,
        lab_labels,
        epochs=cfg["cluster"]["gcn_epochs"],
        seed=cfg.seed("gcn"),
    )

    graph = knn.build_knn_graph(dis_emb)
    props = knn.proposals_from_thresholds(graph, knn.default_thresholds(graph))
    return cl.deoverlap(props, cl.score_proposals(model, props, dis_emb, graph))


def stage_noise(cfg: PipelineConfig) -> dict:
    train_emb, train_labels, _, unlabeled_idx, _ = _load_split(cfg)
    dis_emb, gt = _load_disjoint(cfg, train_emb, train_labels, unlabeled_idx)
    clustering = _load_clustering(cfg, "pseudo_clusters.npz", dis_emb.n)

    tags = noise.label_cluster_errors(clustering, gt)
    assigned = clustering.assignment != UNASSIGNED
    positives = tags[assigned] != noise.CORRECT
    ap: dict[str, float | None] = dict.fromkeys(noise.METRICS)
    out: dict = {"metric": noise.P_MINUS_METRIC, "otsu_t": None, "wb_low": None}
    pm = np.zeros(dis_emb.n)
    try:
        head = noise.train_linear_classifier(dis_emb, clustering, seed=cfg.seed("classifier"))
        scores = {m: noise.uncertainty_scores(head, dis_emb, m) for m in noise.METRICS}
        if positives.any():
            # AP of each metric at flagging mis-clustered samples, vs ground truth
            ap = {m: noise.average_precision(-noise.confidence(m, s)[assigned], positives)
                  for m, s in scores.items()}
        margins = scores[noise.P_MINUS_METRIC]
        model = noise.fit_noise_model(margins)
        out.update(dataclasses.asdict(model))  # the metric, otsu_t and the lower-mode fit
        pm = np.where(assigned, noise.p_minus(model, margins), 0.0)
    except (TooFewClusters, OneSidedData) as exc:
        # one cluster, or no separable lower mode: treat every assignment as clean
        out["no_fit"] = str(exc)
    with_pm = Clustering(clustering.assignment, p_minus=pm)
    save_clustering(with_pm, _path(cfg, "pseudo_clusters_pm.npz"))
    return {
        **out,
        "average_precision": ap,
        "mean_p_minus": float(pm[assigned].mean()) if assigned.any() else None,
        "n_error_samples": int(positives.sum()),
    }


def stage_retrain(cfg: PipelineConfig) -> dict:
    train_emb, train_labels, labeled_idx, unlabeled_idx, _ = _load_split(cfg)
    dis_emb, _ = _load_disjoint(cfg, train_emb, train_labels, unlabeled_idx)
    clustering = _load_clustering(cfg, "pseudo_clusters_pm.npz", dis_emb.n)
    if clustering.p_minus is None:
        # without p⁻ the soft head would train with weights of 1, as the hard one
        raise CorruptArtifact(f"{_path(cfg, 'pseudo_clusters_pm.npz')}: missing array 'p_minus'")
    models = {"baseline": train.load_trained_model(_path(cfg, "baseline.npz"))}

    labeled = _subset(train_emb, train_labels, labeled_idx)
    pseudo = (dis_emb, clustering)
    # the two heads share no state: the soft one trains on a worker thread,
    # on a second core where there is one (GEMMs and ufuncs release the GIL)
    soft = {}

    def train_soft():
        try:
            soft["model"] = _train_head(cfg, labeled, pseudo, use_weights=True)
        except BaseException as exc:
            soft["error"] = exc

    worker = threading.Thread(target=train_soft)
    worker.start()
    try:
        models["hard"] = _train_head(cfg, labeled, pseudo, use_weights=False)
        train.save_trained_model(models["hard"], _path(cfg, "hard.npz"))
    finally:
        worker.join()
    if "error" in soft:
        raise soft["error"]
    models["soft"] = soft["model"]
    train.save_trained_model(models["soft"], _path(cfg, "soft.npz"))
    return {
        variant: {
            "initial_loss": model.initial_loss,
            "final_loss": model.final_loss,
            "num_classes": int(model.head.weights.shape[0]),
        }
        for variant, model in models.items()
    }


def stage_evaluate(cfg: PipelineConfig) -> dict:
    test_emb, test_labels = _load_labeled(cfg, "test")

    protocol = metrics.build_verification_protocol(
        test_labels, pairs_per_class=cfg["eval"]["pairs_per_class"], seed=cfg.seed("eval")
    )
    # gallery: first held-out sample per identity; probes: the rest
    order, bounds = groups(test_labels.labels, test_labels.num_ids)
    gallery_idx = order[bounds[:-1]]
    probe_idx = np.delete(order, bounds[:-1])

    out = {}
    for variant in ("baseline", "hard", "soft"):
        path = _path(cfg, f"{variant}.npz")
        model = train.load_trained_model(path)
        if model.head.d != test_emb.d:
            raise CorruptArtifact(
                f"{path}: a model of width {model.head.d} for the width-{test_emb.d} rows of "
                f"{_path(cfg, 'test_emb.npz')}"
            )
        emb = train.embed(model, test_emb)
        acc, tars = metrics.verification_metrics(emb, protocol)
        ranks = metrics.identification_rank(
            (EmbeddingSet(emb.rows[gallery_idx], normalized=True), test_labels.labels[gallery_idx]),
            (EmbeddingSet(emb.rows[probe_idx], normalized=True), test_labels.labels[probe_idx]),
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


def _check_config(cfg: PipelineConfig, fragments: dict) -> None:
    """Every stage builds on all the stages before it: reject a fragment
    written under another config."""
    sha = cfg.sha()
    for name, fragment in fragments.items():
        if not isinstance(fragment, dict) or fragment.get("config_sha") != sha:
            raise StaleArtifact(
                f"stage '{name}' ran under a different config; rerun it "
                f"({_path(cfg, f'stage_{name}.json')})"
            )


def _run_stage(name: str, fn, cfg: PipelineConfig) -> dict:
    names = [n for n, _ in STAGES]
    # an earlier stage that has not run is left for the readers to report
    earlier = {n: _path(cfg, f"stage_{n}.json") for n in names[: names.index(name)]}
    try:
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        _check_config(cfg, {n: read_json(p) for n, p in earlier.items() if os.path.exists(p)})
        start = time.perf_counter()
        payload = fn(cfg)
        payload["wall_clock_sec"] = time.perf_counter() - start
        payload["config_sha"] = cfg.sha()
        write_json(payload, _path(cfg, f"stage_{name}.json"))
    except LabelForgeError as exc:
        raise StageFailure(name, exc)
    return payload


def build_report(cfg: PipelineConfig) -> dict:
    try:
        stages = {name: read_json(_path(cfg, f"stage_{name}.json")) for name, _ in STAGES}
        _check_config(cfg, stages)
        report = {"config": cfg.echo(), "seed": cfg["synth"]["seed"], "stages": stages}
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

def main(argv=None) -> int:
    defaults = [
        f"  [{section}] {key} = {default!r}"
        for section, keys in SCHEMA.items()
        for key, (_, default) in keys.items()
    ]
    parser = argparse.ArgumentParser(
        prog="forge",
        description="Semi-supervised pseudo-label pipeline for embedding classifiers.",
        epilog="\n".join(["config defaults:", *defaults]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=[name for name, _ in STAGES] + ["report", "run"])
    parser.add_argument("--config", required=True, help="path to INI config file")
    parser.add_argument("--seed", type=int, default=None, help="set [synth] seed, the base seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, seed=args.seed, out=args.out)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be >= 0")
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
    except StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
