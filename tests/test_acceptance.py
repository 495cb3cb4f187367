"""Acceptance gate: eleven go/no-go criteria for the pipeline.

Each test evaluates one criterion end to end, prints a single PASS/FAIL
line with its headline numbers (bypassing pytest capture so the line is
always visible), and then asserts at the pinned tolerance. Harness sizes
are fixed; seeds are pinned; nothing here depends on test ordering.
"""

import itertools
import json
import tempfile
import time

import numpy as np
import pytest

from labelforge import errors, evt, knn, metrics, noise
from labelforge import cluster as cl
from labelforge.cli import SCHEMA, PipelineConfig, main, run_pipeline, stage_gen, stage_separate
from labelforge.data import Clustering, EmbeddingSet, LabelSet
from labelforge.synth import SynthConfig, generate_identities
from labelforge.train import EncoderParams, LossConfig, _loss_and_grads, embed, train_head
from noise_helpers import inject_label_noise


@pytest.fixture
def announce(capsys):
    """One visible PASS/FAIL line per criterion, bypassing output capture."""

    def _announce(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
        with capsys.disabled():
            print(f"\n{line}", flush=True)

    return _announce


def _pipeline_config(**overrides) -> PipelineConfig:
    cfg = PipelineConfig(
        {s: {k: v for k, (_, v) in keys.items()} for s, keys in SCHEMA.items()}
    )
    for section, kv in overrides.items():
        cfg.values[section].update(kv)
    cfg.values["paths"]["out_dir"] = tempfile.mkdtemp(prefix="forge_accept_")
    return cfg


# ---------------------------------------------------------------------------
# 1. Otsu oracle
# ---------------------------------------------------------------------------

def _otsu_exhaustive(x: np.ndarray, n_bins: int) -> float:
    """Independent exhaustive maximization of between-class variance over
    the interior bin edges of the equal-width histogram. An edge above an
    empty bin splits the scores as the edge below it does, so only the
    lowest edge of such a run is scored."""
    counts, edges = np.histogram(x, bins=n_bins, range=(x.min(), x.max()))
    centers = 0.5 * (edges[:-1] + edges[1:])
    best_t, best_v = float(edges[1]), -1.0
    for cut in range(1, n_bins):
        if counts[cut - 1] == 0:
            continue
        w0, w1 = counts[:cut].sum(), counts[cut:].sum()
        if w0 == 0 or w1 == 0:
            v = 0.0
        else:
            m0 = np.average(centers[:cut], weights=counts[:cut])
            m1 = np.average(centers[cut:], weights=counts[cut:])
            v = w0 * w1 * (m0 - m1) ** 2
        if v > best_v:
            best_v, best_t = v, float(edges[cut])
    return best_t


def test_criterion_01_otsu_matches_exhaustive_oracle(announce):
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    matches = 0
    for _ in range(100):
        n_bins = int(rng.integers(2, 65))
        # random bimodal mixture; occasionally unimodal
        split = int(rng.integers(0, 201))
        x = np.concatenate([
            rng.normal(rng.uniform(-2, 0), rng.uniform(0.1, 1.0), split),
            rng.normal(rng.uniform(0, 2), rng.uniform(0.1, 1.0), 200 - split),
        ])
        matches += evt.otsu_threshold(x, n_bins=n_bins) == _otsu_exhaustive(x, n_bins)
    elapsed = time.perf_counter() - start
    ok = matches == 100 and elapsed < 5.0
    announce(1, "otsu equals exhaustive oracle", ok,
              f"{matches}/100 exact matches in {elapsed:.2f}s (limit 5s)")
    assert matches == 100
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Weibull MLE recovery
# ---------------------------------------------------------------------------

def test_criterion_02_weibull_mle_recovery(announce):
    start = time.perf_counter()
    worst_rel = 0.0
    for i, (k, lam) in enumerate([(1.0, 2.0), (2.0, 1.5), (3.5, 0.8)]):
        rng = np.random.default_rng(i)
        samples = lam * rng.weibull(k, size=10_000)
        fit = evt.weibull_fit_mle(samples)
        worst_rel = max(
            worst_rel,
            abs(fit.shape_k - k) / k,
            abs(fit.scale_lambda - lam) / lam,
        )
    # quantile∘cdf identity
    p = evt.WeibullParams(shape_k=2.0, scale_lambda=1.5)
    qs = np.linspace(0.001, 0.999, 199)
    worst_roundtrip = float(np.max(np.abs(p.cdf(p.quantile(qs)) - qs)))
    elapsed = time.perf_counter() - start
    ok = worst_rel < 0.05 and worst_roundtrip < 1e-9 and elapsed < 5.0
    announce(2, "weibull MLE recovery", ok,
              f"max param rel err {worst_rel:.4f} (tol 0.05), "
              f"quantile∘cdf err {worst_roundtrip:.2e} (tol 1e-9), {elapsed:.2f}s (limit 5s)")
    assert worst_rel < 0.05
    assert worst_roundtrip < 1e-9
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. Overlap separation ordering
# ---------------------------------------------------------------------------

def test_criterion_03_overlap_separation_ordering(announce):
    start = time.perf_counter()
    fpr_wins = 0
    sse = None
    for seed in range(5):
        cfg = _pipeline_config(
            synth={"num_ids": 60, "samples_per_id": 20, "dim": 32,
                   "within_id_sigma": 0.15, "seed": seed},
            split={"overlap_id_fraction": 0.3},
        )
        stage_gen(cfg)
        frag = stage_separate(cfg)
        fpr_wins += frag["weibull_fpr"] < frag["otsu_fpr"]
        if seed == 0:
            sse = (frag["sse_weibull"], frag["sse_gaussian"])
    elapsed = time.perf_counter() - start
    ok = fpr_wins >= 4 and sse[0] <= sse[1] and elapsed < 30.0
    announce(3, "EVT overlap separation ordering", ok,
              f"weibull FPR < otsu FPR in {fpr_wins}/5 seeds (need >=4), "
              f"SSE weibull {sse[0]:.1f} <= gaussian {sse[1]:.1f}, {elapsed:.1f}s (limit 30s)")
    assert fpr_wins >= 4
    assert sse[0] <= sse[1]
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. Clustering-metric oracle
# ---------------------------------------------------------------------------

def _pairwise_bruteforce(assignment, labels):
    idx = [i for i, a in enumerate(assignment) if a != -1]
    both = same_c = same_l = 0
    for i, j in itertools.combinations(idx, 2):
        sc = assignment[i] == assignment[j]
        sl = labels[i] == labels[j]
        same_c += sc
        same_l += sl
        both += sc and sl
    p = both / same_c if same_c else 1.0
    r = both / same_l if same_l else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def test_criterion_04_pairwise_prf_oracle(announce):
    # worked example: clusters [A,A,A,B,B] against labels [1,1,2,2,2]
    got = metrics.pairwise_prf(
        Clustering(np.array([0, 0, 0, 1, 1])), LabelSet(np.array([0, 0, 1, 1, 1]))
    )
    worked = got == pytest.approx((0.5, 0.5, 0.5))

    rng = np.random.default_rng(4)
    matches = 0
    for _ in range(50):
        n = int(rng.integers(5, 301))
        n_clusters = int(rng.integers(1, 8))
        assignment = rng.integers(-1, n_clusters, size=n)
        labels = rng.integers(0, 6, size=n)
        _, labels = np.unique(labels, return_inverse=True)
        assigned = assignment != -1
        compact = assignment.copy()
        if assigned.any():
            _, inv = np.unique(assignment[assigned], return_inverse=True)
            compact[assigned] = inv
        got = metrics.pairwise_prf(Clustering(compact), LabelSet(labels))
        want = _pairwise_bruteforce(assignment.tolist(), labels.tolist())
        matches += got == pytest.approx(want)
    ok = worked and matches == 50
    announce(4, "pairwise P/R/F oracle", ok,
              f"worked example {'ok' if worked else 'WRONG'}, "
              f"{matches}/50 random clusterings match brute force")
    assert worked
    assert matches == 50


# ---------------------------------------------------------------------------
# 5. Gradient checks
# ---------------------------------------------------------------------------

def _max_rel_fd(arrays, grads, loss_fn, eps=1e-6):
    worst = 0.0
    for array, grad in zip(arrays, grads):
        flat, gflat = array.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


def test_criterion_05_gradient_checks(announce):
    start = time.perf_counter()

    # GCN regression loss on a toy graph
    cfg = SynthConfig(num_ids=2, samples_per_id=6, dim=4, within_id_sigma=0.2, seed=7)
    emb, labels = generate_identities(cfg)
    g = knn.build_knn_graph(emb, k=3)
    props = knn.Proposals.of([np.flatnonzero(labels.labels == 0), (0, 1, 6, 7)], [0.5, 0.3])
    # seed 9 left every ReLU dead (all gradients exactly 0); seed 4 does not
    model = cl.GcnModel.init(4, seed=4, widths=(3, 2))
    batch = cl._gather(cl._prepare(props, g), np.arange(len(props)), emb.rows)
    targets = cl._targets(props, labels)
    gcn_loss = lambda: cl._gcn_loss_and_grads(model, batch, targets)[0]
    _, d_head, d_layers = cl._gcn_loss_and_grads(model, batch, targets)
    arrays = [model.head_weights] + [w for pair in model.layer_weights for w in pair]
    grads = [d_head] + [w for pair in d_layers for w in pair]
    gcn_err = _max_rel_fd(arrays, grads, gcn_loss)
    gcn_norm = min(float(np.linalg.norm(g)) for pair in d_layers for g in pair)

    # cosine-margin loss of the head and its encoder, moved off the identity
    # (V = 0 there); float64, since float32 cannot resolve the 1e-6 steps
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 4))
    X /= np.linalg.norm(X, axis=1)[:, None]
    y = rng.integers(0, 3, size=10)
    w = rng.uniform(0.2, 1.0, size=10)
    W = rng.standard_normal((3, 4))
    init = EncoderParams.identity(4, seed=2)
    enc = EncoderParams(*(a.astype(np.float64) for a in (init.W, init.U, init.V)))
    enc.W += rng.standard_normal((4, 4)) * 0.1
    enc.V += rng.standard_normal((4, 4)) * 0.1
    loss_cfg = LossConfig(alpha=8.0, margin_m=0.2)
    _, dW, d_enc = _loss_and_grads(W, enc, X, y, w, loss_cfg)
    head_grads = [dW, d_enc.W, d_enc.U, d_enc.V]
    head_err = _max_rel_fd(
        [W, enc.W, enc.U, enc.V], head_grads,
        lambda: _loss_and_grads(W, enc, X, y, w, loss_cfg)[0],
    )
    head_norm = min(float(np.linalg.norm(g)) for g in head_grads)

    elapsed = time.perf_counter() - start
    ok = (gcn_norm > 0 and gcn_err < 1e-4 and head_norm > 0 and head_err < 1e-4
          and elapsed < 10.0)
    announce(5, "finite-difference gradient checks", ok,
              f"GCN max rel err {gcn_err:.2e} (smallest layer grad norm "
              f"{gcn_norm:.2e}), cosine head and encoder {head_err:.2e} (smallest "
              f"grad norm {head_norm:.2e}) (tol 1e-4), {elapsed:.2f}s (limit 10s)")
    assert gcn_norm > 0  # zero gradients would make the check vacuous
    assert gcn_err < 1e-4
    assert head_norm > 0
    assert head_err < 1e-4
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 6. De-overlap partition property
# ---------------------------------------------------------------------------

def test_criterion_06_deoverlap_partition_property(announce):
    rng = np.random.default_rng(6)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(10, 80))
        lists, ious = [], []
        for _ in range(int(rng.integers(1, 20))):
            size = int(rng.integers(1, 15))
            lists.append(rng.choice(n, size=min(size, n), replace=False))
            ious.append(float(rng.uniform(-0.2, 1.2)))
        props = knn.Proposals.of(lists)
        scores = np.stack([ious, np.zeros(len(ious))], axis=1)
        min_size = int(rng.integers(1, 5))
        c = cl.deoverlap(props, scores, min_cluster_size=min_size)
        member_sets = {tuple(p.members.tolist()) for p in props}
        for cid in range(c.num_clusters):
            cluster = np.flatnonzero(c.assignment == cid)
            if cluster.size < min_size:
                violations += 1
            # every emitted cluster is a subset of one proposal
            if not any(set(cluster.tolist()) <= set(m) for m in member_sets):
                violations += 1
    ok = violations == 0
    announce(6, "de-overlap partition property", ok,
              f"{violations} violations over 200 randomized proposal sets "
              "(disjointness, min_cluster_size, proposal-subset)")
    assert violations == 0


# ---------------------------------------------------------------------------
# 7. Uncertainty-metric ordering
# ---------------------------------------------------------------------------

def test_criterion_07_uncertainty_metric_ordering(announce):
    start = time.perf_counter()
    wins = 0
    pairs = []
    for seed in range(5):
        cfg = SynthConfig(num_ids=40, samples_per_id=20, dim=32,
                          within_id_sigma=0.15, seed=seed)
        emb, labels = generate_identities(cfg)
        c = Clustering(labels.labels)
        # 20% mixed noise: half outlier reassignments, half cluster splits
        c = inject_label_noise(c, labels, rate=0.10, mode="outlier", seed=seed + 100)
        c = inject_label_noise(c, labels, rate=0.10, mode="split_id", seed=seed + 200)
        head = noise.train_linear_classifier(emb, c, seed=seed)
        is_error = noise.label_cluster_errors(c, labels) != noise.CORRECT
        aps = {}
        for metric in ("class_margin", "entropy"):
            s = noise.uncertainty_scores(head, emb, metric)
            rank = s if metric == "entropy" else -s
            aps[metric] = noise.average_precision(rank, is_error)
        wins += aps["class_margin"] >= aps["entropy"]
        pairs.append((round(aps["class_margin"], 3), round(aps["entropy"], 3)))
    elapsed = time.perf_counter() - start
    ok = wins >= 4 and elapsed < 60.0
    announce(7, "AP(class_margin) >= AP(entropy) under 20% noise", ok,
              f"{wins}/5 seeds (need >=4), (margin, entropy) APs {pairs}, "
              f"{elapsed:.1f}s (limit 60s)")
    assert wins >= 4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. Noise-robust retraining
# ---------------------------------------------------------------------------

def _soft_vs_hard(seed: int, rate: float):
    """Verification accuracy of hard vs p⁻-weighted retraining on a harness
    with `rate` injected mixed pseudo-label noise."""
    num_ids, n_lab = 30, 15
    cfg = SynthConfig(num_ids=num_ids, samples_per_id=24, dim=32,
                      within_id_sigma=0.3, seed=seed)
    emb, labels = generate_identities(cfg)
    hold = np.zeros(emb.n, bool)
    for ident in range(num_ids):
        hold[np.flatnonzero(labels.labels == ident)[:6]] = True
    tr_emb = EmbeddingSet(emb.rows[~hold], normalized=True)
    tr_lab = LabelSet(labels.labels[~hold])
    te_emb = EmbeddingSet(emb.rows[hold], normalized=True)
    te_lab = LabelSet(labels.labels[hold])

    lab_mask = tr_lab.labels < n_lab
    labeled = (
        EmbeddingSet(tr_emb.rows[lab_mask], normalized=True),
        LabelSet(tr_lab.labels[lab_mask]),
    )
    un_emb = EmbeddingSet(tr_emb.rows[~lab_mask], normalized=True)
    un_lab = LabelSet(tr_lab.labels[~lab_mask] - n_lab)
    c = Clustering(un_lab.labels)
    if rate > 0:
        c = inject_label_noise(c, un_lab, rate=rate / 2, mode="outlier", seed=seed + 10)
        c = inject_label_noise(c, un_lab, rate=rate / 2, mode="split_id", seed=seed + 20)

    head = noise.train_linear_classifier(un_emb, c, seed=seed)
    s = noise.uncertainty_scores(head, un_emb, "class_margin")
    try:
        pm = noise.p_minus(noise.fit_noise_model(s, n_bins=64), s)
    except errors.OneSidedData:
        pm = np.zeros(s.size)  # clean margins: no lower mode, weights = 1
    c = Clustering(c.assignment, p_minus=pm)

    protocol = metrics.build_verification_protocol(te_lab, pairs_per_class=10, seed=seed)
    accs = {}
    for name, use_w in (("hard", False), ("soft", True)):
        model = train_head(labeled, (un_emb, c), LossConfig(), epochs=60, lr=0.1,
                           seed=seed, use_weights=use_w)
        accs[name], _ = metrics.verification_metrics(embed(model, te_emb), protocol)
    return accs


def test_criterion_08_soft_weighting_is_noise_robust(announce):
    wins = 0
    noisy = []
    for seed in range(5):
        accs = _soft_vs_hard(seed, rate=0.2)
        wins += accs["soft"] >= accs["hard"]
        noisy.append((round(accs["hard"], 4), round(accs["soft"], 4)))
    clean_diffs = []
    for seed in range(5):
        accs = _soft_vs_hard(seed, rate=0.0)
        clean_diffs.append(abs(accs["soft"] - accs["hard"]))
    max_clean = max(clean_diffs)
    ok = wins >= 4 and max_clean < 0.01
    announce(8, "soft >= hard under noise, soft == hard when clean", ok,
              f"soft >= hard in {wins}/5 noisy seeds (need >=4), "
              f"max clean |diff| {max_clean:.4f} (tol 0.01); (hard, soft) {noisy}")
    assert wins >= 4
    assert max_clean < 0.01


# ---------------------------------------------------------------------------
# 9. End-to-end trends
# ---------------------------------------------------------------------------

def _rank1_with_correct_pseudo(seed: int):
    """Rank-1 identification with and without correct-coverage pseudo-labels."""
    num_ids, n_lab = 40, 10
    cfg = SynthConfig(num_ids=num_ids, samples_per_id=24, dim=32,
                      within_id_sigma=0.3, seed=seed)
    emb, labels = generate_identities(cfg)
    hold = np.zeros(emb.n, bool)
    for ident in range(num_ids):
        hold[np.flatnonzero(labels.labels == ident)[:8]] = True
    tr_emb = EmbeddingSet(emb.rows[~hold], normalized=True)
    tr_lab = LabelSet(labels.labels[~hold])
    te_emb = EmbeddingSet(emb.rows[hold], normalized=True)
    te_lab = labels.labels[hold]

    lab_mask = tr_lab.labels < n_lab
    labeled = (
        EmbeddingSet(tr_emb.rows[lab_mask], normalized=True),
        LabelSet(tr_lab.labels[lab_mask]),
    )
    un_emb = EmbeddingSet(tr_emb.rows[~lab_mask], normalized=True)
    pseudo = Clustering(tr_lab.labels[~lab_mask] - n_lab)

    gallery = (EmbeddingSet(te_emb.rows[::2], normalized=True), te_lab[::2])
    probe = (EmbeddingSet(te_emb.rows[1::2], normalized=True), te_lab[1::2])
    out = {}
    for name, ps in (("baseline", None), ("pseudo", (un_emb, pseudo))):
        model = train_head(labeled, ps, LossConfig(), epochs=100, lr=0.1, seed=seed)
        g = (embed(model, gallery[0]), gallery[1])
        p = (embed(model, probe[0]), probe[1])
        out[name] = metrics.identification_rank(g, p, ks=(1,))[1]
    return out


def _overlap_pipeline_rank1(seed: int, separation: bool) -> float:
    cfg = _pipeline_config(
        synth={"num_ids": 40, "samples_per_id": 16, "dim": 32,
               "within_id_sigma": 0.15, "seed": seed},
        split={"overlap_id_fraction": 0.3},
        evt={"enabled": separation},
    )
    report = run_pipeline(cfg)
    return report["stages"]["evaluate"]["soft"]["identification_rank"]["1"]


def test_criterion_09_end_to_end_trends(announce):
    # (a) correct-coverage pseudo-labels improve rank-1 over labeled-only
    a_wins = 0
    a_pairs = []
    for seed in range(5):
        r = _rank1_with_correct_pseudo(seed)
        a_wins += r["pseudo"] > r["baseline"]
        a_pairs.append((round(r["baseline"], 3), round(r["pseudo"], 3)))

    # (b) separation-enabled pipeline beats the naive pipeline at 30% overlap
    b_wins = 0
    b_pairs = []
    for seed in range(5):
        sep = _overlap_pipeline_rank1(seed, separation=True)
        naive = _overlap_pipeline_rank1(seed, separation=False)
        b_wins += sep >= naive
        b_pairs.append((round(naive, 3), round(sep, 3)))

    # full pipeline runtime at n ≈ 5000, d = 32
    big = _pipeline_config(
        synth={"num_ids": 250, "samples_per_id": 20, "dim": 32,
               "within_id_sigma": 0.15, "seed": 0},
        split={"overlap_id_fraction": 0.3},
    )
    start = time.perf_counter()
    run_pipeline(big)
    elapsed = time.perf_counter() - start

    ok = a_wins >= 4 and b_wins >= 4 and elapsed < 300.0
    announce(9, "end-to-end trends", ok,
              f"pseudo > baseline rank-1 in {a_wins}/5 seeds {a_pairs}; "
              f"separation >= naive rank-1 in {b_wins}/5 seeds {b_pairs}; "
              f"n=5000 pipeline {elapsed:.1f}s (limit 300s)")
    assert a_wins >= 4
    assert b_wins >= 4
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 10. Fréchet sanity
# ---------------------------------------------------------------------------

def test_criterion_10_frechet_sanity(announce):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((500, 8))
    x /= np.linalg.norm(x, axis=1)[:, None]
    emb = EmbeddingSet(x, normalized=True)
    self_d = metrics.frechet_distance(emb, emb)

    n = 100_000
    a = EmbeddingSet(np.column_stack([rng.normal(0.0, 1.0, n), np.zeros(n)]))
    b = EmbeddingSet(np.column_stack([rng.normal(1.0, 1.0, n), np.zeros(n)]))
    analytic = metrics.frechet_distance(a, b)  # |Δμ|² + (σ-σ)² = 1.0

    c = EmbeddingSet(rng.standard_normal((300, 6)))
    d = EmbeddingSet(rng.standard_normal((300, 6)) + 0.3)
    asym = abs(metrics.frechet_distance(c, d) - metrics.frechet_distance(d, c))

    ok = self_d < 1e-6 and abs(analytic - 1.0) < 0.05 and asym < 1e-8
    announce(10, "Fréchet distance sanity", ok,
              f"d(X,X) {self_d:.2e} (tol 1e-6), 1-D analytic {analytic:.4f} "
              f"(1.0 ± 5%), asymmetry {asym:.2e} (tol 1e-8)")
    assert self_d < 1e-6
    assert abs(analytic - 1.0) < 0.05
    assert asym < 1e-8


# ---------------------------------------------------------------------------
# 11. Determinism
# ---------------------------------------------------------------------------

def _strip_wall_clock(payload):
    if isinstance(payload, dict):
        return {
            k: _strip_wall_clock(v)
            for k, v in payload.items()
            if k != "wall_clock_sec"
        }
    return payload


def test_criterion_11_determinism(tmp_path, announce):
    ini = tmp_path / "det.ini"
    ini.write_text(
        "[synth]\nnum_ids = 20\nsamples_per_id = 10\ndim = 16\n"
        "within_id_sigma = 0.15\nseed = 0\n"
        "[split]\noverlap_id_fraction = 0.3\n"
        "[cluster]\ngcn_epochs = 60\n"
        "[eval]\nholdout_per_id = 2\n"
    )
    out = str(tmp_path / "out")

    def run_and_read():
        assert main(["run", "--config", str(ini), "--seed", "5", "--out", out]) == 0
        with open(f"{out}/report.json") as fh:
            raw = fh.read()
        return json.dumps(_strip_wall_clock(json.loads(raw)), sort_keys=True)

    repeat_ok = run_and_read() == run_and_read()
    announce(11, "byte-identical reports for config+seed", repeat_ok,
              f"repeat run identical: {repeat_ok} (wall-clock fields excluded)")
    assert repeat_ok
