"""Pipeline benchmark for labelforge: time to pseudo-labels, with quality guards.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each measured run is one fresh ``perfbench/child.py`` process that calls
``cli.run_pipeline`` on the workload's config; runs go one at a time.
``--trace 0`` times untraced runs and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced runs, adds one tracemalloc
pass, and prints the per-layer metrics. Every run of a seed must write a
``report.json`` byte-identical (``wall_clock_sec`` stripped) to the first
run's, with every bounded quality number finite and in [0, 1]; a run that fails
either check or exits non-zero counts as failed. Human-readable lines go
first; the last stdout line is one JSON object. The exit code is 1 when any
check failed and 2 when the benchmark could not run at all. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 0  # seed 7 is held out: a later claimed gain must also hold on it
BLAS_THREADS = 1  # <= nproc on any machine; k-NN search also gets --threads 1
INPUTS_PER_SEED = 3  # pipeline inputs per benchmark seed; quality is their mean
SETUP_SAMPLES = 5  # extra start-up-only processes per --trace 0 run
MIN_RUNS = 2  # every input runs at least twice, so every report is checked
RUN_TIMEOUT_S = 150
# the tracemalloc pass of --trace 1 takes up to this many untraced runs'
# time; the timed runs leave room for it inside --seconds
MEMORY_PASS_RUNS = 3
RUN_FIELDS = ("setup_s", "pipeline_s", "pipeline_cpu_s", "peak_rss_mb")  # kept per run

WORKLOADS = {
    # 5k samples with one GCN epoch and ten head epochs: k-NN build, the
    # threshold sweep and the three head trainings carry most of the time;
    # a change to GCN epochs barely moves it
    "scale-n5k": {
        "synth": {"num_ids": 250, "samples_per_id": 20, "dim": 32, "within_id_sigma": 0.15},
        "split": {"overlap_id_fraction": 0.3},
        "cluster": {"gcn_epochs": 1},
        "train": {"epochs": 10},
    },
    # long-tailed identities at d=128: proposals are large and the GCN
    # layers are 128/64 wide, so a proposal costs dense matmul rather than
    # Python overhead; a batching scheme that pads pays for it here. The
    # tail is 40..100 samples per identity rather than 20..100: with the
    # wider tail the number of samples to cluster varied 1.7 times as much
    # from seed to seed
    "tail-d128": {
        "synth": {
            "num_ids": 32,
            "samples_per_id": 40,
            "samples_per_id_max": 100,
            "dim": 128,
            "within_id_sigma": 0.13,
        },
        "split": {"overlap_id_fraction": 0.3},
        "cluster": {"gcn_epochs": 3},
        # 10 verification pairs per identity instead of 3: with 32 test
        # identities TAR and accuracy would rest on 96 pairs per side
        "eval": {"pairs_per_class": 10},
    },
}

QUALITY = (
    "cluster_bcubed_f",
    "cluster_pairwise_f",
    "cluster_coverage",
    "overlap_tnr",
    "baseline_rank1",
    "soft_rank1",
    "soft_tar_far1e-2",
    "soft_verif_acc",
)
END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{name: "ratio" for name in QUALITY},
}


def quality(report: dict) -> dict:
    """Quality numbers read from one report.json."""
    st = report["stages"]
    ev = st["evaluate"]
    fpr = st["separate"]["weibull_fpr"]
    return {
        "cluster_bcubed_f": st["cluster"]["bcubed"]["f1"],
        "cluster_pairwise_f": st["cluster"]["pairwise"]["f1"],
        "cluster_coverage": st["cluster"]["coverage"],
        # true-negative rate of the overlap decision, 1 - Weibull FPR
        "overlap_tnr": None if fpr is None else 1.0 - fpr,
        "overlap_fpr": fpr,
        "pminus_ap": st["noise"]["average_precision"]["class_margin"],
        "baseline_rank1": ev["baseline"]["identification_rank"]["1"],
        "soft_rank1": ev["soft"]["identification_rank"]["1"],
        "hard_rank1": ev["hard"]["identification_rank"]["1"],
        "soft_tar_far1e-2": ev["soft"]["tar_at_far"]["0.01"],
        "soft_tar_far1e-3": ev["soft"]["tar_at_far"]["0.001"],
        "soft_verif_acc": ev["soft"]["verification_accuracy"],
    }


def quality_errors(q: dict) -> list[str]:
    """Bounded numbers must be finite and in [0, 1]; the others may also be
    None, which the report uses for "undefined" (e.g. no positives)."""
    return [
        f"{name}={value!r} is not a finite number in [0, 1]"
        for name, value in q.items()
        if not (value is None and name not in QUALITY)
        and not (isinstance(value, (int, float)) and math.isfinite(value) and 0 <= value <= 1)
    ]


# per-layer metrics: the traced spans' self time, counts taken from the
# wrapped calls' arguments and return values, and the tracemalloc pass
STAGES = ("gen", "separate", "cluster", "noise", "retrain", "evaluate")
TIMED_LAYERS = (
    "cluster.gcn_train",
    "cluster.score_proposals",
    "cluster.union_augment",
    "cluster.deoverlap",
    "knn.build_knn_graph",
    "knn.default_thresholds",
    "knn.proposals_from_thresholds",
    "train.train_head.baseline",
    "train.train_head.hard",
    "train.train_head.soft",
    "train.embed",
    "evt.max_logits",
    "evt.fit_two_weibull_mixture",
    "noise.train_linear_classifier",
    "noise.uncertainty_scores",
    "noise.fit_noise_model",
    "metrics.pairwise_prf",
    "metrics.bcubed_prf",
    "metrics.verification_metrics",
    "metrics.identification_rank",
    "synth.generate_identities",
    "synth.make_overlap_split",
    "data.save_embeddings",
    "data.load_embeddings",
    "data.save_labels",
    "data.load_labels",
    "data.save_clustering",
    "data.load_clustering",
    "cli.build_report",
) + tuple(f"cli.stage_{s}" for s in STAGES)
# metric name -> (span name, count key), summed over calls
COUNTS = {
    "cluster.gcn_train.proposals": ("cluster.gcn_train", "proposals"),
    "cluster.gcn_train.member_rows": ("cluster.gcn_train", "member_rows"),
    "cluster.gcn_train.steps": ("cluster.gcn_train", "steps"),
    "knn.edges": ("knn.build_knn_graph", "edges"),
    "knn.thresholds": ("knn.default_thresholds", "thresholds"),
    "knn.proposals": ("knn.proposals_from_thresholds", "proposals"),
    "evt.disjoint": ("evt.separate_overlap", "disjoint"),
    "evt.overlap": ("evt.separate_overlap", "overlap"),
    "evt.rejected": ("evt.separate_overlap", "rejected"),
    **{
        f"train.train_head.{v}.{k}": (f"train.train_head.{v}", k)
        for v in ("baseline", "hard", "soft")
        for k in ("rows", "classes")
    },
}
MEMORY_LAYERS = (
    "knn.build_knn_graph",
    "knn.proposals_from_thresholds",
    "cluster.gcn_train",
    "cluster.score_proposals",
    "train.train_head.baseline",
    "train.train_head.soft",
    "noise.train_linear_classifier",
    "metrics.verification_metrics",
)
PER_LAYER = {
    **{f"{n}.s": "s" for n in TIMED_LAYERS},
    **{f"cli.stage_{s}.self_s": "s" for s in STAGES},
    **{name: "count" for name in COUNTS},
    "cluster.deoverlap.emit_ratio": "ratio",
    **{f"{n}.peak_alloc_mb": "MB" for n in MEMORY_LAYERS},
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
}


def span_times(spans: list) -> dict:
    """Self time per span name, summed over calls; stages also get their
    total (``.s``) beside their self time (``.self_s``)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = defaultdict(float)
    for i, (name, start, end, _, _, _) in enumerate(spans):
        own = end - start - covered[i]
        if name.startswith("cli."):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += own
        else:
            out[f"{name}.s"] += own
    return out


def span_counts(spans: list) -> dict:
    totals: dict = defaultdict(int)
    for name, _, _, _, counts, _ in spans:
        for key, value in (counts or {}).items():
            totals[name, key] += value
    out = {metric: totals[key] for metric, key in COUNTS.items()}
    props = totals["cluster.deoverlap", "proposals"]
    out["cluster.deoverlap.emit_ratio"] = (
        totals["cluster.deoverlap", "clusters"] / props if props else 0.0
    )
    return out


def span_peaks(spans: list) -> dict:
    peaks: dict = defaultdict(int)
    for name, _, _, _, _, peak in spans:
        peaks[name] = max(peaks[name], peak or 0)
    return {f"{n}.peak_alloc_mb": peaks[n] / 2**20 for n in MEMORY_LAYERS}


def strip_wall_clock(payload):
    """The criterion-11 rule: drop every ``wall_clock_sec`` field."""
    if isinstance(payload, dict):
        return {k: strip_wall_clock(v) for k, v in payload.items() if k != "wall_clock_sec"}
    return payload


def pipeline_seeds(seed: int) -> list[int]:
    """The pipeline seeds (``cli.apply_overrides(seed=...)``) of one
    benchmark seed: INPUTS_PER_SEED distinct inputs, disjoint across seeds."""
    return [seed * INPUTS_PER_SEED + j for j in range(INPUTS_PER_SEED)]


class Runner:
    """Runs child processes for one workload, one at a time, and checks
    each run's report against the first run of the same pipeline seed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.dir = os.path.join(OUT, workload)
        self.references: dict[int, str] = {}  # pipeline seed -> first report
        self.quality: dict[int, dict] = {}  # pipeline seed -> quality numbers
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
            # one str/bytes hash seed, so dict and set layouts (and their
            # speed) do not change from process to process
            PYTHONHASHSEED="0",
        )

    def _artifacts(self, pseed: int) -> str:
        return os.path.join(self.dir, f"seed{pseed}")

    def _spawn(self, mode: str, pseed: int) -> dict | None:
        artifacts = self._artifacts(pseed)
        shutil.rmtree(artifacts, ignore_errors=True)
        os.makedirs(artifacts)
        spec_path = os.path.join(self.dir, "spec.json")
        result_path = os.path.join(self.dir, f"result-{mode}.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        spec = {
            "root": ROOT,
            "config": WORKLOADS[self.workload],
            "seed": pseed,
            "out": artifacts,
            "mode": mode,
            "result": result_path,
            "run_id": f"{self.workload}-seed{pseed}-{mode}-{self.attempted}",
        }
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        child = os.path.join(HERE, "child.py")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, child, spec_path, repr(t_spawn)],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _, err = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.errors.append(f"seed {pseed} {mode} run timed out after {RUN_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["(no stderr)"]
            self.errors.append(f"seed {pseed} {mode} run exited {proc.returncode}: {tail[0]}")
            return None
        with open(result_path) as fh:
            return json.load(fh)

    def setup_only(self, pseed: int) -> float | None:
        res = self._spawn("setup", pseed)
        return None if res is None else res["setup_s"]

    def pipeline(self, mode: str, pseed: int) -> dict | None:
        """One checked pipeline run; None if it failed."""
        self.attempted += 1
        res = self._spawn(mode, pseed)
        if res is not None:
            with open(os.path.join(self._artifacts(pseed), "report.json")) as fh:
                report = json.load(fh)
            canonical = json.dumps(strip_wall_clock(report), sort_keys=True)
            if pseed not in self.references:
                q = quality(report)
                bad = quality_errors(q)
                self.errors.extend(f"seed {pseed}: {msg}" for msg in bad)
                if bad:
                    res = None
                else:
                    self.references[pseed] = canonical
                    self.quality[pseed] = q
            elif canonical != self.references[pseed]:
                self.errors.append(
                    f"seed {pseed} {mode} run: report.json differs from the first run's"
                )
                res = None
        if res is None:
            self.failed += 1
        return res


def measure(workload: str, seed: int, seconds: float, trace: bool):
    runner = Runner(workload)
    seeds = pipeline_seeds(seed)
    # --trace 1 measures the first input only, untraced and traced in turn
    plan = [("off", seeds[0]), ("time", seeds[0])] if trace else [("off", s) for s in seeds]
    start = time.monotonic()
    setups = [] if trace else [runner.setup_only(seeds[0]) for _ in range(SETUP_SAMPLES)]
    # one run at a time, cycling through the plan, until the next run (and
    # the tracemalloc pass after it) would end past --seconds; every plan
    # entry runs at least MIN_RUNS times and failed runs count too, so
    # failures cannot loop
    runs: list[tuple] = []  # (mode, pipeline seed, result or None)
    walls: list[float] = []
    reserve = MEMORY_PASS_RUNS if trace else 0
    while len(runs) < MIN_RUNS * len(plan) or (
        time.monotonic() - start + (1 + reserve) * statistics.median(walls) <= seconds
    ):
        mode, pseed = plan[len(runs) % len(plan)]
        begin = time.monotonic()
        runs.append((mode, pseed, runner.pipeline(mode, pseed)))
        walls.append(time.monotonic() - begin)
    # plan entry -> its successful runs
    done = {e: [r for m, p, r in runs if (m, p) == e and r is not None] for e in plan}
    whole = all(done.values())
    memory = runner.pipeline("memory", seeds[0]) if trace else None

    metrics: dict = {}
    if not trace and whole:
        # the mean over each input's runs, then over the inputs: every input
        # weighs the same, however many runs of it fitted
        for name in ("pipeline_s", "peak_rss_mb"):
            metrics[name] = statistics.fmean(
                statistics.fmean(x[name] for x in done[e]) for e in plan
            )
        metrics["setup_s"] = statistics.median(
            [s for s in setups if s is not None] + [x["setup_s"] for e in plan for x in done[e]]
        )
        if len(runner.quality) == len(seeds):
            for name in QUALITY:
                metrics[name] = statistics.fmean(runner.quality[s][name] for s in seeds)
    if trace and whole:
        plain, traced = done[plan[0]], done[plan[1]]
        counts = [span_counts(r["spans"]) for r in traced]
        if any(c != counts[0] for c in counts):
            runner.errors.append("counts differ between traced runs")
        times = [span_times(r["spans"]) for r in traced]
        for name, unit in PER_LAYER.items():
            if unit == "s" and not name.startswith("trace."):
                metrics[name] = statistics.median(t.get(name, 0.0) for t in times)
        metrics.update(counts[0])
        if memory is not None:
            metrics.update(span_peaks(memory["spans"]))
        traced_s = statistics.median(r["pipeline_s"] for r in traced)
        metrics["trace.pipeline_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - statistics.median(r["pipeline_s"] for r in plain)

    names = PER_LAYER if trace else END_TO_END
    missing = [n for n in names if n not in metrics]
    if missing and whole:
        runner.errors.append(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": runner.failed == 0 and not runner.errors and not missing,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n], "unit": names[n]} for n in names if n in metrics},
    }
    details = {
        "workload": workload,
        "config": WORKLOADS[workload],
        "seed": seed,
        "pipeline_seeds": seeds,
        "trace": trace,
        "environment": environment(),
        "errors": runner.errors,
        "quality": runner.quality,
        "runs": [
            {"mode": m, "pipeline_seed": p, **({} if x is None else {k: x[k] for k in RUN_FIELDS})}
            for m, p, x in runs
        ],
        "result": result,
    }
    path = os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{int(trace)}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
    return result, details, path


def environment() -> dict:
    import numpy as np

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, ImportError, KeyError, TypeError):  # not a stable interface
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "knn_threads": 1,
        "git_commit": commit,
        "machine": platform.machine(),
    }


def print_summary(workload: str, result: dict, details: dict, path: str) -> None:
    print(
        f"== {workload} seed={details['seed']} (pipeline seeds {details['pipeline_seeds']}) "
        f"trace={int(details['trace'])}: {len(details['runs'])} runs, "
        f"failed_runs {result['failed']}/{result['attempted']}, correct={result['correct']}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>12.6g} {m['unit']}")
    if details["quality"]:
        # quality numbers too noisy across seeds to carry a bound
        extra = sorted(set(next(iter(details["quality"].values()))) - set(QUALITY))
        for name in extra:
            values = [q[name] for q in details["quality"].values() if q[name] is not None]
            if values:
                print(f"  {name + ' (no bound)':<44} {statistics.fmean(values):>12.6g} ratio")
    for err in details["errors"]:
        print(f"  check failed: {err}")
    print(f"  details: {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "labelforge", "cli.py")):
        print(f"error: no labelforge source under {ROOT}/src", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, details, path = measure(name, args.seed, args.seconds, bool(args.trace))
        if not result["metrics"]:
            print(f"error: {name}: no run succeeded: {details['errors']}", file=sys.stderr)
            return 2
        print_summary(name, result, details, path)
        results[name] = result
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
