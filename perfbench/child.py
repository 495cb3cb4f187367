"""Run the labelforge pipeline once, in a fresh process, and time it.

Usage: python3 perfbench/child.py SPEC_JSON T_SPAWN

SPEC_JSON names a JSON file with keys ``root`` (checkout root),
``config`` (section -> key -> value overrides of ``cli.SCHEMA``),
``seed``, ``out`` (artifact directory), ``mode`` ("setup", "off",
"time" or "memory"), ``result`` (path of the JSON result this process
writes) and ``run_id`` (shared by every span of the run).
T_SPAWN is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is system-wide, so ``setup_s`` spans interpreter
start, imports and config construction.

Mode "setup" stops before the pipeline and reports only ``setup_s``.
With mode "time" the public functions of each module are wrapped from
outside (module attributes; nothing under ``src/`` changes) and every
call is recorded as one span. Mode "memory" records the same spans under
``tracemalloc`` and adds each span's peak allocation; its times are
distorted and must not be reported.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import resource
import sys
import time
import tracemalloc


# Count extractors take the call's bound arguments and its return value.
# They import labelforge lazily: main() puts src/ on sys.path first.


def _gcn_train_counts(a, model):
    props = a["proposals"]
    epochs = a["epochs"]
    return {
        "proposals": len(props),
        "member_rows": sum(len(p.members) for p in props) * epochs,
        "steps": epochs * math.ceil(len(props) / a["batch_size"]),
    }


def _train_head_variant(a):
    if a["pseudo"] is None:
        return "baseline"
    return "soft" if a["use_weights"] else "hard"


def _train_head_counts(a, model):
    from labelforge.data import UNASSIGNED

    rows = a["labeled"][0].n
    if a["pseudo"] is not None:
        rows += int((a["pseudo"][1].assignment != UNASSIGNED).sum())
    return {"rows": rows, "classes": int(model.head.weights.shape[0])}


def _separate_counts(a, decisions):
    from labelforge import evt

    return {
        "disjoint": int((decisions == evt.DISJOINT).sum()),
        "overlap": int((decisions == evt.OVERLAP).sum()),
        "rejected": int((decisions == evt.REJECTED).sum()),
    }


# module -> function -> count extractor. Per-item functions (gcn_forward,
# proposal_targets, symmetric_edges, cosine_loss, ...) are deliberately
# absent: they run once per proposal or sample and would add over a
# million spans per run.
TRACED = {
    "synth": {"generate_identities": None, "make_overlap_split": None},
    "knn": {
        "build_knn_graph": lambda a, g: {"edges": int(g.neighbors.size)},
        "default_thresholds": lambda a, ts: {"thresholds": len(ts)},
        "proposals_from_thresholds": lambda a, ps: {"proposals": len(ps)},
    },
    "cluster": {
        "union_augment": None,
        "gcn_train": _gcn_train_counts,
        "score_proposals": None,
        "deoverlap": lambda a, c: {
            "proposals": len(a["proposals"]),
            "clusters": c.num_clusters,
        },
    },
    "evt": {
        "max_logits": None,
        "fit_two_weibull_mixture": None,
        "separate_overlap": _separate_counts,
    },
    "noise": {
        "train_linear_classifier": None,
        "uncertainty_scores": None,
        "fit_noise_model": None,
    },
    "train": {"train_head": _train_head_counts, "embed": None},
    "metrics": {
        "pairwise_prf": None,
        "bcubed_prf": None,
        "verification_metrics": None,
        "identification_rank": None,
    },
    "data": {
        "save_embeddings": None,
        "load_embeddings": None,
        "save_labels": None,
        "load_labels": None,
        "save_clustering": None,
        "load_clustering": None,
    },
}

# span name suffix chosen from the call's arguments
VARIANTS = {("train", "train_head"): _train_head_variant}


class Tracer:
    """Collects one span per wrapped call, in memory, in call order.

    A span is ``[name, start, end, parent_index, counts, peak_alloc_bytes]``;
    ``parent_index`` is -1 for the outermost calls.
    """

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # per open span in memory mode: [traced bytes at entry, highest peak]
        self._mem: list[list[int]] = []
        self.memory = memory

    def _mem_enter(self):
        cur, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([cur, cur])

    def _mem_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        entry, highest = self._mem.pop()
        highest = max(highest, peak)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], highest)
        tracemalloc.reset_peak()
        return highest - entry

    def wrap(self, name: str, fn, count=None, variant=None):
        sig = inspect.signature(fn) if (count or variant) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            label = f"{name}.{variant(bound)}" if variant else name
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if self.memory:
                self._mem_enter()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if self.memory:
                    span[5] = self._mem_exit()
            if count is not None:
                span[4] = count(bound, result)
            return result

        return traced

    def install(self, cli) -> None:
        """Replace module attributes with traced wrappers."""
        import importlib

        for mod_name, funcs in TRACED.items():
            module = importlib.import_module(f"labelforge.{mod_name}")
            for fname, count in funcs.items():
                wrapped = self.wrap(
                    f"{mod_name}.{fname}",
                    getattr(module, fname),
                    count,
                    VARIANTS.get((mod_name, fname)),
                )
                setattr(module, fname, wrapped)
                # cli imports the data functions by name
                if mod_name == "data":
                    setattr(cli, fname, wrapped)
        # run_pipeline iterates cli.STAGES, which holds the stage functions
        cli.STAGES = tuple(
            (stage, self.wrap(f"cli.stage_{stage}", fn)) for stage, fn in cli.STAGES
        )
        cli.build_report = self.wrap("cli.build_report", cli.build_report)


def main(argv: list[str]) -> int:
    spec_path, t_spawn = argv[0], float(argv[1])
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from labelforge import cli

    values = {s: {k: d for k, (_, d) in keys.items()} for s, keys in cli.SCHEMA.items()}
    for section, keys in spec["config"].items():
        values[section].update(keys)
    cfg = cli.apply_overrides(cli.PipelineConfig(values), seed=spec["seed"], out=spec["out"])
    cfg.threads = 1  # same as `forge run --threads 1`
    if spec["mode"] == "setup":
        _write(spec["result"], {"setup_s": time.monotonic() - t_spawn})
        return 0

    tracer = None
    if spec["mode"] != "off":
        tracer = Tracer(memory=spec["mode"] == "memory")
        tracer.install(cli)
        if tracer.memory:
            tracemalloc.start()

    start, cpu = time.monotonic(), time.process_time()
    cli.run_pipeline(cfg)
    end, cpu = time.monotonic(), time.process_time() - cpu

    result = {
        "run_id": spec["run_id"],
        "setup_s": start - t_spawn,
        "pipeline_s": end - start,
        "pipeline_cpu_s": cpu,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer is not None else None,
    }
    _write(spec["result"], result)
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
