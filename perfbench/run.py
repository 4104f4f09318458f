"""kttrace benchmark: drive the CLI pipeline in process and time each stage.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pretrain-mix --seed 1 --seconds 36 --trace 0

One client, one process, stages in order (a closed loop). Set-up imports
kttrace in a fresh interpreter and writes the seed's inputs (and, for
``adapt-target``, builds the source checkpoint), at least three times and
until the set-ups add up to three seconds; the median is ``setup_s``.
Then rounds of the workload's stages repeat until ``--seconds`` is used
up; each throughput is the work of all of a stage's calls over their
total wall time.
``--trace 1`` alternates untraced and traced rounds, reports the
per-layer metrics of the traced ones and the tracing overhead. The last
line of stdout is the result as one JSON object; the full report, with
every span, is written under ``.perfbench/reports``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Set-up is repeated at least SETUP_REPS times and until the repeats add up
# to MIN_SETUP_S: one set-up of a pre-training workload takes about 0.25 s,
# mostly interpreter start-up, and the median of three spread by up to 46 %
# over ten seeds.
SETUP_REPS = 3
MIN_SETUP_S = 3.0
MAX_SETUP_REPS = 20
# An untraced round repeats a stage until its calls add up to MIN_STAGE_S,
# so that short stages (preprocess, eval) are timed over enough work. In a
# traced run every round calls each stage once: the traced rounds so that
# their counts repeat exactly, the untraced ones so that the tracing overhead
# compares like with like.
MIN_STAGE_S = 0.5
MAX_STAGE_CALLS = 50

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("preprocess_interactions_per_s", "interactions/s"),
    ("train_interactions_per_s", "interactions/s"),
    ("eval_predictions_per_s", "predictions/s"),
    ("quality_auc", "AUC"),
    ("peak_rss_mb", "MB"),
    ("stage_ok_ratio", "ratio"),
)

OPS = ("matmul", "causal_attention", "embedding_lookup", "layer_norm", "sigmoid",
       "add", "mul", "dropout", "mean_over_axis", "gate_apply")

# (metric, unit, how, argument). ``how`` names a reader in ``_layer_value``.
PER_LAYER = (
    [("cli.preprocess_s", "s", "total", "cli.preprocess"),
     ("cli.train_s", "s", "train_stage", None),
     ("cli.eval_s", "s", "total", "cli.eval"),
     ("cli.self_s", "s", "cli_self", None),
     ("data.ingest_s", "s", "total", "data.ingest"),
     ("data.preprocess_s", "s", "total", "data.preprocess"),
     ("data.write_blocks_s", "s", "total", "data.write_blocks"),
     ("data.mix_batches_s", "s", "total", "data.mix_batches"),
     ("data.pack_segments_s", "s", "total", "data.pack_segments"),
     ("data.pack_segments_calls", "count", "calls", "data.pack_segments"),
     ("data.real_tokens", "count", "counter", "real_tokens"),
     ("data.padded_cells", "count", "counter", "padded_cells"),
     ("data.token_util", "ratio", "ratio", ("real_tokens", "padded_cells")),
     ("data.attn_util", "ratio", "ratio", ("attn_real_cells", "attn_cells")),
     ("model.forward_batch_s", "s", "forward_not_predict", None),
     ("model.forward_batch_self_s", "s", "self", "model.KTModel.forward_batch"),
     ("model.predict_batch_s", "s", "total", "model.KTModel.predict_batch"),
     ("model.copy_arrays_s", "s", "total", "model.KTModel.copy_arrays"),
     ("autograd.backward_s", "s", "total", "autograd.Tape.backward"),
     ("autograd.bce_loss_s", "s", "total", "autograd.bce_loss")]
    + [(f"autograd.fwd.{op}_s", "s", "total", f"autograd.{op}")
       for op in OPS if op != "gate_apply"]
    + [(f"autograd.fwd.{op}_calls", "count", "calls", f"autograd.{op}") for op in OPS]
    + [("autograd.matmul_gflop", "GFLOP", "gflop", "matmul_flop"),
       ("autograd.attention_gflop", "GFLOP", "gflop", "attention_flop"),
       ("train.fit_self_s", "s", "self", "train.fit"),
       ("train.adam_step_s", "s", "total", "train.Adam.step"),
       ("train.clip_gradients_s", "s", "total", "train.clip_gradients"),
       ("train.steps", "count", "calls", "train.Adam.step"),
       ("train.clip_fired_ratio", "ratio", "ratio", ("clip_fired", "clip_calls")),
       ("train.save_checkpoint_s", "s", "total", "train.save_checkpoint"),
       ("train.load_checkpoint_s", "s", "total", "train.load_checkpoint"),
       ("train.checkpoint_bytes", "count", "counter", "checkpoint_bytes"),
       ("importance.modulate_calls", "count", "calls", "importance.modulate"),
       ("importance.frozen_unit_ratio", "ratio", "ratio", ("frozen_units", "gated_units")),
       ("metrics.collect_predictions_s", "s", "total", "metrics.collect_predictions"),
       ("metrics.collect_predictions_self_s", "s", "self", "metrics.collect_predictions"),
       ("metrics.auc_s", "s", "total", "metrics.auc"),
       ("metrics.predictions", "count", "counter", "predictions"),
       ("bench.trace_overhead_pct", "%", "overhead", None)]
)

# Times that are zero by construction on some workload (a stage it does not
# run). They are in the report but not in BENCHMARK.json, whose metrics are
# printed for every workload.
REPORT_ONLY = [
    ("cli.pretrain_s", "s", "total", "cli.pretrain"),
    ("cli.importance_s", "s", "total", "cli.importance"),
    ("cli.finetune_s", "s", "total", "cli.finetune"),
    ("model.zero_shot_adapt_s", "s", "total", "model.zero_shot_adapt"),
    ("autograd.fwd.gate_apply_s", "s", "total", "autograd.gate_apply"),
    ("importance.compute_s", "s", "total", "importance.compute_importance"),
    ("importance.modulate_s", "s", "total", "importance.modulate"),
    ("importance.freeze_masks_s", "s", "total", "importance.freeze_masks"),
]


# ---------------------------------------------------------------------------
# process set-up


def single_blas_thread():
    """One BLAS thread; must run before numpy loads.

    An idle OpenBLAS worker spins for a while after each call. On a 2-core
    machine the spinning worker slowed the Python code that follows a BLAS
    call by up to 2x, by an amount that changed with scheduling, and stage
    times swung by 40 % between rounds. One thread has no worker to spin.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_kttrace():
    """Import the checkout's kttrace; returns its cli module."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import kttrace.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"kttrace imported from {cli.__file__}, not from {src}")
    return cli


def _blas_runtime_threads():
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed):
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": _blas_runtime_threads() or os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": _git_commit(),
            "seed": seed}


# ---------------------------------------------------------------------------
# one stage, one round


def call_stage(cli, argv, tracer=None, stage=None, round_no=None):
    """Run one CLI command in process: (exit code, parsed summary, wall s)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.stage(stage, round_no):
                    code = cli.main(argv)
    except Exception:   # a traceback is a failed stage, not a crashed benchmark
        traceback.print_exc()
        code = -1
    wall = time.perf_counter() - start
    lines = buf.getvalue().strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        summary = None
    if not isinstance(summary, dict) or summary.get("command") != argv[0]:
        summary = None
    return code, summary, wall


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Ledger:
    """Stage calls attempted and the failed ones, with the reasons for each.

    A failed check marks the call whose output it checked, so ``failed``
    and ``attempted`` count the same thing: calls.
    """

    def __init__(self):
        self.calls = []            # (round, stage) of every call attempted
        self.failed = {}           # index into calls -> [reasons]

    @property
    def attempted(self):
        return len(self.calls)

    def attempt(self, round_no, stage):
        self.calls.append((round_no, stage))

    def fail(self, round_no, stage, reason):
        """Mark the latest call of ``stage`` in ``round_no`` failed."""
        index = max(i for i, key in enumerate(self.calls) if key == (round_no, stage))
        self.failed.setdefault(index, []).append(reason)
        print(f"perfbench: round {round_no} {stage}: {reason}", file=sys.stderr)

    def failures(self):
        return [{"round": self.calls[i][0], "stage": self.calls[i][1], "reasons": why}
                for i, why in sorted(self.failed.items())]

    def call(self, cli, argv, round_no, stage, tracer=None):
        self.attempt(round_no, stage)
        code, summary, wall = call_stage(cli, argv, tracer, stage, round_no)
        if code != 0:
            self.fail(round_no, stage, f"exit code {code}")
        elif summary is None:
            self.fail(round_no, stage, "no parseable JSON summary on stdout")
        return summary, wall


def setup(workload, seed, workdir, cli, ledger):
    """Import kttrace in a fresh interpreter, as every CLI command does, then
    write the inputs (and the source checkpoint); returns (Inputs, seconds)."""
    from workloads import setup_argvs, write_inputs
    if workdir.exists():
        shutil.rmtree(workdir)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    start = time.perf_counter()
    ledger.attempt("setup", "import")
    proc = subprocess.run([sys.executable, "-c", "import kttrace.cli"], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        ledger.fail("setup", "import", proc.stderr.strip()[-500:])
    inputs = write_inputs(workload, seed, workdir)
    for argv in setup_argvs(workload, inputs):
        summary, _ = ledger.call(cli, argv, "setup", argv[0])
        if summary is None:
            break
    return inputs, time.perf_counter() - start


def check_checkpoint(path, ledger, round_no, stage):
    """Reload a written checkpoint; returns its metadata or None."""
    from kttrace.train import load_checkpoint
    try:
        return load_checkpoint(path).metadata
    except (OSError, ValueError, KeyError) as exc:
        ledger.fail(round_no, stage, f"checkpoint {path} does not reload: {exc}")
        return None


def check_profile(path, n_layers, ledger, round_no):
    """The profile covers every gated sublayer, each max-normalized."""
    try:
        layers = json.loads(Path(path).read_text(encoding="utf-8"))["layers"]
        maxima = [(e["block"], e["kind"], max(e["values"], default=0.0)) for e in layers]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ledger.fail(round_no, "importance", f"profile {path} is unreadable: {exc!r}")
        return
    if len(maxima) != 3 * n_layers:
        ledger.fail(round_no, "importance",
                    f"profile has {len(maxima)} sublayers, expected {3 * n_layers}")
    for block, kind, vmax in maxima:
        if vmax not in (0.0, 1.0):
            ledger.fail(round_no, "importance", f"layer {block}/{kind} max is {vmax}, not 1 or 0")


def run_round(workload, inputs, cli, ledger, round_no, tracer=None,
              min_stage_s=MIN_STAGE_S):
    """One pass over the workload's stages, with its output checks.

    Returns the round's figures (the wall time of every call of each stage
    and the work one call does, see ``pooled_figures``) and a fingerprint
    (checkpoint and profile digests, AUCs) that every round of one seed
    must repeat, or None when a stage failed.
    """
    from workloads import prepared_interactions, stage_argvs
    times, summaries = {}, {}
    for stage, argv in stage_argvs(workload, inputs):
        times[stage] = []
        while True:
            summary, wall = ledger.call(cli, argv, round_no, stage, tracer)
            if summary is None:
                return None
            summary.pop("elapsed_s", None)
            if times[stage] and summary != summaries[stage]:
                ledger.fail(round_no, stage, "repeated call printed another summary")
            times[stage].append(wall)
            summaries[stage] = summary
            if tracer is not None or sum(times[stage]) >= min_stage_s \
                    or len(times[stage]) >= MAX_STAGE_CALLS:
                break

    work, fingerprint = {}, {}
    work["preprocess"] = sum(inputs.raw_interactions[d["dataset"]]
                             for d in summaries["preprocess"]["datasets"])

    train_stage = workload.train_stage
    train_names = ([s.name for s in workload.pretrain] if workload.target is None
                   else [workload.target.name])
    ckpt = summaries[train_stage]["checkpoint"]
    meta = check_checkpoint(ckpt, ledger, round_no, train_stage)
    fingerprint[train_stage] = _sha256(ckpt)
    epochs = meta["epochs_run"] if meta else 0
    work[train_stage] = epochs * sum(prepared_interactions(inputs.workdir, n, "train")
                                     for n in train_names)

    if "importance" in summaries:
        summary = summaries["importance"]
        work["importance"] = summary["n_samples"]
        check_profile(summary["profile"], workload.n_layers, ledger, round_no)
        fingerprint["importance"] = _sha256(summary["profile"])

    results = summaries["eval"]["results"]
    work["eval"] = sum(r["n"] for r in results)
    test_aucs = [r["auc"] for r in results if r["split"] == "test"]
    fig = {"times": times, "work": work,
           "quality_auc": statistics.fmean(test_aucs) if test_aucs else math.nan}
    fig.update(pooled_figures([fig], train_stage))
    fingerprint["eval"] = [[r["dataset"], r["split"], r["n"], r["auc"]] for r in results]
    if not 0.5 < fig["quality_auc"] <= 1.0:
        ledger.fail(round_no, "eval", f"quality_auc {fig['quality_auc']} not in (0.5, 1]")
    return fig, fingerprint


RATES = {"preprocess": "preprocess_interactions_per_s",
         "pretrain": "pretrain_interactions_per_s",
         "importance": "importance_sequences_per_s",
         "finetune": "finetune_interactions_per_s",
         "eval": "eval_predictions_per_s"}


def pooled_figures(rounds, train_stage):
    """Stage throughputs and ``pipeline_s`` over every call in ``rounds``.

    A throughput is the work of all calls of a stage divided by their total
    wall time, and ``pipeline_s`` sums each stage's mean call. The reference
    machine runs at one of two speeds, about 1.6x apart, for seconds at a
    time; a median over a few rounds jumps between the two, while this
    time-weighted mean moves with the share of slow time (across ten seeds,
    preprocess throughput spread 36 % as a median of rounds, 22 % pooled).
    """
    if not rounds:
        return {}
    out = {"pipeline_s": 0.0}
    for stage in rounds[0]["times"]:
        calls = [(r["work"][stage], t) for r in rounds for t in r["times"][stage]]
        wall = sum(t for _, t in calls)
        out["pipeline_s"] += wall / len(calls)
        out[RATES[stage]] = sum(w for w, _ in calls) / wall
    out["train_interactions_per_s"] = out[RATES[train_stage]]
    return out


# ---------------------------------------------------------------------------
# per-layer figures from the spans of one traced round


def _layer_value(how, arg, stats, counters, workload):
    def total(name):
        return stats[name]["total_s"] if name in stats else 0.0

    if how == "total":
        return total(arg)
    if how == "calls":
        return stats[arg]["calls"] if arg in stats else 0
    if how == "self":
        return stats[arg]["self_s"] if arg in stats else 0.0
    if how == "counter":
        return counters.get(arg, 0)
    if how == "gflop":
        return counters.get(arg, 0) / 1e9
    if how == "ratio":
        den = counters.get(arg[1], 0)
        return counters.get(arg[0], 0) / den if den else 0.0
    if how == "train_stage":
        return total(f"cli.{workload.train_stage}")
    if how == "cli_self":
        return sum(s["self_s"] for name, s in stats.items() if name.startswith("cli."))
    if how == "forward_not_predict":
        return stats.get("model.KTModel.forward_batch", {}).get("not_predict_s", 0.0)
    raise ValueError(how)


def layer_figures(tracer, round_no, workload):
    stats = tracer.round_stats(round_no)
    forward = stats.get("model.KTModel.forward_batch")
    if forward is not None:
        spans = tracer.spans
        forward["not_predict_s"] = sum(
            end - start for name, start, end, parent, rnd in spans
            if rnd == round_no and name == "model.KTModel.forward_batch"
            and (parent < 0 or spans[parent][0] != "model.KTModel.predict_batch"))
    counters = tracer.counters.get(round_no, {})
    values = {metric: _layer_value(how, arg, stats, counters, workload)
              for metric, _, how, arg in PER_LAYER + REPORT_ONLY if how != "overhead"}
    return values, stats


def absent_metrics(tracer):
    """Metrics whose wrapped function or method no longer exists."""
    out = []
    for metric, _, how, arg in PER_LAYER + REPORT_ONLY:
        if how in ("total", "calls", "self") and not arg.startswith("cli.") \
                and arg not in tracer.installed:
            out.append(metric)
    return out


# ---------------------------------------------------------------------------
# the run


def _median(values):
    return statistics.median(values) if values else math.nan


def run_workload(workload, seed, seconds, trace, workdir, min_setup_s=MIN_SETUP_S,
                 min_stage_s=MIN_STAGE_S, cli=None):
    """Set up, measure for ``seconds``, check; returns (result, report)."""
    from tracing import Tracer, tail
    if cli is None:
        import kttrace.cli as cli
    ledger = Ledger()
    workdir = Path(workdir)
    if trace:
        min_stage_s = 0.0

    setup_times, source_digests = [], []
    while len(setup_times) < SETUP_REPS or (
            sum(setup_times) < min_setup_s and len(setup_times) < MAX_SETUP_REPS):
        inputs, took = setup(workload, seed, workdir, cli, ledger)
        setup_times.append(took)
        if inputs.source_checkpoint is not None and inputs.source_checkpoint.exists():
            check_checkpoint(inputs.source_checkpoint, ledger, "setup", "pretrain")
            source_digests.append(_sha256(inputs.source_checkpoint))
    if len(set(source_digests)) > 1:
        ledger.fail("setup", "pretrain", "source checkpoint differs between set-ups")

    tracer = Tracer() if trace else None
    rounds, fingerprints = [], []
    layer_rounds, stats_rounds = [], []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        while not ledger.failed:
            round_start = time.perf_counter()
            round_no = len(rounds)
            traced = tracer is not None and round_no % 2 == 1
            out = run_round(workload, inputs, cli, ledger, round_no,
                            tracer if traced else None, min_stage_s)
            if out is None:
                break
            fig, fingerprint = out
            fig["traced"] = traced
            rounds.append(fig)
            if fingerprints and fingerprint != fingerprints[0]:
                for stage in fingerprint:
                    if fingerprint[stage] != fingerprints[0].get(stage):
                        ledger.fail(round_no, stage,
                                    "output differs from round 0 of the same seed")
            fingerprints.append(fingerprint)
            if traced:
                values, stats = layer_figures(tracer, round_no, workload)
                layer_rounds.append((round_no, values))
                stats_rounds.append(stats)
            now = time.perf_counter()
            needed = 2 if tracer is not None else 1
            if len(rounds) >= needed and (now - start) + (now - round_start) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()

    if layer_rounds:
        # Counts are summed over a traced round's stages, so a count that
        # differs from the first traced round fails every call of that round.
        first_round, first = layer_rounds[0]
        for round_no, values in layer_rounds[1:]:
            differ = [m for m, unit, *_ in PER_LAYER
                      if unit in ("count", "GFLOP") and values[m] != first[m]]
            if differ:
                for stage in dict.fromkeys(st for r, st in ledger.calls if r == round_no):
                    ledger.fail(round_no, stage, f"{', '.join(differ)} differ from "
                                                 f"traced round {first_round}")

    plain = [r for r in rounds if not r["traced"]]
    pooled = pooled_figures(plain, workload.train_stage)
    e2e = {"setup_s": _median(setup_times)}
    for metric in ("pipeline_s", "preprocess_interactions_per_s",
                   "train_interactions_per_s", "eval_predictions_per_s"):
        e2e[metric] = pooled.get(metric, math.nan)
    e2e.update({
        "quality_auc": _median([r["quality_auc"] for r in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stage_ok_ratio": (ledger.attempted - len(ledger.failed)) / max(ledger.attempted, 1),
    })
    per_stage = {RATES[stage]: pooled[RATES[stage]] for stage in ("pretrain", "importance",
                                                                  "finetune")
                 if RATES[stage] in pooled}

    report = {
        "workload": workload.name, "seed": seed, "trace": bool(trace),
        "env": environment(seed),
        "setup_reps_s": setup_times,
        "rounds": rounds,
        "stage_throughput": per_stage,
        "end_to_end": e2e,
        "attempted": ledger.attempted,
        "failures": ledger.failures(),
    }
    if tracer is not None:
        layers = {m: _median([v[m] for _, v in layer_rounds])
                  for m, *_ in PER_LAYER + REPORT_ONLY if m != "bench.trace_overhead_pct"}
        traced = pooled_figures([r for r in rounds if r["traced"]], workload.train_stage)
        traced_wall = traced.get("pipeline_s", math.nan)
        layers["bench.trace_overhead_pct"] = 100.0 * (traced_wall / e2e["pipeline_s"] - 1.0)
        spans = {}
        for stats in stats_rounds:
            for name, s in stats.items():
                agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                              "durations": []})
                agg["calls"] += s["calls"]
                agg["total_s"] += s["total_s"]
                agg["self_s"] += s["self_s"]
                agg["durations"].extend(s["durations"])
        report["per_layer"] = layers
        report["traced_rounds"] = len(stats_rounds)
        report["absent"] = absent_metrics(tracer)
        report["spans"] = {name: {"calls": s["calls"], "total_s": s["total_s"],
                                  "self_s": s["self_s"], **tail(s["durations"])}
                           for name, s in sorted(spans.items())}
        report["span_records"] = tracer.span_dicts(workload.name)

    # A failed run still prints what it measured; a figure it could not
    # measure (no round completed) prints as 0.
    values = report["per_layer"] if trace else e2e
    correct = not ledger.failed and len(plain) > 0
    metrics = {m: {"value": values[m] if math.isfinite(values[m]) else 0.0, "unit": u}
               for m, u, *_ in (PER_LAYER if trace else END_TO_END)}
    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": len(ledger.failed), "metrics": metrics}
    return result, report


def print_spans(report):
    print(f"{'span':44s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s} {'p50_ms':>9s}  tail")
    for name, s in report["spans"].items():
        tail_key = next((k for k in s if k.startswith("p") and k != "p50_s"), None)
        tail_txt = f"{tail_key[:-2]}={1000 * s[tail_key]:.3f}ms" if tail_key else "-"
        print(f"{name:44s} {s['calls']:7d} {s['total_s']:9.4f} {s['self_s']:9.4f} "
              f"{1000 * s['p50_s']:9.3f}  {tail_txt}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kttrace" / "cli.py").is_file():
        print(f"perfbench: no kttrace sources at {ROOT / 'src'}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    single_blas_thread()
    cli = import_kttrace()
    import logging
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 1

    base = ROOT / ".perfbench"
    workdir = base / "work" / args.workload
    try:
        result, report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                      args.trace, workdir, cli=cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reports = base / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        print_spans(report)
    summary = {k: report[k] for k in ("env", "setup_reps_s", "stage_throughput",
                                      "rounds", "failures")}
    summary["report"] = str(path.relative_to(ROOT))
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
