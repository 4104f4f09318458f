"""Command-line pipeline driver.

Subcommands: synth, preprocess, pretrain, importance, finetune, eval.
Every command reads a JSON experiment config (``--config``), writes its
artifacts under the config's workdir, prints a one-line JSON summary to
stdout and logs to stderr. Exit codes: 0 success, 1 usage error, 2 data
error, 3 numerical failure.

One global seed governs every stochastic stage; per-stage seeds are
derived by hashing (seed, stage name, dataset name), so each stage is
independently reproducible and adaptation in ``importance`` and
``finetune`` lands on identical embeddings.

Workdir layout::

    <workdir>/data/<name>.txt(.truth.json)   synth outputs
    <workdir>/prepared/<name>/               train/valid/test.txt + meta.json
    <workdir>/checkpoints/*.lrkt             model checkpoints
    <workdir>/profiles/<name>.json           importance profiles
    <workdir>/reports/*.json|.csv            metric reports
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

from .autograd import NumericalError
from .data import (
    DataFormatError,
    DatasetSpec,
    PreparedDataset,
    Splits,
    SyntheticConfig,
    build_vocab,
    generate_synthetic,
    ingest,
    observed_id_sizes,
    preprocess,
    write_blocks,
    write_truth_sidecar,
)
from .importance import ImportanceProfile, compute_importance
from .metrics import evaluate, reports_to_json, write_reports_csv, write_reports_json
from .model import PRESETS, KTModel, ModelConfig, zero_shot_adapt
from .train import (
    TrainConfig,
    TrainingDivergedError,
    fit,
    load_checkpoint,
    save_checkpoint,
    stage_seed,
)

logger = logging.getLogger("kttrace")

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERICAL = 0, 1, 2, 3


class UsageError(Exception):
    """Bad flags, config schema violations, or missing input files."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# experiment config


_INT, _NUMBER = int, (int, float)
_TRAIN_KEYS = {"learning_rate": _NUMBER, "dropout": _NUMBER, "max_epochs": _INT,
               "patience": _INT, "batch_size": _INT, "clip_norm": (*_NUMBER, type(None))}
_ARCH_KEYS = ("n_layers", "d_model", "n_head", "d_ff")   # what a preset fixes
_MODEL_KEYS = {"preset": str, **dict.fromkeys(_ARCH_KEYS, _INT), "dropout": _NUMBER,
               "max_seq_len": _INT}
_DATASET_KEYS = {"name", "dataset_index", "path", "role"}
_SYNTH_KEYS = {"n_students": _INT, "n_questions": _INT, "n_kcs": _INT,
               "ability_spread": _NUMBER, "difficulty_spread": _NUMBER,
               "learning_rate_per_exposure": _NUMBER, "mean_seq_len": _NUMBER,
               "seed": _INT}


def _reject_unknown(obj, allowed, where):
    unknown = set(obj).difference(allowed)
    if unknown:
        raise UsageError(f"unknown key(s) {sorted(unknown)} in {where}")


def _check_type(value, types, where):
    types = types if isinstance(types, tuple) else (types,)
    # bool is an int subclass, but no config value is a flag
    if isinstance(value, bool) or not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise UsageError(f"{where} must be {names}, got {type(value).__name__}")


def _check_section(obj, schema, where):
    """Reject unknown keys and values of the wrong type in a config section."""
    _reject_unknown(obj, schema, where)
    for key, value in obj.items():
        _check_type(value, schema[key], f"{where}.{key}")


def _require(obj, key, where, types):
    if key not in obj:
        raise UsageError(f"missing required key {key!r} in {where}")
    _check_type(obj[key], types, f"{where}.{key}")
    return obj[key]


class ExperimentConfig:
    def __init__(self, obj, base_dir):
        if not isinstance(obj, dict):
            raise UsageError("config root must be a JSON object")
        _reject_unknown(obj, {"seed", "paths", "model", "train", "datasets",
                              "synthetic"}, "config")
        self.seed = _require(obj, "seed", "config", int)
        paths = _require(obj, "paths", "config", dict)
        _reject_unknown(paths, {"workdir"}, "config.paths")
        workdir = _require(paths, "workdir", "config.paths", str)
        self.workdir = (base_dir / workdir).resolve() if not Path(workdir).is_absolute() \
            else Path(workdir)
        self.base_dir = base_dir

        self.model_section = obj.get("model", {})
        if not isinstance(self.model_section, dict):
            raise UsageError("config.model must be an object")
        _check_section(self.model_section, _MODEL_KEYS, "config.model")
        preset = self.model_section.get("preset")
        if preset is not None:
            if preset not in PRESETS:
                raise UsageError(f"config.model.preset must be one of {sorted(PRESETS)}")
            fixed = [key for key in _ARCH_KEYS if key in self.model_section]
            if fixed:
                raise UsageError(f"config.model sets {', '.join(fixed)}, which preset "
                                 f"{preset!r} fixes; drop the key or the preset")

        train = obj.get("train", {})
        if not isinstance(train, dict):
            raise UsageError("config.train must be an object")
        _check_section(train, _TRAIN_KEYS, "config.train")
        self.train_section = train

        datasets = obj.get("datasets", [])
        if not isinstance(datasets, list):
            raise UsageError("config.datasets must be a list")
        self.datasets = []
        for i, entry in enumerate(datasets):
            where = f"config.datasets[{i}]"
            if not isinstance(entry, dict):
                raise UsageError(f"{where} must be an object")
            _reject_unknown(entry, _DATASET_KEYS, where)
            name = _require(entry, "name", where, str)
            index = _require(entry, "dataset_index", where, int)
            path = _require(entry, "path", where, str)
            role = entry.get("role", "pretrain")
            if role not in ("pretrain", "target"):
                raise UsageError(f"{where}.role must be 'pretrain' or 'target'")
            self.datasets.append({"name": name, "dataset_index": index,
                                  "path": path, "role": role})
        names = [d["name"] for d in self.datasets]
        if len(set(names)) != len(names):
            raise UsageError("config.datasets names must be unique")
        indexes = [d["dataset_index"] for d in self.datasets]
        if len(set(indexes)) != len(indexes):
            raise UsageError("config.datasets dataset_index values must be unique")

        synth = obj.get("synthetic", {})
        if not isinstance(synth, dict):
            raise UsageError("config.synthetic must be an object")
        self.synthetic = {}
        for name, entry in synth.items():
            where = f"config.synthetic.{name}"
            if not isinstance(entry, dict):
                raise UsageError(f"{where} must be an object")
            _check_section(entry, _SYNTH_KEYS, where)
            self.synthetic[name] = dict(entry)

    @classmethod
    def load(cls, path):
        path = Path(path)
        if not path.exists():
            raise UsageError(f"config file {path} does not exist")
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path} is not valid JSON: {exc}") from None
        return cls(obj, base_dir=path.parent)

    # -- derived pieces ------------------------------------------------------

    def resolve(self, path):
        p = Path(path)
        return p if p.is_absolute() else (self.base_dir / p)

    def dataset_entry(self, name):
        for d in self.datasets:
            if d["name"] == name:
                return d
        raise UsageError(f"dataset {name!r} not in config.datasets")

    def train_config(self, stage):
        return TrainConfig(seed=stage_seed(self.seed, stage), **self.train_section)

    def batch_size(self):
        """``train.batch_size`` or its default; below 1 is a ValueError (exit 2)."""
        size = self.train_section.get("batch_size", TrainConfig().batch_size)
        if size < 1:
            raise ValueError(f"batch_size must be >= 1, got {size}")
        return size

    def model_config(self):
        section = dict(self.model_section)
        if "preset" in section:
            preset = section.pop("preset")
            cfg = ModelConfig.from_preset(preset, **section)
        else:
            for key in _ARCH_KEYS:
                if key not in section:
                    raise UsageError(f"config.model needs {key!r} (or a preset)")
            cfg = ModelConfig(**section)
        cfg.validate()
        return cfg

    def prepared_dir(self, name):
        return self.workdir / "prepared" / name

    def ensure_dir(self, *parts):
        d = self.workdir.joinpath(*parts)
        d.mkdir(parents=True, exist_ok=True)
        return d

    def output(self, given, *default):
        """``--out`` as a config path, else ``workdir/<default>``; creates its folder."""
        path = self.resolve(given) if given else self.workdir.joinpath(*default)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path


# ---------------------------------------------------------------------------
# prepared-dataset persistence


def write_prepared(cfg, name, entry, splits, n_questions, n_kcs):
    out = cfg.ensure_dir("prepared", name)
    counts = {}
    for split_name, segments in splits:
        write_blocks(segments, out / f"{split_name}.txt")
        counts[split_name] = len(segments)
    meta = {"name": name, "dataset_index": entry["dataset_index"],
            "role": entry["role"], "n_questions": n_questions, "n_kcs": n_kcs,
            "segments": counts}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n",
                                   encoding="utf-8")
    return meta


def read_prepared(cfg, name, splits):
    """Load a prepared dataset, parsing only the split names in ``splits``.

    Every other split is left empty, so a stage pays only for what it reads.
    ``meta.json`` must be an object with a str ``name`` and int
    ``dataset_index``, ``n_questions`` and ``n_kcs``, else
    ``DataFormatError`` names the file and the key.
    """
    d = cfg.prepared_dir(name)
    meta_path = d / "meta.json"
    if not meta_path.exists():
        raise UsageError(f"dataset {name!r} is not prepared (missing {meta_path}); "
                         "run the preprocess command first")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if not isinstance(meta, dict):
        raise DataFormatError(f"{meta_path}: must be a JSON object, got {type(meta).__name__}")
    for key, kind in (("name", str), ("dataset_index", int), ("n_questions", int),
                      ("n_kcs", int)):
        value = meta.get(key)
        # bool is an int subclass, but no index or count is a flag
        if not isinstance(value, kind) or isinstance(value, bool):
            raise DataFormatError(f"{meta_path}: {key!r} must be a {kind.__name__}, "
                                  f"got {'nothing' if key not in meta else repr(value)}")
    parsed = Splits(**{split: ingest(d / f"{split}.txt") if split in splits else []
                       for split in ("train", "valid", "test")})
    spec = DatasetSpec(meta["name"], meta["dataset_index"])
    return PreparedDataset(spec=spec, splits=parsed,
                           n_questions=meta["n_questions"], n_kcs=meta["n_kcs"])


def adapt_if_needed(model, prepared, seed):
    """``model``, or a copy with its vocabulary extended to an unseen target.

    The adaptation seed depends only on (global seed, dataset name), so
    the importance and finetune commands start from identical embeddings.
    ``model`` itself is never changed.
    """
    known = {(n, i) for n, i, _, _ in model.vocab.entries}
    key = (prepared.spec.name, prepared.spec.dataset_index)
    if key in known:
        return model
    expected_index = model.vocab.n_datasets
    if prepared.spec.dataset_index != expected_index:
        raise ValueError(
            f"target dataset {prepared.spec.name!r} has dataset_index "
            f"{prepared.spec.dataset_index} but the checkpoint assigns new "
            f"datasets index {expected_index}")
    model = zero_shot_adapt(model, prepared.spec.name, prepared.n_questions,
                            prepared.n_kcs,
                            seed=stage_seed(seed, "adapt", prepared.spec.name))
    logger.info("adapted checkpoint to %s (index %d)", prepared.spec.name,
                expected_index)
    return model


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg, args):
    if not cfg.synthetic:
        raise UsageError("config has no 'synthetic' section")
    name = args.dataset
    if name is None:
        if len(cfg.synthetic) != 1:
            raise UsageError(f"--dataset required; config defines "
                             f"{sorted(cfg.synthetic)}")
        name = next(iter(cfg.synthetic))
    if name not in cfg.synthetic:
        raise UsageError(f"no synthetic config for {name!r}; "
                         f"choose from {sorted(cfg.synthetic)}")
    section = dict(cfg.synthetic[name])
    if args.seed is not None or "seed" not in section:   # --seed overrides the section's
        section["seed"] = stage_seed(cfg.seed, "synth", name)
    synth_cfg = SyntheticConfig(**section)
    sequences, truth = generate_synthetic(synth_cfg)

    out_prefix = cfg.output(args.out, "data", name)
    data_path = Path(f"{out_prefix}.txt")
    write_blocks(sequences, data_path)
    write_truth_sidecar(truth, sequences, f"{out_prefix}.truth.json")
    n_inter = sum(len(s) for s in sequences)
    logger.info("synthesized %s: %d students, %d interactions", name,
                len(sequences), n_inter)
    return {"command": "synth", "dataset": name, "path": str(data_path),
            "truth": f"{out_prefix}.truth.json", "students": len(sequences),
            "interactions": n_inter, "seed": synth_cfg.seed}


def cmd_preprocess(cfg, args):
    entries = cfg.datasets
    if args.dataset:
        entries = [cfg.dataset_entry(args.dataset)]
    if not entries:
        raise UsageError("config.datasets is empty")
    summary = []
    for entry in entries:
        path = cfg.resolve(entry["path"])
        if not path.exists():
            raise UsageError(f"dataset file {path} does not exist")
        sequences = ingest(path)
        splits = preprocess(sequences, seed=stage_seed(cfg.seed, "preprocess",
                                                       entry["name"]))
        n_q, n_k = observed_id_sizes(sequences)
        meta = write_prepared(cfg, entry["name"], entry, splits, n_q, n_k)
        summary.append({"dataset": entry["name"], **meta["segments"]})
        logger.info("prepared %s: %s", entry["name"], meta["segments"])
    return {"command": "preprocess", "datasets": summary}


def cmd_pretrain(cfg, args):
    datasets = [read_prepared(cfg, e["name"], ("train", "valid"))
                for e in cfg.datasets if e["role"] == "pretrain"]
    if not datasets:
        raise UsageError("no datasets with role 'pretrain' in config")
    vocab = build_vocab([d.spec for d in datasets],
                        {d.spec.name: (d.n_questions, d.n_kcs) for d in datasets})
    model = KTModel.build(cfg.model_config(), vocab, seed=stage_seed(cfg.seed, "init"))
    logger.info("built model: %d parameters, %d datasets", model.n_params,
                vocab.n_datasets)
    ckpt = fit(model, datasets, cfg.train_config("pretrain"), stage="pretrain")
    out = cfg.output(args.out, "checkpoints", "pretrained.lrkt")
    save_checkpoint(ckpt, out)
    return {"command": "pretrain", "checkpoint": str(out),
            "n_params": model.n_params,
            "best_epoch": ckpt.metadata["best_epoch"],
            "best_val_auc": ckpt.metadata["best_val_auc"],
            "epochs_run": ckpt.metadata["epochs_run"]}


def cmd_importance(cfg, args):
    ckpt = load_checkpoint(cfg.resolve(args.checkpoint))
    prepared = read_prepared(cfg, args.dataset, ("train",))
    model = adapt_if_needed(ckpt.build_model(), prepared, cfg.seed)
    profile = compute_importance(model, prepared, batch_size=cfg.batch_size())
    out = cfg.output(args.out, "profiles", f"{args.dataset}.json")
    profile.save(out)
    return {"command": "importance", "dataset": args.dataset, "profile": str(out),
            "n_samples": profile.n_samples, "layers": len(profile.layers)}


def cmd_finetune(cfg, args):
    ckpt = load_checkpoint(cfg.resolve(args.checkpoint))
    prepared = read_prepared(cfg, args.dataset, ("train", "valid", "test"))
    model = adapt_if_needed(ckpt.build_model(), prepared, cfg.seed)
    profile = None
    if args.profile:
        profile = ImportanceProfile.load(cfg.resolve(args.profile))
    tuned = fit(model, [prepared], cfg.train_config("finetune"), profile=profile, stage="finetune")
    out = cfg.output(args.out, "checkpoints", f"finetuned-{args.dataset}.lrkt")
    save_checkpoint(tuned, out)

    reports = evaluate(model, [(prepared.spec.name, prepared.spec.dataset_index, "test",
                                prepared.splits.test)])
    rdir = cfg.ensure_dir("reports")
    write_reports_json(reports, rdir / f"finetune-{args.dataset}.json")
    write_reports_csv(reports, rdir / f"finetune-{args.dataset}.csv")
    return {"command": "finetune", "dataset": args.dataset, "checkpoint": str(out),
            "with_profile": bool(args.profile),
            "best_val_auc": tuned.metadata["best_val_auc"],
            "test": reports_to_json(reports)}


def cmd_eval(cfg, args):
    cfg.batch_size()   # scoring does not batch, but a bad config is still an error
    ckpt = load_checkpoint(cfg.resolve(args.checkpoint))
    names = [args.dataset] if args.dataset else [
        e["name"] for e in cfg.datasets if cfg.prepared_dir(e["name"]).exists()]
    if not names:
        raise UsageError("no prepared datasets to evaluate")
    reports = []
    base = ckpt.build_model()
    for prepared in (read_prepared(cfg, name, ("valid", "test")) for name in names):
        model = adapt_if_needed(base, prepared, cfg.seed)
        splits = [(prepared.spec.name, prepared.spec.dataset_index, split, segs)
                  for split, segs in prepared.splits if segs]
        reports.extend(evaluate(model, splits))
    out_prefix = cfg.output(args.out, "reports", "eval")
    write_reports_json(reports, f"{out_prefix}.json")
    write_reports_csv(reports, f"{out_prefix}.csv")
    return {"command": "eval", "reports": str(out_prefix) + ".json",
            "results": reports_to_json(reports)}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser():
    parser = _Parser(prog="kttrace",
                     description="knowledge-tracing pipeline: synthesize, "
                                 "preprocess, pre-train, probe importance, "
                                 "fine-tune, evaluate")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, dataset=None, profile=False, out=None):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's global seed")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="input checkpoint")
        if dataset is not None:
            p.add_argument("--dataset", required=dataset == "required",
                           default=None, help="dataset name from the config")
        if profile:
            p.add_argument("--profile", default=None,
                           help="importance profile JSON (omit for plain fine-tuning)")
        if out:
            p.add_argument("--out", default=None, help=out)

    common(sub.add_parser("synth", help="generate a synthetic dataset"),
           dataset="optional", out="output path prefix (.txt/.truth.json)")
    common(sub.add_parser("preprocess", help="ingest, filter, segment and split"),
           dataset="optional")
    common(sub.add_parser("pretrain", help="train on all role=pretrain datasets"),
           out="checkpoint output path")
    common(sub.add_parser("importance", help="compute an importance profile"),
           checkpoint=True, dataset="required", out="profile output path")
    common(sub.add_parser("finetune", help="fine-tune a checkpoint on one dataset"),
           checkpoint=True, dataset="required", profile=True,
           out="checkpoint output path")
    common(sub.add_parser("eval", help="evaluate a checkpoint"),
           checkpoint=True, dataset="optional", out="report output path prefix")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "pretrain": cmd_pretrain,
    "importance": cmd_importance,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
}


def _keep_freed_heap():
    """Let glibc keep freed heap memory for the next pass instead of
    returning it to the OS.

    A training or eval pass frees its activations at the end of every
    packed part. By default glibc then trims the heap's free top once it
    exceeds twice the largest mmapped block freed so far (128 KiB at
    start), and the next part faults the same pages back in, one 4 KiB
    page at a time. These are the ceilings of glibc's own dynamic
    thresholds: blocks under 32 MiB come from the heap, and up to 64 MiB
    of free heap top is kept. A no-op where the C library has no mallopt.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    _keep_freed_heap()
    started = time.time()
    try:
        args = build_parser().parse_args(argv)
        cfg = ExperimentConfig.load(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.workdir.mkdir(parents=True, exist_ok=True)
        summary = _COMMANDS[args.command](cfg, args)
    except UsageError as exc:
        logger.error("usage error: %s", exc)
        return EXIT_USAGE
    except OSError as exc:
        logger.error("cannot read or write a file: %s", exc)
        return EXIT_USAGE
    except (NumericalError, TrainingDivergedError) as exc:
        logger.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except (DataFormatError, ValueError) as exc:
        logger.error("data error: %s", exc)
        return EXIT_DATA
    summary["elapsed_s"] = round(time.time() - started, 3)
    print(json.dumps(summary))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
