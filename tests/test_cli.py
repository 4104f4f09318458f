import functools
import hashlib
import json
import logging
import math
import operator
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kttrace
from kttrace.cli import ExperimentConfig, UsageError, main
from kttrace.data import DatasetSpec, build_vocab
from kttrace.model import KTModel, ModelConfig
from kttrace.train import (
    Checkpoint,
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
    stage_seed,
)

from helpers import build_tiny, checkpoint_bytes, split_checkpoint


def run_cli(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(list(argv))
    out = capsys.readouterr().out.strip()
    summary = json.loads(out.splitlines()[-1]) if out else None
    return code, summary


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "seed": 11,
        "paths": {"workdir": "run"},
        "model": {"n_layers": 1, "d_model": 16, "n_head": 2, "d_ff": 16},
        "train": {"learning_rate": 0.001, "dropout": 0.1, "max_epochs": 2,
                  "patience": 2, "batch_size": 16},
        "datasets": [
            {"name": "rich0", "dataset_index": 0, "path": "run/data/rich0.txt",
             "role": "pretrain"},
            {"name": "rich1", "dataset_index": 1, "path": "run/data/rich1.txt",
             "role": "pretrain"},
            {"name": "rich2", "dataset_index": 2, "path": "run/data/rich2.txt",
             "role": "pretrain"},
            {"name": "low", "dataset_index": 3, "path": "run/data/low.txt",
             "role": "target"},
        ],
        "synthetic": {
            name: {"n_students": students, "n_questions": 12, "n_kcs": 4,
                   "ability_spread": 1.0, "difficulty_spread": 1.0,
                   "learning_rate_per_exposure": 0.1, "mean_seq_len": 8}
            for name, students in
            (("rich0", 60), ("rich1", 60), ("rich2", 60), ("low", 30))
        },
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# config validation and exit codes


def test_unknown_top_level_key_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, extra_key=1)
    code, _ = run_cli(capsys, "synth", "--config", str(path), "--dataset", "low")
    assert code == 1


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code, _ = run_cli(capsys, "synth", "--config", str(tmp_path / "nope.json"))
    assert code == 1


def test_unknown_dataset_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path)
    code, _ = run_cli(capsys, "synth", "--config", str(path), "--dataset", "bogus")
    assert code == 1


def test_bad_preset_rejected(tmp_path, capsys):
    path = write_config(tmp_path, model={"preset": "huge-9T"})
    code, _ = run_cli(capsys, "synth", "--config", str(path), "--dataset", "low")
    assert code == 1


def test_preset_with_an_architecture_key_is_usage_error(tmp_path, capsys, caplog):
    path = write_config(tmp_path, model={"preset": "base-89M", "n_layers": 2})
    with caplog.at_level(logging.ERROR, logger="kttrace"):
        code, _ = run_cli(capsys, "pretrain", "--config", str(path))
    assert code == 1
    assert "n_layers" in caplog.text and "'base-89M'" in caplog.text


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5)


def sections(keys, plausible):
    """Config sections: known keys (and some unknown) with any JSON value,
    or one that passes the type check."""
    value = JSON_VALUES | plausible
    return st.dictionaries(st.sampled_from(keys) | st.text(max_size=6), value, max_size=5)


@settings(deadline=None, max_examples=300)
@example(model={"preset": "base-89M", "n_layers": 2}, train={})
@example(model={}, train={"learning_rate": float("nan")})
@given(sections(["preset", "n_layers", "d_model", "n_head", "d_ff", "dropout",
                 "max_seq_len"], st.sampled_from(["base-89M", "base-1.01B"])
                | st.integers(-1, 64) | st.floats(-0.5, 1.5)),
       sections(["learning_rate", "dropout", "max_epochs", "patience", "batch_size",
                 "clip_norm"], st.integers(-1, 64) | st.floats(-0.5, 1.5)))
def test_any_model_or_train_section_is_a_config_or_a_typed_error(model, train):
    obj = json.loads(json.dumps({"seed": 3, "paths": {"workdir": "run"}, "model": model,
                                 "train": train}))
    try:
        cfg = ExperimentConfig(obj, base_dir=Path("."))
    except UsageError:
        return
    try:
        cfg.model_config()
    except (UsageError, ValueError):
        pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # rates and dropouts off the paper's grid
        try:
            train_cfg = cfg.train_config("pretrain")
        except (UsageError, ValueError):
            return
    assert 0 < train_cfg.learning_rate < np.inf


@pytest.mark.parametrize("case", ["config", "dataset", "checkpoint"])
def test_directory_given_as_an_input_file_is_usage_error(tmp_path, capsys, caplog, case):
    path = write_config(tmp_path)
    argv = {"config": ["synth", "--config", str(tmp_path), "--dataset", "low"],
            "dataset": ["preprocess", "--config", str(path), "--dataset", "rich0"],
            "checkpoint": ["eval", "--config", str(path), "--checkpoint", str(tmp_path)],
            }[case]
    (tmp_path / "run" / "data" / "rich0.txt").mkdir(parents=True)
    with caplog.at_level(logging.ERROR, logger="kttrace"):
        code, _ = run_cli(capsys, *argv)
    assert code == 1
    assert "Is a directory" in caplog.text and len(caplog.records) == 1


def test_unknown_train_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path, train={"learning_rate": 0.001, "warmup": 5})
    code, _ = run_cli(capsys, "pretrain", "--config", str(path))
    assert code == 1


PIPELINE_DATASETS = [
    {"name": "rich0", "dataset_index": 0, "path": "run/data/rich0.txt", "role": "pretrain"},
    {"name": "low", "dataset_index": 1, "path": "run/data/low.txt", "role": "target"},
]


@pytest.mark.parametrize("value", [5, None, True, "abc", {"name": "rich0"}])
def test_datasets_that_is_not_a_list_is_usage_error(tmp_path, value):
    with pytest.raises(UsageError, match=r"^config.datasets must be a list$"):
        ExperimentConfig.load(write_config(tmp_path, datasets=value))


@settings(deadline=None, max_examples=60)
@example(key="datasets", value=5)
@example(key="seed", value=-1)
@given(st.sampled_from(["seed", "paths", "model", "train", "datasets", "synthetic"]),
       JSON_VALUES)
def test_any_value_at_any_top_level_key_ends_in_an_exit_code(key, value):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = str(write_config(Path(tmp), **{"datasets": PIPELINE_DATASETS[:1], key: value}))
        for argv in (["synth", "--dataset", "rich0"], ["preprocess"], ["pretrain"]):
            # an exception main does not turn into an exit code fails the test
            assert main([*argv, "--config", cfg]) in (0, 1, 2), argv


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Workdir with prepared data, a pre-trained checkpoint and a target profile."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = str(write_config(root, datasets=PIPELINE_DATASETS))
    ckpt = root / "run" / "checkpoints" / "pretrained.lrkt"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for argv in (["synth", "--dataset", "rich0"], ["synth", "--dataset", "low"],
                     ["preprocess"], ["pretrain"],
                     ["importance", "--checkpoint", str(ckpt), "--dataset", "low"]):
            assert main([*argv, "--config", cfg]) == 0, argv
    return root, ckpt, root / "run" / "profiles" / "low.json"


@pytest.mark.parametrize("command, section", [
    ("synth", {"synthetic": {"low": {"n_students": "x"}}}),
    ("pretrain", {"train": {"batch_size": "x"}}),
    ("pretrain", {"train": {"max_epochs": True}}),
    ("pretrain", {"model": {"n_layers": 1, "d_model": "16", "n_head": 2, "d_ff": 16}}),
], ids=["synth-count", "train-int", "train-bool", "model-int"])
def test_wrong_type_config_value_is_usage_error(pipeline, capsys, command, section):
    root, _, _ = pipeline
    path = write_config(root, name="typed.json", datasets=PIPELINE_DATASETS, **section)
    argv = [command, "--config", str(path)] + (["--dataset", "low"] if command == "synth" else [])
    code, _ = run_cli(capsys, *argv)
    assert code == 1


@pytest.mark.parametrize("model", [
    {"n_layers": 1, "d_model": 16, "n_head": 0, "d_ff": 16},
    {"n_layers": 1, "d_model": 16, "n_head": 3, "d_ff": 16},
], ids=["zero-heads", "indivisible-heads"])
def test_bad_model_size_is_data_error(pipeline, capsys, model):
    root, _, _ = pipeline
    path = write_config(root, name="sized.json", datasets=PIPELINE_DATASETS, model=model)
    code, _ = run_cli(capsys, "pretrain", "--config", str(path))
    assert code == 2


@pytest.mark.parametrize("train", [{"clip_norm": -1}, {"clip_norm": 0}, {"dropout": 1.5},
                                   {"learning_rate": float("nan")},
                                   {"learning_rate": float("inf")},
                                   {"learning_rate": 10**400}, {"clip_norm": 10**400}],
                         ids=["negative-clip", "zero-clip", "dropout-above-one", "nan-rate",
                              "infinite-rate", "huge-int-rate", "huge-int-clip"])
def test_bad_train_value_is_data_error_before_training(pipeline, capsys, tmp_path,
                                                       monkeypatch, train):
    monkeypatch.setattr("kttrace.train.Adam.step",
                        lambda *a, **k: pytest.fail("a training step ran"))
    root, _, _ = pipeline
    section = {"learning_rate": 0.001, "max_epochs": 2, "patience": 2, "batch_size": 16,
               **train}
    path = write_config(root, name="bad-train.json", datasets=PIPELINE_DATASETS,
                        train=section)
    out = tmp_path / "never.lrkt"
    code, _ = run_cli(capsys, "pretrain", "--config", str(path), "--out", str(out))
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("batch_size", [0, -3])
@pytest.mark.parametrize("command", ["eval", "importance"])
def test_bad_batch_size_is_data_error_naming_it(pipeline, capsys, caplog, tmp_path,
                                                command, batch_size):
    root, ckpt, _ = pipeline
    path = write_config(root, name="bad-batch.json", datasets=PIPELINE_DATASETS,
                        train={"batch_size": batch_size})
    with caplog.at_level(logging.ERROR, logger="kttrace"):
        code, _ = run_cli(capsys, command, "--config", str(path), "--checkpoint",
                          str(ckpt), "--dataset", "low", "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"batch_size must be >= 1, got {batch_size}" in caplog.text


def test_eval_results_do_not_depend_on_the_batch_size(pipeline, capsys, tmp_path):
    root, ckpt, _ = pipeline
    results = []
    for batch_size in (1, 64):
        path = write_config(root, name=f"batch-{batch_size}.json",
                            datasets=PIPELINE_DATASETS, train={"batch_size": batch_size})
        code, summary = run_cli(capsys, "eval", "--config", str(path), "--checkpoint",
                                str(ckpt), "--out", str(tmp_path / f"eval-{batch_size}"))
        assert code == 0
        results.append(summary["results"])
    assert results[0] == results[1]
    assert {r["dataset"] for r in results[0]} == {"rich0", "low"}


def test_eval_of_all_datasets_matches_one_call_per_dataset(pipeline, capsys):
    root, ckpt, _ = pipeline
    cfg = str(root / "config.json")
    code, together = run_cli(capsys, "eval", "--config", cfg, "--checkpoint", str(ckpt),
                             "--out", str(root / "eval-all"))
    assert code == 0
    separate = []
    for name in ("rich0", "low"):  # low is unseen: eval adapts the model to it
        code, summary = run_cli(capsys, "eval", "--config", cfg, "--checkpoint", str(ckpt),
                                "--dataset", name, "--out", str(root / f"eval-{name}"))
        assert code == 0
        separate += summary["results"]
    assert together["results"] == separate
    assert {r["dataset"] for r in separate} == {"rich0", "low"}


def test_eval_reads_no_train_split(pipeline, capsys, tmp_path):
    root, ckpt, _ = pipeline
    work = tmp_path / "copy"
    shutil.copytree(root, work)
    cfg = str(work / "config.json")
    ckpt = str(work / ckpt.relative_to(root))

    def report():
        code, _ = run_cli(capsys, "eval", "--config", cfg, "--checkpoint", ckpt,
                          "--out", str(work / "eval"))
        assert code == 0
        return [(work / f"eval.{ext}").read_bytes() for ext in ("json", "csv")]

    before = report()
    trains = sorted((work / "run").rglob("train.txt"))
    assert len(trains) == len(PIPELINE_DATASETS)
    for path in trains:
        path.unlink()
    assert report() == before


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _first_layer(profile, **changes):
    layers = profile["layers"]
    return dict(profile, layers=[dict(layers[0], **changes)] + layers[1:])


BAD_PROFILES = {
    "nan-value": lambda p: _first_layer(p, values=[float("nan")] + p["layers"][0]["values"][1:]),
    "negative-value": lambda p: _first_layer(p, values=[-0.5] + p["layers"][0]["values"][1:]),
    "wrong-width": lambda p: _first_layer(p, values=p["layers"][0]["values"][1:]),
    "unknown-kind": lambda p: _first_layer(p, kind="embedding"),
    "no-values": lambda p: dict(p, layers=[_without(p["layers"][0], "values")] + p["layers"][1:]),
    "no-layers": lambda p: _without(p, "layers"),
    "no-dataset": lambda p: _without(p, "dataset"),
    "values-not-a-list": lambda p: _first_layer(p, values="0.5"),
    "layers-not-a-list": lambda p: dict(p, layers={"block": 0}),
    "dataset-not-a-string": lambda p: dict(p, dataset=3),
    "duplicate-layer": lambda p: dict(p, layers=p["layers"] + p["layers"][:1]),
}


@pytest.mark.parametrize("case", sorted(BAD_PROFILES))
def test_bad_profile_is_data_error_before_training(pipeline, capsys, monkeypatch, case):
    root, ckpt, profile = pipeline
    bad = root / f"profile-{case}.json"
    bad.write_text(json.dumps(BAD_PROFILES[case](json.loads(profile.read_text()))))
    out = root / "run" / "checkpoints" / f"tuned-{case}.lrkt"
    # pytest.fail raises a BaseException, which main does not catch
    monkeypatch.setattr(KTModel, "forward_batch",
                        lambda *a, **k: pytest.fail("a training step started"))
    # main returning at all means no exception, hence no traceback, escaped
    code, _ = run_cli(capsys, "finetune", "--config", str(root / "config.json"),
                      "--checkpoint", str(ckpt), "--dataset", "low",
                      "--profile", str(bad), "--out", str(out))
    assert code == 2
    assert not out.exists()


# case -> (the key the error must name, or None for a document that is not
# an object; how to spoil a prepared meta.json)
BAD_METAS = {
    **{f"no-{key}": (key, lambda m, key=key: _without(m, key))
       for key in ("name", "dataset_index", "n_questions", "n_kcs")},
    "name-not-a-string": ("name", lambda m: dict(m, name=3)),
    "count-not-an-int": ("n_kcs", lambda m: dict(m, n_kcs="4")),
    "fractional-index": ("dataset_index", lambda m: dict(m, dataset_index=0.0)),
    "bool-count": ("n_questions", lambda m: dict(m, n_questions=True)),
    "a-list": (None, lambda m: [m]),
    "a-number": (None, lambda m: 4),
}


@pytest.mark.parametrize("case", sorted(BAD_METAS))
def test_malformed_meta_json_is_data_error_naming_file_and_key(tmp_path, capsys, caplog,
                                                               case):
    path = write_config(tmp_path, datasets=PIPELINE_DATASETS)
    for argv in (["synth", "--dataset", "rich0"], ["synth", "--dataset", "low"],
                 ["preprocess"]):
        assert run_cli(capsys, *argv, "--config", str(path))[0] == 0
    meta = tmp_path / "run" / "prepared" / "rich0" / "meta.json"
    key, spoil = BAD_METAS[case]
    meta.write_text(json.dumps(spoil(json.loads(meta.read_text()))))
    with caplog.at_level(logging.ERROR, logger="kttrace"):
        code, _ = run_cli(capsys, "pretrain", "--config", str(path))
    assert code == 2
    assert str(meta) in caplog.text
    assert key is None or repr(key) in caplog.text


def test_malformed_dataset_file_is_data_error(tmp_path, capsys):
    path = write_config(tmp_path)
    data = tmp_path / "run" / "data"
    data.mkdir(parents=True)
    (data / "rich0.txt").write_text("s1,2\n1,2\n0,1\n0,2\n5,6\n")  # response "2"
    code, _ = run_cli(capsys, "preprocess", "--config", str(path),
                      "--dataset", "rich0")
    assert code == 2


@pytest.mark.parametrize("old,new", [("5,6,7", "5,6,99999999999999999999"),
                                     ("0,1_3,2", "0,1_-99999999999999999999,2")],
                         ids=["huge-timestamp", "huge-negative-kc"])
def test_token_beyond_int64_is_data_error(tmp_path, capsys, old, new):
    path = write_config(tmp_path)
    data = tmp_path / "run" / "data"
    data.mkdir(parents=True)
    block = "{},3\n1,2,3\n0,1_3,2\n0,1,1\n5,6,7\n"
    (data / "rich0.txt").write_text("\n".join(block.format(s) for s in "abcd"))
    code, _ = run_cli(capsys, "preprocess", "--config", str(path), "--dataset", "rich0")
    assert code == 0
    (data / "rich0.txt").write_text(block.format("e").replace(old, new))
    code, _ = run_cli(capsys, "preprocess", "--config", str(path), "--dataset", "rich0")
    assert code == 2


def _checkpoint_with_key_biases(tmp_path):
    """A checkpoint of the layout that listed an attn.bk array after each
    attn.wk, with a valid digest; the same model without them loads."""
    vocab = build_vocab([DatasetSpec("low", 0)], {"low": (3, 2)})
    config = ModelConfig(n_layers=2, d_model=4, n_head=2, d_ff=4)
    ckpt = Checkpoint.from_model(KTModel.build(config, vocab, seed=0), {})
    path = tmp_path / "key-biases.lrkt"
    save_checkpoint(ckpt, path)
    load_checkpoint(path)
    params = OrderedDict()
    for name, arr in ckpt.params.items():
        params[name] = arr
        if name.endswith("attn.wk"):
            params[name[:-1] + "bk"] = np.zeros(4, dtype="<f4")
    ckpt.params = params
    save_checkpoint(ckpt, path)
    with pytest.raises(CheckpointFormatError, match="manifest"):
        load_checkpoint(path)
    return path.read_bytes()


def _limited_child(body, limit=1 << 30):
    """argv and environment of a Python child that imports kttrace, caps its
    address space at ``limit`` bytes, then runs ``body``."""
    script = ("import json, resource, sys\n"
              "from kttrace.cli import main\n"
              "from kttrace.train import load_checkpoint\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n" + body)
    env = dict(os.environ, PYTHONPATH=str(Path(kttrace.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1")
    return [sys.executable, "-c", script], env


def _eval_in_child(config, checkpoint):
    """``kttrace eval`` in a child process with a capped address space."""
    argv, env = _limited_child(f"sys.exit(main(['eval', '--config', {str(config)!r}, "
                               f"'--checkpoint', {str(checkpoint)!r}]))\n")
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


def test_corrupt_checkpoint_is_data_error(tmp_path, capsys):
    path = write_config(tmp_path)
    fields = {"config": {}, "vocab": {"datasets": []}, "metadata": {}}
    sized = dict(fields, manifest=[],
                 vocab={"datasets": [{"name": "low", "dataset_index": 0,
                                      "n_questions": 3, "n_kcs": 2}]})

    def model(**sizes):
        return dict(sized, config={"n_layers": 1, "d_model": 4, "n_head": 2, "d_ff": 4,
                                   **sizes})

    def counts(**given):
        (entry,) = sized["vocab"]["datasets"]
        return dict(model(), vocab={"datasets": [dict(entry, **given)]})

    inputs = {
        "bad-magic": b"NOPE" + b"\x00" * 64,
        "no-manifest": checkpoint_bytes(fields),
        "mistyped-shape": checkpoint_bytes(
            dict(fields, manifest=[{"name": "emb.question", "shape": "x", "offset": 0}])),
        "infinite-shape": checkpoint_bytes(
            dict(fields, manifest=[{"name": "emb.question", "shape": [math.inf, 4],
                                    "offset": 0}])),
        "no-config": checkpoint_bytes(dict(_without(fields, "config"), manifest=[])),
        "manifest-mismatch": checkpoint_bytes(model()),
        "zero-heads": checkpoint_bytes(model(n_head=0)),
        "huge-width": checkpoint_bytes(model(d_model=1e300)),
        "infinite-questions": checkpoint_bytes(counts(n_questions=math.inf)),
        "infinite-kcs": checkpoint_bytes(counts(n_kcs=math.inf)),
        "negative-count": checkpoint_bytes(counts(n_questions=-1)),
        "fractional-count": checkpoint_bytes(counts(n_kcs=2.5)),
        "true-count": checkpoint_bytes(counts(n_questions=True)),
        "key-biases": _checkpoint_with_key_biases(tmp_path),
    }
    for case, blob in inputs.items():
        bad = tmp_path / f"{case}.lrkt"
        bad.write_bytes(blob)
        code, _ = run_cli(capsys, "eval", "--config", str(path),
                          "--checkpoint", str(bad))
        assert code == 2, case

    # listing 10**12 layers' parameters would exhaust memory; the child's
    # address-space limit turns that into a MemoryError instead
    bad = tmp_path / "many-layers.lrkt"
    bad.write_bytes(checkpoint_bytes(model(n_layers=10 ** 12)))
    child = _eval_in_child(path, bad)
    assert child.returncode == 2, child.stderr[-2000:]
    assert "Traceback" not in child.stderr


def _tiny_checkpoint_bytes():
    ckpt = Checkpoint.from_model(build_tiny(dtype=np.float32)[0], {"stage": "test"})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.lrkt"
        save_checkpoint(ckpt, path)
        return path.read_bytes()


def _json_paths(obj, prefix=()):
    """The key path of every value nested in ``obj``."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


TINY_HEADER, TINY_PAYLOAD = split_checkpoint(_tiny_checkpoint_bytes())
DROP = "<drop the key>"
HEADER_VALUES = JSON_VALUES | st.sampled_from(
    [math.nan, math.inf, -math.inf, 10 ** 30, -(2 ** 63), 10 ** 400])
CHECKPOINT_ERRORS = {"CheckpointFormatError", "CheckpointVersionError",
                     "CheckpointTruncatedError", "CheckpointDigestError"}


@pytest.fixture(scope="module")
def load_in_child(tmp_path_factory):
    """Loads checkpoint bytes in one child with a capped address space, since
    a header may declare any size; returns "loaded" or the exception's type
    name, and its message."""
    argv, env = _limited_child(
        "for line in sys.stdin:\n"
        "    try:\n"
        "        load_checkpoint(line.strip()).build_model()\n"
        "        print(json.dumps(['loaded', '']), flush=True)\n"
        "    except Exception as exc:\n"
        "        print(json.dumps([type(exc).__name__, str(exc)]), flush=True)\n")
    child = subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
    path = tmp_path_factory.mktemp("mutations") / "m.lrkt"

    def load(blob):
        path.write_bytes(blob)
        child.stdin.write(f"{path}\n")
        child.stdin.flush()
        line = child.stdout.readline()
        assert line, "the loading child exited"
        return json.loads(line)

    yield load
    child.stdin.close()
    child.wait(timeout=60)


@settings(deadline=None, max_examples=1000)
@example(mutation=(("vocab", "datasets", 0, "n_questions"), math.inf))
@example(mutation=(("manifest", 0, "shape", 0), math.inf))
@given(mutation=st.tuples(st.sampled_from(list(_json_paths(TINY_HEADER))),
                          st.just(DROP) | HEADER_VALUES))
def test_any_header_mutation_loads_or_raises_a_checkpoint_error(load_in_child, mutation):
    path, value = mutation
    header = json.loads(json.dumps(TINY_HEADER))
    *parents, last = path
    owner = functools.reduce(operator.getitem, parents, header)
    if value == DROP:
        del owner[last]
    else:
        owner[last] = value
    kind, message = load_in_child(checkpoint_bytes(header, TINY_PAYLOAD))
    assert kind == "loaded" or kind in CHECKPOINT_ERRORS, f"{kind}: {message}"


def test_outputs_do_not_depend_on_the_work_directory(tmp_path, capsys):
    ckpt, tuned = "run/checkpoints/pretrained.lrkt", "run/checkpoints/tuned.lrkt"

    def outputs(root):
        root.mkdir(parents=True)
        cfg = str(write_config(root, datasets=PIPELINE_DATASETS))
        for argv in (["synth", "--dataset", "rich0"], ["synth", "--dataset", "low"],
                     ["preprocess"], ["pretrain"],
                     ["importance", "--checkpoint", ckpt, "--dataset", "low"],
                     ["finetune", "--checkpoint", ckpt, "--dataset", "low",
                      "--profile", "run/profiles/low.json", "--out", tuned],
                     ["eval", "--checkpoint", tuned]):
            code, _ = run_cli(capsys, *argv, "--config", cfg)
            assert code == 0, argv
        run = root / "run"
        return {p.relative_to(run): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(run.rglob("*")) if p.is_file()}

    first = outputs(tmp_path / "a")
    assert {p.suffix for p in first} >= {".lrkt", ".json", ".csv", ".txt"}
    assert first == outputs(tmp_path / "elsewhere" / "b")


# ---------------------------------------------------------------------------
# synth contract


def test_synth_writes_blocks_and_sidecar(tmp_path, capsys):
    path = write_config(tmp_path)
    code, summary = run_cli(capsys, "synth", "--config", str(path),
                            "--dataset", "low", "--out", "out/lowdata")
    assert code == 0
    assert summary["command"] == "synth" and summary["students"] == 30
    data = tmp_path / "out" / "lowdata.txt"
    truth = tmp_path / "out" / "lowdata.truth.json"
    assert data.exists() and truth.exists()
    sidecar = json.loads(truth.read_text())
    assert set(sidecar) == {"theta", "difficulty"}
    assert len(sidecar["theta"]) == 30

    # re-running with identical inputs overwrites bit-identically
    first = data.read_bytes()
    code, _ = run_cli(capsys, "synth", "--config", str(path),
                      "--dataset", "low", "--out", "out/lowdata")
    assert code == 0 and data.read_bytes() == first


def test_seed_flag_acts_as_the_config_seed(tmp_path, capsys):
    datasets = PIPELINE_DATASETS[:1]
    flagged = str(write_config(tmp_path, name="flagged.json", datasets=datasets))
    seeded = str(write_config(tmp_path, name="seeded.json", datasets=datasets, seed=5))
    run = tmp_path / "run"

    def outputs(cfg, *flag):
        for argv in (["synth", "--dataset", "rich0"], ["preprocess"], ["pretrain"]):
            code, _ = run_cli(capsys, *argv, "--config", cfg, *flag)
            assert code == 0, argv
        files = {p.relative_to(run): p.read_bytes()
                 for p in sorted(run.rglob("*")) if p.is_file()}
        shutil.rmtree(run)   # the second run starts from an empty workdir
        return files

    files = outputs(flagged, "--seed", "5")
    assert {p.name for p in files} >= {"rich0.txt", "train.txt", "pretrained.lrkt"}
    assert files == outputs(seeded)


def test_synth_seed_flag_overrides_the_section_seed(tmp_path, capsys):
    synthetic = json.loads(write_config(tmp_path).read_text())["synthetic"]
    synthetic["low"]["seed"] = 3
    cfg = str(write_config(tmp_path, synthetic=synthetic))
    for flag, want in (([], 3), (["--seed", "5"], stage_seed(5, "synth", "low"))):
        code, summary = run_cli(capsys, "synth", "--config", cfg, "--dataset", "low", *flag)
        assert code == 0 and summary["seed"] == want


# ---------------------------------------------------------------------------
# full pipeline


def test_full_pipeline_smoke(tmp_path, capsys):
    cfg = str(write_config(tmp_path))
    for name in ("rich0", "rich1", "rich2", "low"):
        code, _ = run_cli(capsys, "synth", "--config", cfg, "--dataset", name)
        assert code == 0

    code, summary = run_cli(capsys, "preprocess", "--config", cfg)
    assert code == 0
    assert {d["dataset"] for d in summary["datasets"]} == {"rich0", "rich1",
                                                           "rich2", "low"}

    code, summary = run_cli(capsys, "pretrain", "--config", cfg)
    assert code == 0
    ckpt = summary["checkpoint"]
    assert 0.0 <= summary["best_val_auc"] <= 1.0

    code, summary = run_cli(capsys, "importance", "--config", cfg,
                            "--checkpoint", ckpt, "--dataset", "low")
    assert code == 0
    profile = summary["profile"]
    assert summary["layers"] == 3  # 3 sublayers x 1 block
    obj = json.loads((tmp_path / profile).read_text()) \
        if not profile.startswith("/") else json.loads(open(profile).read())
    assert set(obj) == {"dataset", "n_samples", "layers"}

    code, plain = run_cli(capsys, "finetune", "--config", cfg,
                          "--checkpoint", ckpt, "--dataset", "low",
                          "--out", "run/checkpoints/plain.lrkt")
    assert code == 0 and plain["with_profile"] is False

    code, tuned = run_cli(capsys, "finetune", "--config", cfg,
                          "--checkpoint", ckpt, "--dataset", "low",
                          "--profile", profile,
                          "--out", "run/checkpoints/impt.lrkt")
    assert code == 0 and tuned["with_profile"] is True
    for summary_out in (plain, tuned):
        (entry,) = summary_out["test"]
        assert entry["dataset"] == "low" and entry["split"] == "test"
        assert 0.0 <= entry["auc"] <= 1.0 and entry["n"] > 0

    code, summary = run_cli(capsys, "eval", "--config", cfg,
                            "--checkpoint", tuned["checkpoint"],
                            "--dataset", "low")
    assert code == 0
    rows = summary["results"]
    assert {r["split"] for r in rows} == {"valid", "test"}
    report_json = tmp_path / "run" / "reports" / "eval.json"
    report_csv = tmp_path / "run" / "reports" / "eval.csv"
    assert report_json.exists() and report_csv.exists()
    parsed = json.loads(report_json.read_text())
    assert all(set(r) == {"dataset", "split", "n", "auc", "accuracy", "threshold"}
               for r in parsed)
    header = report_csv.read_text().splitlines()[0]
    assert header == "dataset,split,n,auc,accuracy"
