"""Acceptance criteria, one test each, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 9 and 10
share one transfer experiment (several minutes of real training on one
CPU core); everything else is fast.
"""

import contextlib
import gc
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from kttrace.autograd import Tape, bce_loss
from kttrace.data import (
    DatasetSpec,
    PreparedDataset,
    Splits,
    SyntheticConfig,
    build_vocab,
    clean_sequences,
    generate_synthetic,
    pack_segments,
    preprocess,
)
from kttrace.importance import compute_importance, constant_profile
from kttrace.metrics import accuracy, auc
from kttrace.model import KTModel, ModelConfig, parameter_count
from kttrace.train import (
    Checkpoint,
    CheckpointDigestError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    TrainConfig,
    fit,
    load_checkpoint,
    save_checkpoint,
)
from helpers import finite_diff, hand_sequences, max_rel_err, seq_of, tiny_vocab
from oracles import oracle_gate_gradients, pairwise_auc
import experiment

REPO = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {label}: PASS")


def fixture_model(seed, dtype=np.float64, n_layers=2, d_model=8, n_head=2, d_ff=12):
    vocab = tiny_vocab()
    config = ModelConfig(n_layers=n_layers, d_model=d_model, n_head=n_head,
                         d_ff=d_ff, dropout=0.0, max_seq_len=8)
    return KTModel.build(config, vocab, seed=seed, dtype=dtype), vocab


def tiny_prepared(n_students=20, seed=0, name="d0", index=0):
    cfg = SyntheticConfig(n_students=n_students, n_questions=10, n_kcs=4,
                          ability_spread=1.0, difficulty_spread=1.0,
                          learning_rate_per_exposure=0.1, mean_seq_len=8, seed=seed)
    seqs, _ = generate_synthetic(cfg)
    return PreparedDataset(spec=DatasetSpec(name, index),
                           splits=preprocess(seqs, seed=seed + 1),
                           n_questions=10, n_kcs=4)


def training_model(prepared, seed=0):
    vocab = build_vocab([prepared.spec],
                        {prepared.spec.name: (prepared.n_questions, prepared.n_kcs)})
    config = ModelConfig(n_layers=1, d_model=8, n_head=2, d_ff=8, dropout=0.1,
                         max_seq_len=32)
    return KTModel.build(config, vocab, seed=seed)


def quiet_train_config(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return TrainConfig(**kw)


# ---------------------------------------------------------------------------


def test_criterion_01_desk_scale_limits_are_documented():
    with criterion(1, "full-scale benchmark reproduction declared out of scope"):
        readme = (REPO / "README.md").read_text(encoding="utf-8").lower()
        assert "out of scope" in readme
        assert "desk-scale" in readme or "desk scale" in readme
        # the substitute verification strategy is described
        assert "finite difference" in readme or "finite differences" in readme
        assert "transfer experiment" in readme


def test_criterion_02_gradients_match_finite_differences():
    with criterion(2, "fixture gradients match central finite differences"):
        start = time.monotonic()
        for seed in (0, 1, 2):
            model, vocab = fixture_model(seed=seed)
            batch = pack_segments(hand_sequences(), vocab, 0, dtype=np.float64)

            def loss_value():
                probs = model.forward_batch(batch)
                return bce_loss(probs, batch.targets, batch.pred_mask).item()

            model.zero_grad()
            with Tape() as tape:
                probs = model.forward_batch(batch)
                loss = bce_loss(probs, batch.targets, batch.pred_mask)
            tape.backward(loss)

            arrays = {name: t.data for name, t in model.parameters().items()}
            fd = finite_diff(loss_value, arrays, h=1e-5)
            for name, t in model.parameters().items():
                err = max_rel_err(t.grad, fd[name])
                assert err < 1e-4, f"seed {seed}, {name}: rel err {err:.2e}"
        assert time.monotonic() - start < 60.0


def test_criterion_03_gate_transparency():
    with criterion(3, "all-ones gates leave the forward pass unchanged"):
        model, vocab = fixture_model(seed=3, dtype=np.float32)
        batch = pack_segments(hand_sequences(), vocab, 0, dtype=np.float32)
        plain = model.forward_batch(batch).data
        gated = model.forward_batch(batch, gates=model.make_gates()).data
        assert np.abs(plain.astype(np.float64) - gated.astype(np.float64)).max() <= 1e-7


def test_criterion_04_importance_equals_hand_derivation():
    with criterion(4, "importance equals the scalar-loop gate-gradient oracle"):
        model, _ = fixture_model(seed=11, n_layers=1, d_model=4, n_head=2, d_ff=6)
        seqs = hand_sequences()
        prepared = PreparedDataset(spec=DatasetSpec("d0", 0),
                                   splits=Splits(train=seqs, valid=[], test=[]),
                                   n_questions=12, n_kcs=6)
        got = compute_importance(model, prepared, batch_size=1, normalize=False)
        expected = oracle_gate_gradients(model, seqs, dataset_index=0)
        for lid, vec in expected.items():
            diff = np.abs(got.layers[lid].values - vec).max()
            assert diff < 1e-10, f"{lid}: {diff:.2e}"


def test_criterion_05_identity_property(tmp_path):
    with criterion(5, "all-ones profile fine-tunes bit-identically to plain"):
        prepared = tiny_prepared()
        model = training_model(prepared)
        base = fit(model, [prepared],
                   quiet_train_config(max_epochs=2, patience=10, batch_size=8, seed=1))
        # 2 batches/epoch x 5 epochs = 10 optimizer steps
        cfg = quiet_train_config(max_epochs=5, patience=100, batch_size=8, seed=9)
        plain = fit(base.build_model(), [prepared], cfg)
        ones = fit(base.build_model(), [prepared], cfg,
                   profile=constant_profile(base.build_model(), 1.0))
        p1, p2 = tmp_path / "plain.lrkt", tmp_path / "ones.lrkt"
        save_checkpoint(plain, p1)
        save_checkpoint(ones, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_criterion_06_freeze_property():
    with criterion(6, "all-zeros profile freezes every gated sublayer"):
        prepared = tiny_prepared()
        model = training_model(prepared)
        base = fit(model, [prepared],
                   quiet_train_config(max_epochs=2, patience=10, batch_size=8, seed=1))
        # 2 batches/epoch x 25 epochs = 50 optimizer steps
        tuned = fit(base.build_model(), [prepared],
                    quiet_train_config(max_epochs=25, patience=100,
                                       batch_size=8, seed=3),
                    profile=constant_profile(base.build_model(), 0.0))
        gated = {n for names in base.build_model().gated_layers().values()
                 for n in names}
        for name in gated:
            assert tuned.params[name].tobytes() == base.params[name].tobytes(), name
        changed = [n for n in tuned.params if n.startswith("emb.")
                   and tuned.params[n].tobytes() != base.params[n].tobytes()]
        assert changed, "no embedding parameter moved"


def test_criterion_07_auc_oracle_and_accuracy():
    with criterion(7, "fast AUC equals the pairwise oracle; accuracy hand counts"):
        rng = np.random.default_rng(123)
        for case in range(1000):
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            probs = rng.integers(0, 9, size=n) / 8.0  # ties guaranteed
            assert auc(probs, labels) == pairwise_auc(probs, labels), f"case {case}"
        assert accuracy([0.9, 0.1], [1, 0]) == 1.0
        assert accuracy([0.5], [1]) == 1.0
        assert accuracy([0.6, 0.6, 0.4], [1, 0, 0]) == pytest.approx(2 / 3)


def test_criterion_08_preprocessing_protocol():
    with criterion(8, "length filtering, segmentation and disjoint splits"):
        def seq(sid, length):
            return seq_of(sid, [(j % 7, (j % 3,), j % 2, 100 * j) for j in range(length)])

        fixture = [seq("a", 2), seq("b", 3), seq("c", 200), seq("d", 450)]
        cleaned = clean_sequences(fixture)
        by_student = {}
        for s in cleaned:
            by_student.setdefault(s.student_id, []).append(len(s))
        assert "a" not in by_student            # dropped
        assert by_student["b"] == [3]           # kept
        assert by_student["c"] == [200]         # kept
        assert by_student["d"] == [200, 200, 50]  # split

        splits1 = preprocess(fixture, seed=5)
        splits2 = preprocess(fixture, seed=5)
        for (_, a), (_, b) in zip(splits1, splits2):
            assert a == b                        # seed-deterministic
        eval_ids = {s.student_id for s in splits1.test}
        rest_ids = ({s.student_id for s in splits1.train}
                    | {s.student_id for s in splits1.valid})
        assert eval_ids and not (eval_ids & rest_ids)  # disjoint 80/20


@pytest.fixture(scope="module")
def transfer_result():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return experiment.run_transfer_experiment(draws=(1, 2, 3))


def _arm_line(r, label, arm):
    aucs = [round(x, 4) for x in getattr(r, arm)]
    return (f"  {label:<10} {aucs} mean {r.mean(arm):.4f}, "
            f"best epochs {r.best_epochs[arm]}")


def test_criterion_09_pretraining_transfer_gap(transfer_result):
    with criterion(9, "pre-training beats training from scratch by >= 0.005 AUC"):
        r = transfer_result
        gap = r.mean("finetuned") - r.mean("scratch")
        print(f"\n  pre-training best epochs {r.best_epochs['pretrain']}, "
              f"{r.pretrain_seconds:.0f}s")
        print(_arm_line(r, "scratch", "scratch"))
        print(_arm_line(r, "finetuned", "finetuned"))
        print(f"  gap {gap:+.4f}, runtime {r.total_seconds:.0f}s")
        assert gap >= 0.005
        assert r.total_seconds <= 900.0


def test_criterion_10_importance_benefit(transfer_result):
    with criterion(10, "importance-modulated fine-tuning within tolerance of plain"):
        r = transfer_result
        gap = r.mean("finetuned_importance") - r.mean("finetuned")
        print()
        print(_arm_line(r, "plain", "finetuned"))
        print(_arm_line(r, "importance", "finetuned_importance"))
        print(f"  gap {gap:+.4f} (positive expected, >= -0.002 required)")
        if gap < 0:
            print("  NOTE: negative gap within tolerance; logged, not failed")
        assert gap >= -0.002


def test_criterion_11_architecture_grid_fidelity():
    with criterion(11, "named presets and parameter accounting"):
        grid = {
            "base-89M": (4, 256, 8, 256),
            "base-221M": (24, 512, 16, 1024),
            "base-478M": (24, 1024, 16, 1024),
            "base-1.01B": (32, 1536, 24, 2560),
        }
        # construction: every preset instantiates (reduced vocabulary; the
        # two largest at full union-vocabulary scale exceed this box's RAM)
        small = tiny_vocab(nq=100, nk=20, n_datasets=3)
        built_counts = []
        for name, row in grid.items():
            cfg = ModelConfig.from_preset(name)
            assert (cfg.n_layers, cfg.d_model, cfg.n_head, cfg.d_ff) == row
            model = KTModel.build(cfg, small, seed=0)
            assert model.n_params == parameter_count(cfg, small)
            built_counts.append(model.n_params)
            del model
            gc.collect()
        assert built_counts == sorted(built_counts) and len(set(built_counts)) == 4

        # union vocabulary of the three rich datasets: 207856+7652+12235
        # questions, 493+865+188 KCs
        union = build_vocab(
            [DatasetSpec("bd", 0), DatasetSpec("xes", 1), DatasetSpec("ednet", 2)],
            {"bd": (207856, 493), "xes": (7652, 865), "ednet": (12235, 188)})
        counts = [parameter_count(ModelConfig.from_preset(n), union)
                  for n in grid]
        assert counts == sorted(counts) and len(set(counts)) == 4
        target = 2.21e8
        count_221 = counts[1]
        print(f"\n  221M preset with union vocabulary: {count_221 / 1e6:.1f}M parameters")
        assert abs(count_221 - target) <= 0.25 * target


def test_criterion_12_checkpoint_round_trip_and_errors(tmp_path):
    with criterion(12, "checkpoint round trip and the three distinct errors"):
        prepared = tiny_prepared()
        model = training_model(prepared)
        ckpt = Checkpoint.from_model(model, {"seed": 0})
        path = tmp_path / "m.lrkt"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        for name, arr in ckpt.params.items():
            assert back.params[name].tobytes() == arr.tobytes()

        blob = path.read_bytes()
        (tmp_path / "t.lrkt").write_bytes(blob[:-1])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(tmp_path / "t.lrkt")

        import struct
        bad_version = blob[:4] + struct.pack("<I", 99) + blob[8:]
        (tmp_path / "v.lrkt").write_bytes(bad_version)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(tmp_path / "v.lrkt")

        corrupt = bytearray(blob)
        corrupt[-40] ^= 0x01
        (tmp_path / "d.lrkt").write_bytes(bytes(corrupt))
        with pytest.raises(CheckpointDigestError):
            load_checkpoint(tmp_path / "d.lrkt")


def test_criterion_13_cli_pipeline_smoke(tmp_path, capsys):
    with criterion(13, "scripted CLI pipeline completes with valid reports"):
        from kttrace.cli import main

        start = time.monotonic()
        cfg_obj = {
            "seed": 11,
            "paths": {"workdir": "run"},
            "model": {"n_layers": 1, "d_model": 16, "n_head": 2, "d_ff": 16},
            "train": {"learning_rate": 0.001, "dropout": 0.1, "max_epochs": 2,
                      "patience": 2, "batch_size": 16},
            "datasets": [
                {"name": f"rich{i}", "dataset_index": i,
                 "path": f"run/data/rich{i}.txt", "role": "pretrain"}
                for i in range(3)
            ] + [{"name": "low", "dataset_index": 3, "path": "run/data/low.txt",
                  "role": "target"}],
            "synthetic": {
                name: {"n_students": students, "n_questions": 12, "n_kcs": 4,
                       "ability_spread": 1.0, "difficulty_spread": 1.0,
                       "learning_rate_per_exposure": 0.1, "mean_seq_len": 8}
                for name, students in
                (("rich0", 60), ("rich1", 60), ("rich2", 60), ("low", 30))
            },
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_obj))

        def run(*argv):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(list(argv))
            out = capsys.readouterr().out.strip()
            assert code == 0, f"{argv} exited {code}"
            return json.loads(out.splitlines()[-1])

        for name in ("rich0", "rich1", "rich2", "low"):
            run("synth", "--config", str(cfg), "--dataset", name)
        run("preprocess", "--config", str(cfg))
        pre = run("pretrain", "--config", str(cfg))
        imp = run("importance", "--config", str(cfg),
                  "--checkpoint", pre["checkpoint"], "--dataset", "low")
        fin = run("finetune", "--config", str(cfg),
                  "--checkpoint", pre["checkpoint"], "--dataset", "low",
                  "--profile", imp["profile"])
        ev = run("eval", "--config", str(cfg),
                 "--checkpoint", fin["checkpoint"], "--dataset", "low")

        for row in ev["results"]:
            assert set(row) == {"dataset", "split", "n", "auc", "accuracy",
                                "threshold"}
            assert np.isfinite(row["auc"]) and 0.0 <= row["auc"] <= 1.0
            assert row["n"] > 0
        report = tmp_path / "run" / "reports" / "eval.json"
        assert report.exists()
        assert time.monotonic() - start < 300.0
