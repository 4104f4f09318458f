import numpy as np
import pytest

from kttrace import metrics
from kttrace.data import (
    SCORE_CELLS,
    TAPE_CELLS,
    SyntheticConfig,
    generate_synthetic,
    pack_rows,
    pack_segments,
    preprocess,
)
from kttrace.model import KTModel
from kttrace.metrics import (
    MetricsReport,
    accuracy,
    auc,
    average_ranks,
    collect_predictions,
    evaluate,
    reports_to_json,
    write_reports_csv,
    write_reports_json,
)
from helpers import build_tiny, hand_sequences, seq_of, shares_rows
from oracles import pairwise_auc


# ---------------------------------------------------------------------------
# AUC


def test_auc_perfect_ranking():
    assert auc([0.9, 0.1], [1, 0]) == 1.0


def test_auc_full_tie_is_half():
    assert auc([0.5, 0.5], [1, 0]) == 0.5


def test_auc_single_class_errors_name_missing_class():
    with pytest.raises(ValueError, match="no positive"):
        auc([0.1, 0.2], [0, 0])
    with pytest.raises(ValueError, match="no negative"):
        auc([0.1, 0.2], [1, 1])


def test_auc_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        auc([0.1], [1, 0])


def test_average_ranks_with_ties():
    ranks = average_ranks(np.array([0.3, 0.1, 0.3, 0.7]))
    np.testing.assert_array_equal(ranks, [2.5, 1.0, 2.5, 4.0])


def test_fast_auc_exactly_equals_pairwise_oracle():
    rng = np.random.default_rng(42)
    for case in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized probabilities so ties actually occur
        probs = rng.integers(0, 11, size=n) / 10.0
        assert auc(probs, labels) == pairwise_auc(probs, labels), f"case {case}"


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(7)
    probs = rng.random(300)
    labels = rng.integers(0, 2, size=300)
    labels[0], labels[1] = 0, 1
    base = auc(probs, labels)
    assert auc(np.exp(3 * probs), labels) == base
    assert auc(probs ** 3 + 2, labels) == base


def test_auc_complement_identity_without_ties():
    rng = np.random.default_rng(8)
    probs = rng.permutation(200) / 200.0  # all distinct
    labels = rng.integers(0, 2, size=200)
    labels[0], labels[1] = 0, 1
    assert auc(probs, labels) + auc(probs, 1 - labels) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_examples():
    assert accuracy([0.9, 0.1], [1, 0]) == 1.0
    assert accuracy([0.5], [1]) == 1.0  # tie predicts positive
    assert accuracy([0.6, 0.6, 0.4], [1, 0, 0]) == pytest.approx(2 / 3)


def test_accuracy_empty_errors():
    with pytest.raises(ValueError, match="empty"):
        accuracy([], [])


def test_report_validation():
    with pytest.raises(ValueError):
        MetricsReport("d", "test", auc=1.2, accuracy=0.5, n_predictions=3)
    with pytest.raises(ValueError):
        MetricsReport("d", "test", auc=0.5, accuracy=0.5, n_predictions=0)


# ---------------------------------------------------------------------------
# evaluate


def test_collect_predictions_matches_hand_enumeration():
    model, vocab = build_tiny()
    seqs = hand_sequences()  # responses [1,0,1] and [0,1,1,0]
    probs, labels = collect_predictions(model, seqs, dataset_index=0)
    assert labels.tolist() == [0, 1, 1, 1, 0]
    batch = pack_segments(seqs, vocab, 0, dtype=model.dtype)
    full = model.predict_batch(batch)
    np.testing.assert_array_equal(probs, np.concatenate([full[0, :2], full[1, :3]]))
    with pytest.raises(ValueError):
        collect_predictions(model, [], dataset_index=0)


def test_collect_predictions_pools_the_pairs_of_one_pack():
    cfg = SyntheticConfig(n_students=60, n_questions=12, n_kcs=6, mean_seq_len=8, seed=2)
    segs = preprocess(generate_synthetic(cfg)[0], seed=3).train
    model, vocab = build_tiny(seed=6, n_layers=2, max_seq_len=200)
    batch = pack_segments(segs, vocab, 0, dtype=np.float64)
    keep = batch.pred_mask[..., 0] == 1.0
    want_p, want_y = model.predict_batch(batch)[keep], batch.targets[..., 0][keep]
    probs, labels = collect_predictions(model, segs, dataset_index=0)
    # the same multiset of (label, probability) pairs, in another order
    got, want = np.lexsort((probs, labels)), np.lexsort((want_p, want_y))
    np.testing.assert_array_equal(labels[got], want_y[want])
    assert np.abs(probs[got] - want_p[want]).max() <= 1e-12 * want_p.max()


def synthetic_splits(seed, n_students=200):
    cfg = SyntheticConfig(n_students=n_students, n_questions=12, n_kcs=6,
                          mean_seq_len=10, seed=seed)
    return preprocess(generate_synthetic(cfg)[0], seed=seed + 1)


def test_collect_predictions_equal_scoring_each_segment_alone():
    segs = synthetic_splits(4).train
    model, vocab = build_tiny(seed=7, n_layers=2, max_seq_len=200)
    assert len(pack_rows(segs, vocab, 0, dtype=np.float64, cells=SCORE_CELLS)) >= 2
    probs, labels = collect_predictions(model, segs, dataset_index=0)
    ordered = sorted(segs, key=len)   # shortest first, ties in split order
    want_p = np.concatenate([
        model.predict_batch(pack_segments([seg], vocab, 0, dtype=np.float64))[0, :-1]
        for seg in ordered])
    np.testing.assert_array_equal(labels, np.concatenate([s.responses[1:] for s in ordered]))
    np.testing.assert_allclose(probs, want_p, rtol=1e-12, atol=0)


def test_a_split_within_tape_cells_is_one_forward(monkeypatch):
    segs = [seq_of(f"s{i}", [(i % 12, (i % 6,), (i + j) % 2, j) for j in range(5)])
            for i in range(80)]
    model, vocab = build_tiny()
    (part,) = pack_rows(segs, vocab, 0)
    assert part.questions.size <= TAPE_CELLS and len(segs) > 64   # more than a default training batch
    calls = []
    original = KTModel.predict_batch

    def counted(self, batch):
        calls.append(batch)
        return original(self, batch)

    monkeypatch.setattr(KTModel, "predict_batch", counted)
    probs, labels = collect_predictions(model, segs, dataset_index=0)
    assert len(calls) == 1 and len(labels) == 80 * 4


def test_constant_predictor_accuracy_is_majority_rate():
    model, _ = build_tiny()
    for name in ("head.w1", "head.b1", "head.w2", "head.b2"):
        model.param(name).data[:] = 0.0
    seqs = hand_sequences()
    probs, labels = collect_predictions(model, seqs, dataset_index=0)
    assert (probs == 0.5).all()
    assert accuracy(probs, labels) == labels.mean()  # ties predict the majority 1s
    assert auc(probs, labels) == 0.5


def test_evaluate_reports_per_dataset_split():
    model, _ = build_tiny()
    seqs = hand_sequences()
    reports = evaluate(model, [("d0", 0, "test", seqs), ("d0", 0, "valid", seqs)])
    assert [(r.dataset, r.split) for r in reports] == [("d0", "test"), ("d0", "valid")]
    assert reports[0].n_predictions == 5
    assert reports[0].auc == reports[1].auc


def test_evaluate_scores_a_dataset_once_and_each_split_as_if_alone(monkeypatch):
    model, vocab = build_tiny(seed=7, n_layers=2, max_seq_len=200)
    d0, d1 = synthetic_splits(4), synthetic_splits(6, n_students=120)
    named = [("d0", 0, "valid", d0.valid), ("d1", 1, "test", d1.test),
             ("d0", 0, "test", d0.test), ("d0", 0, "train", d0.train),
             ("d1", 1, "valid", d1.valid)]
    pooled = pack_rows(d0.valid + d0.test + d0.train, vocab, 0, cells=SCORE_CELLS)
    assert len(pooled) >= 2 and shares_rows(pooled)
    alone = [collect_predictions(model, segs, index) for _, index, _, segs in named]
    calls, scored = [], []
    collect, score = metrics.collect_predictions, metrics.auc

    def counted(model, segments, dataset_index):
        calls.append(dataset_index)
        return collect(model, segments, dataset_index)

    def recorded(probs, labels):
        scored.append((probs, labels))
        return score(probs, labels)

    monkeypatch.setattr(metrics, "collect_predictions", counted)
    monkeypatch.setattr(metrics, "auc", recorded)
    reports = evaluate(model, iter(named))
    assert sorted(calls) == [0, 1]
    assert [(r.dataset, r.split) for r in reports] == [(d, s) for d, _, s, _ in named]
    for report, (probs, labels), (want_p, want_y) in zip(reports, scored, alone):
        assert report.n_predictions == len(labels) == len(want_y)
        np.testing.assert_array_equal(labels, want_y)
        np.testing.assert_allclose(probs, want_p, rtol=1e-12, atol=0)


def test_evaluate_rejects_an_empty_split_among_others():
    model, _ = build_tiny()
    with pytest.raises(ValueError, match="empty 'test' split of 'd0'"):
        evaluate(model, [("d0", 0, "valid", hand_sequences()), ("d0", 0, "test", [])])


def test_evaluate_is_deterministic():
    model, _ = build_tiny(dtype=np.float32)
    seqs = hand_sequences()
    r1 = evaluate(model, [("d0", 0, "test", seqs)])
    r2 = evaluate(model, [("d0", 0, "test", seqs)])
    assert r1[0].auc == r2[0].auc and r1[0].accuracy == r2[0].accuracy


def test_report_serialization(tmp_path):
    reports = [MetricsReport("rich1", "test", 0.75, 0.5, 10),
               MetricsReport("low", "valid", 0.5, 0.25, 4)]
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    write_reports_json(reports, jpath)
    write_reports_csv(reports, cpath)
    obj = reports_to_json(reports)
    assert obj[0] == {"dataset": "rich1", "split": "test", "n": 10,
                      "auc": 0.75, "accuracy": 0.5, "threshold": 0.5}
    lines = cpath.read_text().strip().split("\n")
    assert lines[0] == "dataset,split,n,auc,accuracy"
    assert lines[1] == "rich1,test,10,0.75,0.5"
