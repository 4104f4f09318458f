"""AUC / Accuracy computation and per-dataset reporting.

The AUC is the Mann-Whitney rank statistic with tie-halving. The tests
hold it exactly equal, not approximately, to a brute-force O(n^2)
pairwise count.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .data import SCORE_CELLS, pack_rows


@dataclass
class MetricsReport:
    dataset: str
    split: str
    auc: float
    accuracy: float
    n_predictions: int

    def __post_init__(self):
        if self.n_predictions <= 0:
            raise ValueError("report needs at least one prediction")
        for metric in (self.auc, self.accuracy):
            if not 0.0 <= metric <= 1.0:
                raise ValueError(f"metric {metric} outside [0, 1]")


def _check_binary(probs, labels):
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if probs.shape != labels.shape:
        raise ValueError(f"length mismatch: {probs.shape[0]} probs vs "
                         f"{labels.shape[0]} labels")
    return probs, labels


def average_ranks(values):
    """1-based ranks, ties sharing their group's average rank."""
    values = np.asarray(values)
    n = len(values)
    order = np.argsort(values, kind="mergesort")
    sv = values[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sv[1:] != sv[:-1]
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, n))
    group_avg = starts + (counts + 1) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(group_avg, counts)
    return ranks


def auc(probs, labels):
    """Probability a random positive outranks a random negative, ties half.

    Rank-statistic form, O(n log n); exactly equals the pairwise count
    (wins + ties/2) / (pos * neg) because average ranks are exact halves.
    """
    probs, labels = _check_binary(probs, labels)
    pos = labels == 1
    neg = labels == 0
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0:
        raise ValueError("AUC undefined: no positive (label 1) examples")
    if n_neg == 0:
        raise ValueError("AUC undefined: no negative (label 0) examples")
    ranks = average_ranks(probs)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def accuracy(probs, labels):
    """Fraction of predictions, thresholded at 0.5, matching the labels.

    A probability of exactly 0.5 predicts the positive class.
    """
    probs, labels = _check_binary(probs, labels)
    if len(probs) == 0:
        raise ValueError("accuracy undefined on empty input")
    preds = probs >= 0.5
    return float((preds == (labels == 1)).mean())


def collect_predictions(model, segments, dataset_index):
    """Pooled (probability, label) pairs over all scorable steps of a split.

    The first interaction of each segment has no history and is excluded;
    padded positions are excluded by the batch mask. The whole split goes
    to ``pack_rows`` at once, at the scoring cap ``SCORE_CELLS`` (three
    times a training part's cells, since no tape is kept), so it runs in
    as few parts as its lengths allow, whatever the training batch size.
    The pairs come segment by segment, shortest first (ties in split
    order), each segment's steps in time order. An empty split is a
    ValueError.
    """
    ps, ys, lens = [], [], []
    for batch in pack_rows(segments, model.vocab, dataset_index, dtype=model.dtype,
                           cells=SCORE_CELLS):
        probs = model.predict_batch(batch)
        keep = batch.pred_mask[..., 0] == 1.0
        ps.append(probs[keep])
        ys.append(batch.targets[..., 0][keep])
        lens.append(np.repeat(batch.lengths, batch.lengths - 1))
    # a part's pairs come segment by segment in slot order, and slots keep
    # the split's order among equal lengths, so a stable sort by length
    # puts them shortest first: pairs do not depend on the packing
    order = np.argsort(np.concatenate(lens), kind="stable")
    return np.concatenate(ps)[order], np.concatenate(ys)[order].astype(np.int64)


def evaluate(model, named_splits):
    """One MetricsReport per (dataset, split) entry, in input order.

    ``named_splits`` is an iterable of (dataset_name, dataset_index,
    split_name, segments). The splits of one dataset are scored in one
    ``collect_predictions`` call on their segments end to end, and the
    pooled pairs are cut back per split by their order (shortest segment
    first, ties in input order), so each split gets the pairs it would
    get alone. An empty split is a ValueError.
    """
    named_splits = list(named_splits)
    by_dataset = {}
    for k, (dataset_name, dataset_index, split_name, segments) in enumerate(named_splits):
        if not segments:
            raise ValueError(f"cannot score the empty {split_name!r} split "
                             f"of {dataset_name!r}")
        by_dataset.setdefault(dataset_index, []).append(k)
    pairs = {}
    for dataset_index, ks in by_dataset.items():
        splits = [named_splits[k][3] for k in ks]
        segments = [seg for segs in splits for seg in segs]
        probs, labels = collect_predictions(model, segments, dataset_index)
        lengths = np.array([len(seg) for seg in segments], dtype=np.int64)
        split = np.repeat(np.arange(len(ks)), [len(segs) for segs in splits])
        order = np.argsort(lengths, kind="stable")
        owner = np.repeat(split[order], lengths[order] - 1)   # each pair's split
        for j, k in enumerate(ks):
            pairs[k] = probs[owner == j], labels[owner == j]
    reports = []
    for k, (dataset_name, _, split_name, _) in enumerate(named_splits):
        probs, labels = pairs[k]
        reports.append(MetricsReport(
            dataset=dataset_name, split=split_name,
            auc=auc(probs, labels),
            accuracy=accuracy(probs, labels), n_predictions=len(labels)))
    return reports


def reports_to_json(reports):
    return [{"dataset": r.dataset, "split": r.split, "n": r.n_predictions,
             "auc": r.auc, "accuracy": r.accuracy, "threshold": 0.5}
            for r in reports]


def write_reports_json(reports, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reports_to_json(reports), fh, indent=1)
        fh.write("\n")


def write_reports_csv(reports, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "split", "n", "auc", "accuracy"])
        for r in reports:
            writer.writerow([r.dataset, r.split, r.n_predictions,
                             repr(r.auc), repr(r.accuracy)])
