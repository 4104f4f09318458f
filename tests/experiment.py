"""Desk-scale transfer experiment shared by the acceptance suite.

Three rich synthetic datasets pre-train a small model once per draw k
(model init and training seed k); a 100-student dataset is then learned
three ways per draw: fine-tuned from draw k's checkpoint, fine-tuned with
an importance profile (both at fine-tune seed k - 1), and trained from
scratch at seed k - 1. Fine-tunes of one checkpoint land within 0.001 of
each other, so the arms are averaged over pre-training draws, not over
fine-tune seeds. Returns per-draw test AUCs and best epochs for each arm.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from kttrace.data import (
    DatasetSpec,
    PreparedDataset,
    SyntheticConfig,
    build_vocab,
    generate_synthetic,
    preprocess,
)
from kttrace.importance import compute_importance
from kttrace.metrics import evaluate
from kttrace.model import KTModel, ModelConfig, zero_shot_adapt
from kttrace.train import Checkpoint, TrainConfig, fit


def make_dataset(name, index, n_students, n_questions, n_kcs, seed):
    cfg = SyntheticConfig(n_students=n_students, n_questions=n_questions,
                          n_kcs=n_kcs, ability_spread=1.5, difficulty_spread=1.0,
                          learning_rate_per_exposure=0.1, mean_seq_len=15,
                          seed=seed)
    sequences, _ = generate_synthetic(cfg)
    splits = preprocess(sequences, seed=seed + 1)
    return PreparedDataset(spec=DatasetSpec(name, index), splits=splits,
                           n_questions=n_questions, n_kcs=n_kcs)


def test_auc_of(ckpt, prepared):
    (report,) = evaluate(ckpt.build_model(),
                         [(prepared.spec.name, prepared.spec.dataset_index,
                           "test", prepared.splits.test)], batch_size=128)
    return report.auc


@dataclass
class TransferResult:
    pretrain_seconds: float = 0.0
    total_seconds: float = 0.0
    scratch: list = field(default_factory=list)
    finetuned: list = field(default_factory=list)
    finetuned_importance: list = field(default_factory=list)
    best_epochs: dict = field(default_factory=dict)   # arm -> best epoch per draw

    def mean(self, arm):
        return float(np.mean(getattr(self, arm)))

    def record(self, arm, ckpt, prepared):
        getattr(self, arm).append(test_auc_of(ckpt, prepared))
        self.best_epochs.setdefault(arm, []).append(ckpt.metadata["best_epoch"])


def run_transfer_experiment(draws=(1, 2, 3), n_rich_students=2000,
                            n_low_students=100, pretrain_epochs=6,
                            finetune_epochs=40, d_model=64, n_layers=4):
    t0 = time.time()
    rich = [make_dataset(f"rich{i}", i, n_rich_students, n_questions=150,
                         n_kcs=10, seed=100 + i) for i in range(3)]
    low = make_dataset("low", 3, n_low_students, n_questions=300, n_kcs=15,
                       seed=777)

    vocab = build_vocab([d.spec for d in rich],
                        {d.spec.name: (d.n_questions, d.n_kcs) for d in rich})
    model_cfg = ModelConfig(n_layers=n_layers, d_model=d_model, n_head=4,
                            d_ff=2 * d_model, dropout=0.1)
    low_only_vocab = build_vocab([DatasetSpec("low", 0)],
                                 {"low": (low.n_questions, low.n_kcs)})
    low_only = PreparedDataset(spec=DatasetSpec("low", 0), splits=low.splits,
                               n_questions=low.n_questions, n_kcs=low.n_kcs)
    result = TransferResult()

    for draw in draws:
        started = time.time()
        pre_cfg = TrainConfig(learning_rate=1e-3, dropout=0.1,
                              max_epochs=pretrain_epochs, patience=pretrain_epochs,
                              batch_size=128, seed=draw)
        pre_ckpt = fit(KTModel.build(model_cfg, vocab, seed=draw), rich, pre_cfg,
                       stage="pretrain")
        result.pretrain_seconds += time.time() - started
        result.best_epochs.setdefault("pretrain", []).append(pre_ckpt.metadata["best_epoch"])

        adapted = zero_shot_adapt(pre_ckpt.build_model(), "low", low.n_questions,
                                  low.n_kcs, seed=2)
        adapted_ckpt = Checkpoint.from_model(adapted, pre_ckpt.metadata)
        profile = compute_importance(adapted, low, batch_size=16)

        seed = draw - 1
        ft_cfg = TrainConfig(learning_rate=1e-3, dropout=0.1,
                             max_epochs=finetune_epochs, patience=5,
                             batch_size=128, seed=seed)
        result.record("finetuned", fit(adapted_ckpt.build_model(), [low], ft_cfg,
                                       stage="finetune"), low)
        result.record("finetuned_importance",
                      fit(adapted_ckpt.build_model(), [low], ft_cfg, profile=profile,
                          stage="finetune"), low)

        scratch_cfg = ModelConfig(n_layers=n_layers, d_model=d_model, n_head=4,
                                  d_ff=2 * d_model, dropout=0.1)
        scratch_model = KTModel.build(scratch_cfg, low_only_vocab, seed=seed + 50)
        result.record("scratch", fit(scratch_model, [low_only], ft_cfg, stage="scratch"),
                      low_only)

    result.total_seconds = time.time() - t0
    return result
