"""Walkthrough: pre-train on rich data, transfer to a low-resource dataset.

A scaled-down version of the transfer story: two rich datasets pre-train
a small decoder, the model is adapted to an unseen 80-student dataset,
and fine-tuning from the checkpoint is compared with training the same
architecture from scratch. Takes about ten seconds on one CPU core.
"""

import warnings

from kttrace.data import (
    DatasetSpec, PreparedDataset, SyntheticConfig, build_vocab,
    generate_synthetic, preprocess,
)
from kttrace.metrics import evaluate
from kttrace.model import KTModel, ModelConfig, zero_shot_adapt
from kttrace.train import Checkpoint, TrainConfig, fit

warnings.simplefilter("ignore")


def make(name, index, students, questions, seed):
    cfg = SyntheticConfig(n_students=students, n_questions=questions, n_kcs=10,
                          ability_spread=1.5, difficulty_spread=1.0,
                          learning_rate_per_exposure=0.1, mean_seq_len=15,
                          seed=seed)
    seqs, _ = generate_synthetic(cfg)
    return PreparedDataset(spec=DatasetSpec(name, index),
                           splits=preprocess(seqs, seed=seed + 1),
                           n_questions=questions, n_kcs=10)


def test_auc(ckpt, prepared):
    (report,) = evaluate(ckpt.build_model(),
                         [(prepared.spec.name, prepared.spec.dataset_index,
                           "test", prepared.splits.test)])
    return report.auc


rich = [make("rich0", 0, 600, 100, seed=1), make("rich1", 1, 600, 100, seed=2)]
low = make("low", 2, 80, 200, seed=3)

vocab = build_vocab([d.spec for d in rich],
                    {d.spec.name: (d.n_questions, d.n_kcs) for d in rich})
config = ModelConfig(n_layers=2, d_model=32, n_head=4, d_ff=64,
                     dropout=0.1)
model = KTModel.build(config, vocab, seed=0)
print(f"model: {config.n_layers} blocks, d_model {config.d_model}, "
      f"{model.n_params} parameters")

print("\npre-training on rich0 + rich1 ...")
pre = fit(model, rich, TrainConfig(max_epochs=5, patience=5, batch_size=64, seed=0),
          stage="pretrain")
print(f"  best val AUC {pre.metadata['best_val_auc']:.4f} "
      f"at epoch {pre.metadata['best_epoch']}")

adapted = zero_shot_adapt(pre.build_model(), "low", low.n_questions, low.n_kcs, seed=9)
adapted_ckpt = Checkpoint.from_model(adapted, {})
print(f"zero-shot test AUC on the unseen dataset: {test_auc(adapted_ckpt, low):.4f}")

ft_cfg = TrainConfig(max_epochs=30, patience=5, batch_size=64, seed=4)
tuned = fit(adapted_ckpt.build_model(), [low], ft_cfg, stage="finetune")
print(f"fine-tuned test AUC: {test_auc(tuned, low):.4f}")

low_vocab = build_vocab([DatasetSpec("low", 0)], {"low": (low.n_questions, low.n_kcs)})
low_alone = PreparedDataset(DatasetSpec("low", 0), low.splits, low.n_questions, low.n_kcs)
scratch_model = KTModel.build(
    ModelConfig(n_layers=2, d_model=32, n_head=4, d_ff=64,
                dropout=0.1), low_vocab, seed=4)
scratch = fit(scratch_model, [low_alone], ft_cfg, stage="scratch")
print(f"from-scratch test AUC: {test_auc(scratch, low_alone):.4f}")
print("\n(pre-training the sequence dynamics is what transfers: the new "
      "dataset's question embeddings start fresh either way)")
