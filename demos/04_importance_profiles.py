"""Walkthrough: computing and applying an importance profile.

Trains a small model, probes per-unit importance on a second dataset via
gate gradients, and shows the two modulation extremes: an all-ones
profile reproduces plain training bit for bit, an all-zeros profile
freezes every gated sublayer.
"""

import warnings

from kttrace.data import (
    DatasetSpec, PreparedDataset, SyntheticConfig, build_vocab,
    generate_synthetic, preprocess,
)
from kttrace.importance import compute_importance, constant_profile
from kttrace.model import KTModel, ModelConfig, zero_shot_adapt
from kttrace.train import Checkpoint, TrainConfig, fit

warnings.simplefilter("ignore")


def make(name, index, students, seed):
    cfg = SyntheticConfig(n_students=students, n_questions=60, n_kcs=8,
                          ability_spread=1.2, difficulty_spread=1.0,
                          learning_rate_per_exposure=0.1, mean_seq_len=12, seed=seed)
    seqs, _ = generate_synthetic(cfg)
    return PreparedDataset(spec=DatasetSpec(name, index),
                           splits=preprocess(seqs, seed=seed + 1),
                           n_questions=60, n_kcs=8)


rich = make("rich", 0, 400, seed=1)
low = make("low", 1, 60, seed=2)

vocab = build_vocab([rich.spec], {"rich": (60, 8)})
model = KTModel.build(ModelConfig(n_layers=2, d_model=16, n_head=2, d_ff=32,
                                  dropout=0.1), vocab, seed=0)
pre = fit(model, [rich], TrainConfig(max_epochs=4, patience=4, batch_size=64, seed=0),
          stage="pretrain")

adapted = zero_shot_adapt(pre.build_model(), "low", 60, 8, seed=5)
profile = compute_importance(adapted, low, batch_size=8)
print("importance profile on the target dataset (per-layer max = 1):")
for (block, kind), imp in sorted(profile.layers.items()):
    v = imp.values
    print(f"  block {block} {kind:<12} width {len(v):>3}  "
          f"min {v.min():.3f}  mean {v.mean():.3f}  zeros {(v == 0).sum()}")
profile.save("/tmp/low-profile.json")
print("saved to /tmp/low-profile.json")

ckpt = Checkpoint.from_model(adapted, {})
cfg = TrainConfig(max_epochs=3, patience=10, batch_size=32, seed=7)

plain = fit(ckpt.build_model(), [low], cfg, stage="finetune")
ones = fit(ckpt.build_model(), [low], cfg, profile=constant_profile(adapted, 1.0),
           stage="finetune")
identical = all(plain.params[n].tobytes() == ones.params[n].tobytes()
                for n in plain.params)
print(f"\nall-ones profile reproduces plain fine-tuning bitwise: {identical}")

zeros = fit(ckpt.build_model(), [low], cfg, profile=constant_profile(adapted, 0.0),
            stage="finetune")
gated = {n for names in adapted.gated_layers().values() for n in names}
frozen = all(zeros.params[n].tobytes() == ckpt.params[n].tobytes() for n in gated)
emb_moved = zeros.params["emb.question"].tobytes() != ckpt.params["emb.question"].tobytes()
print(f"all-zeros profile froze every gated sublayer: {frozen} "
      f"(embeddings still trained: {emb_moved})")
