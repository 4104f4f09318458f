"""Walkthrough: the synthetic student simulator.

Students have a latent ability, questions a difficulty, and practicing a
question's knowledge components raises later success odds. The generator
keeps its ground truth, so claims about it are checkable.
"""

import numpy as np

from kttrace.data import SyntheticConfig, generate_synthetic, preprocess

cfg = SyntheticConfig(n_students=500, n_questions=80, n_kcs=8,
                      ability_spread=1.2, difficulty_spread=1.0,
                      learning_rate_per_exposure=0.3, mean_seq_len=25, seed=42)
sequences, truth = generate_synthetic(cfg)
n_inter = sum(len(s) for s in sequences)
rate = np.mean(np.concatenate([s.responses for s in sequences]))
print(f"{len(sequences)} students, {n_inter} interactions, correct rate {rate:.3f}")
print(f"generator's own mean probability: {truth.mean_probability():.3f}")

print("\nability vs observed success (top/bottom 5 students by theta):")
order = np.argsort(truth.theta)
for idx in list(order[:5]) + list(order[-5:]):
    seq = sequences[idx]
    obs = np.mean(seq.responses)
    print(f"  {seq.student_id:>5}  theta={truth.theta[idx]:+.2f}  observed={obs:.2f}")

first_half, second_half = [], []
for seq in sequences:
    half = len(seq) // 2
    first_half.extend(seq.responses[:half])
    second_half.extend(seq.responses[half:])
print(f"\nlearning effect: first-half rate {np.mean(first_half):.3f} "
      f"-> second-half rate {np.mean(second_half):.3f}")

splits = preprocess(sequences, seed=7)
print(f"\npreprocessed: {len(splits.train)} train / {len(splits.valid)} valid / "
      f"{len(splits.test)} test segments (student-disjoint)")
