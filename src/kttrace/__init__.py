"""Knowledge-tracing training engine.

Pre-trains a decoder-only model on several interaction datasets at once,
reads per-layer unit importance off virtual gate gradients on a target
dataset, and fine-tunes with importance-modulated gradients.
"""

from .autograd import Tape, Tensor
from .data import (
    DatasetSpec,
    GlobalVocab,
    PreparedDataset,
    StudentSequence,
    SyntheticConfig,
    build_vocab,
    generate_synthetic,
    ingest,
    mix_batches,
    preprocess,
    write_blocks,
)
from .model import PRESETS, KTModel, ModelConfig, zero_shot_adapt

__version__ = "0.1.0"

__all__ = [
    "Tape", "Tensor",
    "DatasetSpec", "GlobalVocab", "PreparedDataset",
    "StudentSequence", "SyntheticConfig", "build_vocab", "generate_synthetic",
    "ingest", "mix_batches", "preprocess", "write_blocks",
    "PRESETS", "KTModel", "ModelConfig", "zero_shot_adapt",
]
