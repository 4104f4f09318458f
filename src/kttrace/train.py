"""Training: one loop for pre-training and fine-tuning, and persistence.

``fit`` is the only training entry point. It runs mixed single-dataset
batches (``mix_batches``), each through ``KTModel.backward_batch`` (masked
BCE on next-response predictions, one tape per ``pack_rows`` part), Adam with
optional global-norm clipping, and early stopping on mean validation AUC, then
leaves the model at its best parameters and returns them as a
checkpoint. Pre-training passes several rich datasets; fine-tuning
passes one target the model's vocabulary already covers (adapt it
first) and may pass an ImportanceProfile, in which case every step's
flat gradient is multiplied by the broadcast importance
(``importance_scale``) before clipping and the optimizer step; the
forward pass is never altered. A non-finite gradient norm ends the run
before the optimizer writes any parameter.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import struct
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .autograd import NumericalError
from .data import GlobalVocab, mix_batches
from .importance import freeze_masks, modulate
from .metrics import evaluate
from .model import KTModel, ModelConfig, _parameter_specs

logger = logging.getLogger(__name__)

GRID_LEARNING_RATES = (1e-3, 1e-4)
GRID_DROPOUTS = (0.1, 0.2)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

CHECKPOINT_MAGIC = b"LRKT"
CHECKPOINT_VERSION = 1
_DIGEST_LEN = 32


class TrainingDivergedError(ArithmeticError):
    """Loss or gradient went non-finite; carries epoch, step and recent loss
    history."""

    def __init__(self, epoch, step, history, what="loss"):
        self.epoch = epoch
        self.step = step
        self.history = list(history)
        tail = ", ".join(f"{v:.4g}" for v in self.history[-8:])
        super().__init__(f"non-finite {what} at epoch {epoch}, step {step}; "
                         f"recent losses: [{tail}]")


class CheckpointFormatError(ValueError):
    """Not a checkpoint file (bad magic or malformed header)."""


class CheckpointVersionError(ValueError):
    def __init__(self, found, expected):
        super().__init__(f"checkpoint version {found}, this build reads {expected}")
        self.found = found
        self.expected = expected


class CheckpointTruncatedError(ValueError):
    """File ends before the declared payload and digest."""


class CheckpointDigestError(ValueError):
    """Stored SHA-256 digest does not match the file contents."""


def _positive_float(value):
    """True for a number that converts to a positive finite float.

    json reads NaN and Infinity, and an integer such as 10**400 compares
    below infinity yet overflows when numpy converts it.
    """
    try:
        return isinstance(value, numbers.Real) and 0 < float(value) < math.inf
    except OverflowError:
        return False


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    dropout: float = 0.1
    max_epochs: int = 200
    patience: int = 10
    batch_size: int = 64
    seed: int = 0
    clip_norm: float | None = 5.0

    def __post_init__(self):
        if not _positive_float(self.learning_rate):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.max_epochs <= 0 or self.batch_size < 1:
            raise ValueError("max_epochs and batch_size must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.clip_norm is not None and not _positive_float(self.clip_norm):
            raise ValueError(f"clip_norm must be positive and finite or null, "
                             f"got {self.clip_norm}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.learning_rate not in GRID_LEARNING_RATES:
            warnings.warn(f"learning_rate {self.learning_rate} outside the usual "
                          f"grid {GRID_LEARNING_RATES}", stacklevel=2)
        if self.dropout not in GRID_DROPOUTS:
            warnings.warn(f"dropout {self.dropout} outside the usual grid "
                          f"{GRID_DROPOUTS}", stacklevel=2)


def stage_seed(base_seed, *labels):
    """Stable per-stage seed from hashing the base seed with stage labels."""
    text = "|".join([str(int(base_seed)), *map(str, labels)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


class Adam:
    """Standard Adam with bias correction, over one flat parameter array.

    ``params`` is updated in place (``KTModel.flat_params``), and ``m`` and
    ``v`` are flat arrays of its shape. A ``frozen`` boolean mask of that
    shape marks elements whose update is skipped entirely, moment
    estimates included, so zero-importance rows stay bit-identical no
    matter how many steps run.
    """

    def __init__(self, params, config):
        self.params = params
        self.lr = float(config.learning_rate)   # a Python float keeps float32 steps in float32
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, grads, frozen=None):
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        g = grads.astype(self.params.dtype, copy=False)
        m, v = self.m, self.v
        if frozen is not None:
            held = m[frozen], v[frozen]
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # update = lr * (m/c1) / (sqrt(v/c2) + eps), each rounded in that order
        tmp = (1.0 - ADAM_BETA1) * g
        m *= ADAM_BETA1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += tmp
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        update = m / c1
        update *= self.lr
        update /= tmp
        if frozen is not None:
            m[frozen], v[frozen] = held
            update[frozen] = 0.0
        self.params -= update


def _grad_norm(grads):
    """L2 norm of a flat gradient, summed in float64 (einsum casts in
    chunks, so no float64 copy of the gradient is made)."""
    return math.sqrt(np.einsum("i,i->", grads, grads, dtype=np.float64))


def clip_gradients(grads, max_norm):
    """Scale a flat gradient in place if its finite L2 norm exceeds ``max_norm``.

    Returns the gradient and its norm before clipping; a non-finite norm
    leaves the gradient as it is, for the caller to reject.
    """
    norm = _grad_norm(grads)
    if norm > max_norm and math.isfinite(norm):
        grads *= grads.dtype.type(max_norm / norm)
    return grads, norm


class EarlyStopper:
    """Best-value tracking with a patience window."""

    def __init__(self, patience):
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = -1

    def update(self, value, epoch):
        """Returns (improved, should_stop)."""
        if value > self.best:
            self.best = value
            self.best_epoch = epoch
            return True, False
        return False, (epoch - self.best_epoch) >= self.patience


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    config: ModelConfig
    vocab: GlobalVocab
    params: OrderedDict
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_model(cls, model, metadata):
        params = model.views(model.flat_params.astype("<f4"))
        return cls(model.config, model.vocab, params, dict(metadata))

    def build_model(self, dtype=np.float32):
        return KTModel.from_arrays(self.config, self.vocab, self.params, dtype=dtype)


def save_checkpoint(ckpt, path):
    """Binary layout: magic, u32 version, u64 header length, JSON header,
    raw little-endian float32 payload, SHA-256 digest of header+payload.

    The header holds ``config`` (no table sizes), ``vocab`` (whose counts
    size the tables), ``metadata`` and ``manifest`` (each array's name,
    shape and offset). It names no file, so the bytes do not depend on
    where the model was trained or saved.
    """
    manifest = []
    offset = 0
    for name, arr in ckpt.params.items():
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += 4 * arr.size
    header_obj = {
        "config": ckpt.config.to_json(),
        "vocab": ckpt.vocab.to_json(),
        "metadata": ckpt.metadata,
        "manifest": manifest,
    }
    header = json.dumps(header_obj, sort_keys=True).encode("utf-8")
    # each array is hashed and written from its own buffer: no payload copy
    digest = hashlib.sha256(header)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for arr in ckpt.params.values():
            raw = np.ascontiguousarray(arr, dtype="<f4")
            digest.update(raw)
            fh.write(raw)
        fh.write(digest.digest())


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise CheckpointTruncatedError(f"{path}: {len(blob)} bytes is too short for a header")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {blob[:4]!r}, "
                                    f"expected {CHECKPOINT_MAGIC!r}")
    if len(blob) < 16:
        raise CheckpointTruncatedError(f"{path}: header fields cut short")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(version, CHECKPOINT_VERSION)
    (header_len,) = struct.unpack("<Q", blob[8:16])
    if len(blob) < 16 + header_len:
        raise CheckpointTruncatedError(f"{path}: header declared {header_len} bytes, "
                                       f"file ends early")
    header = blob[16:16 + header_len]
    try:
        obj = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: unreadable header ({exc})") from None

    try:
        manifest = obj["manifest"]
        sizes = [4 * int(np.prod(m["shape"])) for m in manifest]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _malformed(path, exc) from None
    payload_len = sum(sizes)
    expected = 16 + header_len + payload_len + _DIGEST_LEN
    if len(blob) < expected:
        raise CheckpointTruncatedError(f"{path}: need {expected} bytes, found {len(blob)}")
    if len(blob) > expected:
        raise CheckpointFormatError(f"{path}: {len(blob) - expected} bytes of trailing junk")
    # the header and payload are contiguous in the blob: hash them in place
    digest = hashlib.sha256(memoryview(blob)[16:expected - _DIGEST_LEN]).digest()
    if digest != blob[expected - _DIGEST_LEN:]:
        raise CheckpointDigestError(f"{path}: SHA-256 digest mismatch")

    try:
        config = ModelConfig.from_json(obj["config"])
        config.validate()
        vocab = GlobalVocab.from_json(obj["vocab"])
        metadata = dict(obj["metadata"])
        declared, offset = [], 0
        for name, shape, _ in _parameter_specs(config, vocab):
            # one spec past the manifest tells it short, and bounds the
            # work however many layers the config declares
            if len(declared) > len(manifest):
                break
            declared.append({"name": name, "shape": list(shape), "offset": offset})
            offset += 4 * int(np.prod(shape))
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(path, exc) from None
    if manifest != declared:
        raise CheckpointFormatError(f"{path}: manifest does not list the configured "
                                    "model's parameters in checkpoint order")

    params = OrderedDict()
    # the manifest equals ``declared``, but may spell an int as a bool
    for m, size in zip(declared, sizes):
        raw = np.frombuffer(blob, dtype="<f4", count=size // 4,
                            offset=16 + header_len + m["offset"])
        params[m["name"]] = raw.reshape(m["shape"]).copy()
    return Checkpoint(config, vocab, params, metadata)


def _malformed(path, exc):
    """A missing or mistyped header field, as a CheckpointFormatError."""
    return CheckpointFormatError(f"{path}: malformed header ({exc!r})")


# ---------------------------------------------------------------------------
# the loop


def importance_scale(model, profile):
    """The flat importance scale and freeze mask of a fine-tuning run.

    ``scale`` is laid out like ``model.flat_params``: each gated
    sublayer's elements hold their unit's importance, every other element
    1. ``frozen`` marks the elements of zero-importance units, or is None
    when there are none. ``fit`` builds both once and multiplies each
    step's gradient by ``scale``.
    """
    profile.check_covers(model.gate_widths())
    gated = model.gated_layers()
    scale = np.ones_like(model.flat_params)
    modulate(model.views(scale), profile, gated)
    shapes = {n: t.shape for n, t in model.parameters().items()}
    masks = freeze_masks(profile, gated, shapes)
    if not masks:
        return scale, None
    frozen = np.zeros(scale.shape, dtype=bool)
    views = model.views(frozen)
    for name, mask in masks.items():
        views[name][...] = mask
    return scale, frozen


def fit(model, datasets, config, profile=None, stage="train"):
    """Train ``model`` in place; return its best-validation checkpoint.

    Every epoch ends by scoring each whole valid split (``evaluate``). On
    return the model holds the best parameters, which the checkpoint
    stores as float32. ``stage`` only labels the log and the metadata.
    """
    entries = {(name, idx) for name, idx, _, _ in model.vocab.entries}
    for prepared in datasets:
        if not prepared.splits.train or not prepared.splits.valid:
            raise ValueError(f"dataset {prepared.spec.name!r} needs non-empty "
                             "train and valid splits")
        key = (prepared.spec.name, prepared.spec.dataset_index)
        if key not in entries:
            raise ValueError(f"dataset {key} not in the checkpoint vocabulary; "
                             "adapt the model first")
    scale = frozen = None
    if profile is not None:
        scale, frozen = importance_scale(model, profile)

    adam = Adam(model.flat_params, config)
    drop_rng = np.random.default_rng([config.seed, 0xD0])
    stopper = EarlyStopper(config.patience)
    best_params = model.copy_arrays()
    history = []
    val_history = []
    step = 0
    train_lists = [d.splits.train for d in datasets]
    grads = model.flat_grads
    for epoch in range(config.max_epochs):
        for d_pos, segs in mix_batches(train_lists, config.batch_size,
                                       seed=[config.seed, 0xBA, epoch]):
            model.zero_grad()
            try:
                loss = model.backward_batch(segs, datasets[d_pos].spec.dataset_index,
                                            drop_p=config.dropout, rng=drop_rng)
            except NumericalError as exc:
                raise TrainingDivergedError(epoch, step, history) from exc
            history.append(loss)
            if scale is not None:
                grads *= scale
            if config.clip_norm:
                _, norm = clip_gradients(grads, config.clip_norm)
            else:
                norm = _grad_norm(grads)
            if not math.isfinite(norm):   # before Adam writes any parameter
                raise TrainingDivergedError(epoch, step, history, what="gradient")
            adam.step(grads, frozen=frozen)
            step += 1
        reports = evaluate(model, [(d.spec.name, d.spec.dataset_index, "valid",
                                    d.splits.valid) for d in datasets])
        val_auc = float(np.mean([r.auc for r in reports]))
        val_history.append(val_auc)
        improved, should_stop = stopper.update(val_auc, epoch)
        if improved:
            best_params = model.copy_arrays()
        logger.info("%s epoch %d: train loss %.4f, val AUC %.4f%s",
                    stage, epoch, history[-1], val_auc, " *" if improved else "")
        if should_stop:
            break

    model.flat_params[...] = best_params
    metadata = {
        "stage": stage,
        "seed": config.seed,
        "epochs_run": len(val_history),
        "best_epoch": stopper.best_epoch,
        "best_val_auc": stopper.best,
        "val_auc_history": val_history,
        "final_train_loss": history[-1] if history else None,
    }
    return Checkpoint.from_model(model, metadata)

