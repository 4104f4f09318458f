"""Per-layer unit importance from virtual gate gradients.

An all-ones gate is multiplied into each sublayer's output; the average
absolute gradient of the training loss (``KTModel.backward_batch``, as in
training) with respect to the gate, taken over the target dataset, scores
how much each output unit matters there.
During fine-tuning the score vector is broadcast over each associated
parameter and multiplied into its gradient. Adam divides each step by
the gradient's running RMS, so a constant factor c on a unit's gradient
cancels wherever c·|g| is well above Adam's epsilon (1e-8): a small
nonzero score barely changes how far the unit moves. Only an exact zero
freezes a unit.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import in_batches

_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass
class LayerImportance:
    block: int
    kind: str
    values: np.ndarray

    @property
    def layer_id(self):
        return (self.block, self.kind)


def _field(obj, key, expected):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"importance profile: missing {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ValueError(f"importance profile: {key!r} must be {expected.__name__}, "
                         f"got {type(value).__name__}")
    return value


@dataclass
class ImportanceProfile:
    """One importance vector per gated sublayer of every block."""

    dataset: str
    n_samples: int
    layers: dict = field(default_factory=dict)

    def add(self, imp):
        self.layers[imp.layer_id] = imp

    def check_covers(self, widths):
        """Raise ValueError unless the profile fits a model's gated sublayers.

        ``widths`` maps (block, kind) -> unit count, as returned by
        ``KTModel.gate_widths``. The profile must hold exactly those
        layers, each a vector of that width with finite, non-negative
        values. This is the only place a profile is checked: ``fit`` calls
        it before the first training step, ``compute_importance`` on the
        profile it builds.
        """
        missing = [lid for lid in widths if lid not in self.layers]
        if missing:
            raise ValueError(f"profile for {self.dataset!r} is missing gated "
                             f"layers: {missing}")
        extra = [lid for lid in self.layers if lid not in widths]
        if extra:
            raise ValueError(f"profile for {self.dataset!r} has unknown layers: {extra}")
        for lid, width in widths.items():
            values = self.layers[lid].values
            if values.shape != (width,):
                raise ValueError(f"profile layer {lid} has shape {values.shape}, "
                                 f"the model needs ({width},)")
            if not (np.isfinite(values).all() and (values >= 0).all()):
                raise ValueError(f"profile layer {lid} has negative or non-finite values")

    def to_json(self):
        return {
            "dataset": self.dataset,
            "n_samples": self.n_samples,
            "layers": [
                {"block": imp.block, "kind": imp.kind,
                 "values": [float(v) for v in imp.values]}
                for imp in (self.layers[k] for k in sorted(self.layers))
            ],
        }

    @classmethod
    def from_json(cls, obj):
        """Parse a profile document; a missing key or a wrong type is a ValueError."""
        profile = cls(dataset=_field(obj, "dataset", str),
                      n_samples=_field(obj, "n_samples", int))
        for entry in _field(obj, "layers", list):
            values = np.asarray(_field(entry, "values", list))
            if values.dtype.kind not in "iuf":
                raise ValueError("importance profile: 'values' must hold numbers")
            values = values.astype(np.float64)
            if not ((values >= 0) & (values <= _FLOAT32_MAX)).all():   # NaN fails too
                raise ValueError("importance profile: 'values' must lie in float32's "
                                 f"finite non-negative range [0, {_FLOAT32_MAX:.8g}]")
            imp = LayerImportance(_field(entry, "block", int), _field(entry, "kind", str),
                                  values.astype(np.float32))
            if imp.layer_id in profile.layers:
                raise ValueError(f"importance profile: layer {imp.layer_id} given twice")
            profile.add(imp)
        return profile

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def constant_profile(model, value, dataset="synthetic"):
    """All-``value`` profile covering every gated sublayer (testing aid)."""
    profile = ImportanceProfile(dataset=dataset, n_samples=0)
    for (block, kind), width in model.gate_widths().items():
        profile.add(LayerImportance(block, kind, np.full(width, value, dtype=np.float32)))
    return profile


def compute_importance(model, prepared, batch_size=1, normalize=True):
    """Average absolute gate gradients over a prepared dataset's train split.

    The model runs in eval mode with all-ones gates attached; per
    ``in_batches`` run, ``backward_batch`` yields |d loss / d gate|.
    The accumulated sum is divided by the number of training sequences
    (each batch of one sequence contributes exactly one per-sample term;
    larger batches trade fidelity for speed). Only the gates get
    gradients: parameters stop requiring them for the loop, so their
    ``.grad`` is left as it was and no weight gradient is computed.
    With ``normalize``, each layer is divided by its own max so the
    strongest unit scores 1.
    """
    segments = prepared.splits.train
    if not segments:
        raise ValueError(f"dataset {prepared.spec.name!r} has no training sequences")
    gates = model.make_gates()
    acc = {lid: np.zeros(g.shape[-1], dtype=model.dtype) for lid, g in gates.items()}
    n = len(segments)
    params = list(model.parameters().values())
    wanted = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        for batch in in_batches(segments, batch_size):
            model.backward_batch(batch, prepared.spec.dataset_index, gates=gates)
            for lid, gate in gates.items():
                acc[lid] += np.abs(gate.grad)
                gate.zero_grad()
    finally:
        for p, flag in zip(params, wanted):
            p.requires_grad = flag

    profile = ImportanceProfile(dataset=prepared.spec.name, n_samples=n)
    for (block, kind), total in acc.items():
        values = total / n
        if normalize:
            vmax = values.max()
            if vmax > 0:
                values = values / vmax
        profile.add(LayerImportance(block, kind, values))
    profile.check_covers(model.gate_widths())
    if all(imp.values.max() == 0 for imp in profile.layers.values()):
        warnings.warn(f"all importance values are zero for {prepared.spec.name!r}; "
                      "the model output is insensitive to every gated unit",
                      RuntimeWarning)
    return profile


def expand_importance(values, shape):
    """Broadcast a per-unit vector to a parameter's gradient shape.

    Weight matrices are stored [out, in]; row i takes values[i]. Biases
    take the vector itself. The result is a read-only view, not a copy;
    widths are checked once, by ``ImportanceProfile.check_covers``.
    """
    return np.broadcast_to(values if len(shape) == 1 else values[:, None], shape)


def modulate(gradients, profile, gated_layers):
    """Multiply gated-sublayer gradients, in place, by broadcast importance.

    ``gradients`` maps parameter names to writable arrays, and
    ``gated_layers`` maps (block, kind) -> parameter names, as produced by
    ``KTModel.gated_layers``. Arrays of parameters outside the gated
    sublayers (embeddings, layer norms, prediction head) are left as they
    are. Returns ``gradients``. ``fit`` applies it once, to the views of a
    flat array of ones, and multiplies each step's flat gradient by the
    result; only the backward side changes, never the forward pass.
    """
    for layer_id, names in gated_layers.items():
        values = profile.layers[layer_id].values
        for name in names:
            grad = gradients[name]
            grad *= expand_importance(values.astype(grad.dtype, copy=False), grad.shape)
    return gradients


def freeze_masks(profile, gated_layers, shapes):
    """Boolean per-element masks marking zero-importance rows.

    Used by the optimizer to skip the update entirely where the expanded
    mask row is zero, so zero-importance units stay bit-identical.
    """
    masks = {}
    for layer_id, names in gated_layers.items():
        values = profile.layers[layer_id].values
        if not (values == 0).any():
            continue
        for name in names:
            masks[name] = expand_importance(values, shapes[name]) == 0
    return masks
