"""Decoder-only knowledge-tracing model.

Each interaction step is encoded as a sum of six embedding families
(question, KC-set mean, response, data type, dataset, position) and fed
through a pre-layer-norm stack of causal transformer decoder blocks. The
hidden state at step j, summed with step j+1's question, KC and type
embeddings (the same sum the step encoding starts from), drives a
two-layer head that predicts the probability of a correct response at
step j+1.

Every block exposes three gate attachment points (attention output,
feed-forward expansion, feed-forward projection) for importance probing.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import pack_rows

INIT_STD = 0.02

# name -> (n_layers, d_model, n_head, d_ff)
PRESETS = {
    "base-89M": (4, 256, 8, 256),
    "base-221M": (24, 512, 16, 1024),
    "base-478M": (24, 1024, 16, 1024),
    "base-1.01B": (32, 1536, 24, 2560),
}

@dataclass
class ModelConfig:
    n_layers: int
    d_model: int
    n_head: int
    d_ff: int
    dropout: float = 0.1
    max_seq_len: int = 200

    def validate(self):
        # bool is an int subclass, but no size is a flag
        for name in ("n_layers", "d_model", "n_head", "d_ff", "max_seq_len"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if self.d_model % self.n_head != 0:
            raise ValueError(
                f"d_model {self.d_model} must be divisible by n_head {self.n_head}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @classmethod
    def from_preset(cls, name, **overrides):
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        n_layers, d_model, n_head, d_ff = PRESETS[name]
        return cls(n_layers=n_layers, d_model=d_model, n_head=n_head, d_ff=d_ff,
                   **overrides)

    def to_json(self):
        return {k: getattr(self, k) for k in (
            "n_layers", "d_model", "n_head", "d_ff", "dropout", "max_seq_len")}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise TypeError(f"model config must be an object, got {type(obj).__name__}")
        # older headers also copied the vocabulary's three counts here
        return cls(**{k: v for k, v in obj.items()
                      if k not in ("n_questions", "n_kcs", "n_datasets")})


def _parameter_specs(config, vocab):
    """Yield the declared (name, shape, kind) triples in checkpoint order."""
    d, f = config.d_model, config.d_ff
    yield from [
        ("emb.question", (vocab.n_question_rows, d), "weight"),
        ("emb.kc", (vocab.n_kc_rows, d), "weight"),
        ("emb.response", (2, d), "weight"),
        ("emb.type", (2, d), "weight"),
        ("emb.dataset", (vocab.n_datasets, d), "weight"),
        ("emb.position", (config.max_seq_len, d), "weight"),
    ]
    for i in range(config.n_layers):
        yield from [
            (f"block{i}.ln1.gain", (d,), "gain"),
            (f"block{i}.ln1.bias", (d,), "bias"),
            (f"block{i}.attn.wq", (d, d), "weight"),
            (f"block{i}.attn.bq", (d,), "bias"),
            (f"block{i}.attn.wk", (d, d), "weight"),
            (f"block{i}.attn.wv", (d, d), "weight"),
            (f"block{i}.attn.bv", (d,), "bias"),
            (f"block{i}.attn.wo", (d, d), "weight"),
            (f"block{i}.attn.bo", (d,), "bias"),
            (f"block{i}.ln2.gain", (d,), "gain"),
            (f"block{i}.ln2.bias", (d,), "bias"),
            (f"block{i}.inter.w", (f, d), "weight"),
            (f"block{i}.inter.b", (f,), "bias"),
            (f"block{i}.output.w", (d, f), "weight"),
            (f"block{i}.output.b", (d,), "bias"),
        ]
    yield from [
        ("final_ln.gain", (d,), "gain"),
        ("final_ln.bias", (d,), "bias"),
        ("head.w1", (f, d), "weight"),
        ("head.b1", (f,), "bias"),
        ("head.w2", (1, f), "weight"),
        ("head.b2", (1,), "bias"),
    ]


def parameter_count(config, vocab):
    """Trainable parameter total from the declared shapes, no allocation."""
    return sum(int(np.prod(shape)) for _, shape, _ in _parameter_specs(config, vocab))


class KTModel:
    """A built model: config, vocabulary, and named parameter tensors.

    Every parameter value lives in one flat array, ``flat_params``, in
    ``_parameter_specs`` order and the model's dtype, and every gradient
    in a second, ``flat_grads``. Each parameter ``Tensor``'s ``.data`` and
    ``.grad`` are views into them (``views``), so the backward pass fills
    the flat gradient directly and the optimizer, clipping, importance
    scaling and parameter copies each act on a whole buffer at once.
    """

    def __init__(self, config, vocab, flat_params):
        config.validate()
        self.config = config
        self.vocab = vocab
        self._shapes = [(name, shape) for name, shape, _ in _parameter_specs(config, vocab)]
        self.flat_params = flat_params
        self.flat_grads = np.zeros_like(flat_params)
        self.dtype = flat_params.dtype
        self._params = OrderedDict()
        for (name, data), grad in zip(self.views(flat_params).items(),
                                      self.views(self.flat_grads).values()):
            self._params[name] = Tensor(data, requires_grad=True, name=name, grad=grad)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, config, vocab, seed, dtype=np.float32):
        """Initialize all weights from N(0, 0.02); biases zero, norm gains one."""
        rng = np.random.default_rng(seed)
        model = cls(config, vocab, np.zeros(parameter_count(config, vocab), dtype=dtype))
        for name, shape, kind in _parameter_specs(config, vocab):
            if kind == "weight":
                model.param(name).data[...] = rng.normal(0.0, INIT_STD, shape)
            elif kind == "gain":
                model.param(name).data[...] = 1.0
        return model

    # -- introspection ------------------------------------------------------

    def parameters(self):
        return self._params

    def param(self, name):
        return self._params[name]

    @property
    def n_params(self):
        return self.flat_params.size

    def views(self, flat):
        """Name -> view of ``flat``, an array laid out like ``flat_params``."""
        out = OrderedDict()
        start = 0
        for name, shape in self._shapes:
            size = math.prod(shape)
            out[name] = flat[start:start + size].reshape(shape)
            start += size
        return out

    def zero_grad(self):
        self.flat_grads.fill(0)

    def copy_arrays(self):
        """A copy of every parameter value, as one flat array (see ``views``)."""
        return self.flat_params.copy()

    def gated_layers(self):
        """Map (block, sublayer kind) -> names of that sublayer's parameters."""
        out = OrderedDict()
        for i in range(self.config.n_layers):
            out[(i, "attention")] = [f"block{i}.attn.{p}" for p in
                                     ("wq", "bq", "wk", "wv", "bv", "wo", "bo")]
            out[(i, "intermediate")] = [f"block{i}.inter.w", f"block{i}.inter.b"]
            out[(i, "output")] = [f"block{i}.output.w", f"block{i}.output.b"]
        return out

    def gate_widths(self):
        """Map (block, sublayer kind) -> units its gate multiplies: the
        length of the sublayer's output bias, the last of its parameters."""
        return OrderedDict((lid, self._params[names[-1]].shape[0])
                           for lid, names in self.gated_layers().items())

    def make_gates(self):
        """All-ones gate leaves, one per gated sublayer; only their grads are read."""
        return OrderedDict(
            (lid, Tensor(np.ones(w, dtype=self.dtype), requires_grad=True,
                         name=f"gate.{lid[0]}.{lid[1]}"))
            for lid, w in self.gate_widths().items())

    # -- forward ------------------------------------------------------------

    def encode_steps(self, batch):
        """Step vectors and head queries, both [R, W, d_model].

        The question, KC-mean and two data-type embeddings are summed once.
        A step vector adds the response, dataset and position embeddings to
        that sum, the position being the step within its segment; the query
        at step t is the sum at step t+1, zero where ``batch.pred_mask`` is
        0, so no query reads across a segment boundary.
        """
        longest = int(batch.lengths.max())
        if longest > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {longest} exceeds max_seq_len {self.config.max_seq_len}")
        P = self._params
        type_q = ag.embedding_lookup(P["emb.type"], np.array([[0]]))
        type_c = ag.embedding_lookup(P["emb.type"], np.array([[1]]))
        shared = ag.add(ag.embedding_lookup(P["emb.question"], batch.questions), type_q)
        # each real KC row is scaled by K/|KC set|, so the mean over K is the set's mean
        kc = ag.embedding_lookup(P["emb.kc"], batch.kcs, batch.kc_weight)
        kc = ag.mean_over_axis(kc, 2)
        shared = ag.add(ag.add(shared, kc), type_c)
        enc = ag.add(shared, ag.embedding_lookup(P["emb.response"], batch.responses))
        enc = ag.add(enc, ag.embedding_lookup(
            P["emb.dataset"], np.array([[batch.dataset_index]])))
        enc = ag.add(enc, ag.embedding_lookup(P["emb.position"], batch.positions))
        return enc, ag.mul(ag.next_step(shared), Tensor(batch.pred_mask))

    def _linear(self, x, w, b):
        return ag.add(ag.matmul(x, self._params[w], transpose_b=True), self._params[b])

    def forward_batch(self, batch, gates=None, drop_p=0.0, rng=None):
        """Predicted next-response probabilities, shape [R, W, 1].

        Each segment of a row is predicted as if it were alone: it attends
        only to its own earlier steps (``batch.starts``). Position t
        carries the prediction for the segment's next interaction;
        ``batch.pred_mask`` marks which of those are real. ``gates``, when
        given, multiplies each sublayer output by its all-ones gate so the
        tape captures per-unit gradients. ``drop_p`` above 0 applies
        dropout to each sublayer output with masks drawn from ``rng``
        (training); at 0, the default, the pass is deterministic.
        """
        P = self._params
        h, query = self.encode_steps(batch)
        mask = ag.segment_mask(batch.starts, self.dtype)   # one per packed part, for every block
        for i in range(self.config.n_layers):
            z = ag.layer_norm(h, P[f"block{i}.ln1.gain"], P[f"block{i}.ln1.bias"])
            q = self._linear(z, f"block{i}.attn.wq", f"block{i}.attn.bq")
            # no key bias: q.bk shifts a whole score row, which softmax cancels
            k = ag.matmul(z, P[f"block{i}.attn.wk"], transpose_b=True)
            v = self._linear(z, f"block{i}.attn.wv", f"block{i}.attn.bv")
            a = ag.causal_attention(q, k, v, self.config.n_head, mask)
            a = self._linear(a, f"block{i}.attn.wo", f"block{i}.attn.bo")
            if gates is not None:
                a = ag.gate_apply(a, gates[(i, "attention")])
            a = ag.dropout(a, drop_p, rng)
            h = ag.add(h, a)

            z2 = ag.layer_norm(h, P[f"block{i}.ln2.gain"], P[f"block{i}.ln2.bias"])
            inter = ag.sigmoid(self._linear(z2, f"block{i}.inter.w", f"block{i}.inter.b"))
            if gates is not None:
                inter = ag.gate_apply(inter, gates[(i, "intermediate")])
            out = self._linear(inter, f"block{i}.output.w", f"block{i}.output.b")
            if gates is not None:
                out = ag.gate_apply(out, gates[(i, "output")])
            out = ag.dropout(out, drop_p, rng)
            h = ag.add(h, out)

        h = ag.layer_norm(h, P["final_ln.gain"], P["final_ln.bias"])
        s = ag.add(h, query)
        hid = ag.sigmoid(self._linear(s, "head.w1", "head.b1"))
        logit = self._linear(hid, "head.w2", "head.b2")
        return ag.sigmoid(logit)

    def backward_batch(self, segments, dataset_index, gates=None, drop_p=0.0, rng=None):
        """Backpropagate one batch's masked BCE; return its loss.

        Each ``pack_rows`` part runs on its own tape with its loss divided
        by the whole batch's scored steps, so the parts' losses and
        gradients add up to the batch's; a batch within ``TAPE_CELLS`` is
        one part, one forward. Gradients are added into the ``.grad`` of
        the parameters and ``gates``; nothing is zeroed first.
        """
        parts = pack_rows(segments, self.vocab, dataset_index, self.dtype)
        scored = sum(int(part.pred_mask.sum()) for part in parts)
        loss = 0.0
        for part in parts:
            with ag.Tape() as tape:
                probs = self.forward_batch(part, gates=gates, drop_p=drop_p, rng=rng)
                part_loss = ag.bce_loss(probs, part.targets, part.pred_mask, total=scored)
            tape.backward(part_loss)
            loss += part_loss.item()
            del probs, part_loss   # each holds this part's graph through .node
        return loss

    def predict_batch(self, batch):
        """Eval-mode forward outside any tape; returns a plain [B, T] array."""
        probs = self.forward_batch(batch)
        return probs.data[..., 0]


def zero_shot_adapt(model, name, n_questions, n_kcs, seed, noise_std=0.01):
    """Extend a pre-trained model's vocabularies to an unseen dataset.

    New question/KC rows start at the mean of the trained real rows plus
    N(0, noise_std); the new dataset embedding starts at the mean of the
    trained dataset embeddings. Decoder weights are untouched, so the
    adapted model is usable for zero-shot evaluation immediately.
    """
    old_vocab = model.vocab
    new_vocab = old_vocab.extended(name, n_questions, n_kcs)
    rng = np.random.default_rng(seed)
    dtype = model.dtype

    def grow_table(table, n_real_old, n_new):
        real = table[:n_real_old]
        unks = table[n_real_old:]
        mean = real.mean(axis=0, keepdims=True)
        fresh = mean + rng.normal(0.0, noise_std, (n_new + 1, table.shape[1]))
        fresh = fresh.astype(dtype)
        # layout: old real rows | new real rows | old UNK rows | new UNK row
        return np.concatenate([real, fresh[:n_new], unks, fresh[n_new:]], axis=0)

    adapted = KTModel(model.config, new_vocab,
                      np.empty(parameter_count(model.config, new_vocab), dtype=dtype))
    for (pname, t), target in zip(model.parameters().items(),
                                  adapted.views(adapted.flat_params).values()):
        if pname == "emb.question":
            target[...] = grow_table(t.data, old_vocab.total_questions, n_questions)
        elif pname == "emb.kc":
            target[...] = grow_table(t.data, old_vocab.total_kcs, n_kcs)
        elif pname == "emb.dataset":
            target[...] = np.concatenate([t.data, t.data.mean(axis=0, keepdims=True)], axis=0)
        else:
            target[...] = t.data
    return adapted
