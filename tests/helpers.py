"""Shared numerical test utilities and tiny fixtures."""

import hashlib
import json
import struct

import numpy as np
from hypothesis import strategies as st

from kttrace.data import DatasetSpec, StudentSequence, build_vocab
from kttrace.model import KTModel, ModelConfig


def tiny_vocab(nq=12, nk=6, n_datasets=2):
    specs = [DatasetSpec(f"d{i}", i) for i in range(n_datasets)]
    return build_vocab(specs, {f"d{i}": (nq, nk) for i in range(n_datasets)})


def tiny_config(n_layers=1, d_model=4, n_head=2, d_ff=6, max_seq_len=16):
    return ModelConfig(n_layers=n_layers, d_model=d_model, n_head=n_head,
                       d_ff=d_ff, dropout=0.0, max_seq_len=max_seq_len)


def build_tiny(seed=0, dtype=np.float64, **kw):
    vocab = tiny_vocab()
    config = tiny_config(**kw)
    return KTModel.build(config, vocab, seed=seed, dtype=dtype), vocab


def seq_of(student_id, rows, width=None):
    """A StudentSequence from (question, KC tuple, response, timestamp) rows.

    KC sets are right-padded with -1 to ``width`` (default: the largest).
    """
    width = width or max((len(r[1]) for r in rows), default=1)
    column = [np.array([r[i] for r in rows], dtype=np.int64) for i in (0, 2, 3)]
    kcs = np.array([list(r[1]) + [-1] * (width - len(r[1])) for r in rows],
                   dtype=np.int64).reshape(len(rows), width)
    return StudentSequence(student_id, column[0], kcs, column[1], column[2])


def shares_rows(parts):
    """True when some row of these ``pack_rows`` parts holds two or more segments."""
    return sum(len(p.lengths) for p in parts) > sum(p.questions.shape[0] for p in parts)


def hand_sequences():
    s1 = seq_of("a", [
        (0, (0, 2), 1, 0),
        (3, (1,), 0, 60),
        (5, (2, 4), 1, 120),
    ])
    s2 = seq_of("b", [
        (7, (3,), 0, 0),
        (2, (0,), 1, 60),
        (2, (0,), 1, 120),
        (9, (5, 1), 0, 180),
    ])
    return [s1, s2]


def finite_diff(f, arrays, h=1e-5):
    """Central finite differences of a scalar function.

    ``f`` re-evaluates the loss from the current contents of ``arrays``
    (a dict name -> ndarray mutated in place). Arrays must be float64 for
    the differences to be trustworthy.
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            gf[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def max_rel_err(a, b, floor=1e-6):
    """Worst-case elementwise relative error with a small-denominator floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def checkpoint_bytes(header_obj, payload=b""):
    """A checkpoint file of ``header_obj`` and ``payload`` with a valid digest."""
    header = json.dumps(header_obj, sort_keys=True).encode("utf-8")
    return (b"LRKT" + struct.pack("<IQ", 1, len(header)) + header + payload
            + hashlib.sha256(header + payload).digest())


def split_checkpoint(blob):
    """The header object and the payload of a checkpoint file's bytes."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16:16 + header_len]), blob[16 + header_len:-32]


EDIT_CHARS = "0123456789,_-+ \r\nx\u0663"


# (kind, position modulo the text's length + 1, character, 19-digit token)
EDITS = st.tuples(st.sampled_from(["insert", "delete", "replace", "long token"]),
                  st.integers(0, 10**6), st.sampled_from(EDIT_CHARS),
                  st.integers(10**18, 10**19 - 1))


def apply_edit(text, edit):
    """``text`` with one character inserted, deleted or replaced, or a
    19-digit token inserted, as an ``EDITS`` draw says."""
    kind, at, char, token = edit
    at %= len(text) + 1
    new = {"insert": char, "delete": "", "replace": char, "long token": str(token)}[kind]
    return text[:at] + new + text[at + (kind in ("delete", "replace")):]
