"""Independent straight-line re-implementations used as test oracles.

Everything here is deliberately written as plain Python loops over
scalars, sharing no code with the library's vectorized forward/backward
paths.
"""

import math
import re

import numpy as np

from kttrace.data import DataFormatError, PackedBatch, pack_segments

PROB_CLAMP = 1e-7


def _ln(x, gain, bias, eps=1e-5):
    width = len(x)
    mu = sum(x) / width
    var = sum((v - mu) ** 2 for v in x) / width
    inv = 1.0 / math.sqrt(var + eps)
    return [(x[d] - mu) * inv * gain[d] + bias[d] for d in range(width)]


def _ln_backward(dy, x, gain, eps=1e-5):
    width = len(x)
    mu = sum(x) / width
    var = sum((v - mu) ** 2 for v in x) / width
    inv = 1.0 / math.sqrt(var + eps)
    xhat = [(x[d] - mu) * inv for d in range(width)]
    dxhat = [dy[d] * gain[d] for d in range(width)]
    m1 = sum(dxhat) / width
    m2 = sum(dxhat[d] * xhat[d] for d in range(width)) / width
    return [inv * (dxhat[d] - m1 - xhat[d] * m2) for d in range(width)]


def _linear(x, w, b):
    return [sum(w[i][j] * x[j] for j in range(len(x))) + b[i] for i in range(len(b))]


def _sigmoid_vec(x):
    return [1.0 / (1.0 + math.exp(-v)) for v in x]


def _step_vec(P, batch, D, b, t):
    vec = list(P["emb.question"][batch.questions[b, t]])
    for d in range(D):
        vec[d] += P["emb.type"][0][d] + P["emb.type"][1][d]
    real = [k for k in range(batch.kcs.shape[2]) if batch.kc_weight[b, t, k] > 0]
    if real:
        for d in range(D):
            vec[d] += sum(P["emb.kc"][batch.kcs[b, t, k]][d] for k in real) / len(real)
    for d in range(D):
        vec[d] += (P["emb.response"][batch.responses[b, t]][d]
                   + P["emb.dataset"][batch.dataset_index][d]
                   + P["emb.position"][batch.positions[b, t]][d])
    return vec


def _query_vec(P, batch, D, b, t):
    """The next step's question, type and KC terms; zero where unscored."""
    if batch.pred_mask[b, t, 0] == 0:
        return [0.0] * D
    vec = list(P["emb.question"][batch.questions[b, t + 1]])
    for d in range(D):
        vec[d] += P["emb.type"][0][d] + P["emb.type"][1][d]
    real = [k for k in range(batch.kcs.shape[2]) if batch.kc_weight[b, t + 1, k] > 0]
    if real:
        for d in range(D):
            vec[d] += sum(P["emb.kc"][batch.kcs[b, t + 1, k]][d] for k in real) / len(real)
    return vec


def _attention(P, prefix, z, D, H, starts=None):
    """Each step t attends to steps ``starts[t]`` to t (default 0 to t)."""
    T = len(z)
    starts = [0] * T if starts is None else starts
    dh = D // H
    qp = [_linear(z[t], P[f"{prefix}.wq"], P[f"{prefix}.bq"]) for t in range(T)]
    kp = [_linear(z[t], P[f"{prefix}.wk"], [0.0] * D) for t in range(T)]  # keys: no bias
    vp = [_linear(z[t], P[f"{prefix}.wv"], P[f"{prefix}.bv"]) for t in range(T)]
    ctx = [[0.0] * D for _ in range(T)]
    for head in range(H):
        lo = head * dh
        for t in range(T):
            keys = range(starts[t], t + 1)
            scores = [sum(qp[t][lo + e] * kp[u][lo + e] for e in range(dh))
                      / math.sqrt(dh) for u in keys]
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            tot = sum(exps)
            for e in range(dh):
                ctx[t][lo + e] = sum(x / tot * vp[u][lo + e] for x, u in zip(exps, keys))
    return [_linear(ctx[t], P[f"{prefix}.wo"], P[f"{prefix}.bo"]) for t in range(T)]


def oracle_forward(model, batch):
    """Scalar-loop replay of the forward equations, one position at a time.

    Each position attends from its run's first column (``batch.starts``)
    and adds the position embedding of its step (``batch.positions``), so
    segments that share a row are replayed as if each were alone.
    """
    P = {k: v.data.tolist() for k, v in model.parameters().items()}
    cfg = model.config
    B, T = batch.questions.shape
    D, H = cfg.d_model, cfg.n_head
    probs = np.zeros((B, T))
    for b in range(B):
        h = [_step_vec(P, batch, D, b, t) for t in range(T)]
        for i in range(cfg.n_layers):
            z = [_ln(h[t], P[f"block{i}.ln1.gain"], P[f"block{i}.ln1.bias"])
                 for t in range(T)]
            a = _attention(P, f"block{i}.attn", z, D, H, batch.starts[b].tolist())
            h = [[h[t][d] + a[t][d] for d in range(D)] for t in range(T)]
            z2 = [_ln(h[t], P[f"block{i}.ln2.gain"], P[f"block{i}.ln2.bias"])
                  for t in range(T)]
            inter = [_sigmoid_vec(_linear(z2[t], P[f"block{i}.inter.w"],
                                          P[f"block{i}.inter.b"])) for t in range(T)]
            out = [_linear(inter[t], P[f"block{i}.output.w"], P[f"block{i}.output.b"])
                   for t in range(T)]
            h = [[h[t][d] + out[t][d] for d in range(D)] for t in range(T)]
        h = [_ln(h[t], P["final_ln.gain"], P["final_ln.bias"]) for t in range(T)]
        for t in range(T):
            q = _query_vec(P, batch, D, b, t)
            s = [h[t][d] + q[d] for d in range(D)]
            hid = _sigmoid_vec(_linear(s, P["head.w1"], P["head.b1"]))
            logit = _linear(hid, P["head.w2"], P["head.b2"])[0]
            probs[b, t] = 1.0 / (1.0 + math.exp(-logit))
    return probs


def oracle_gate_gradients(model, sequences, dataset_index):
    """Hand-differentiated per-layer gate gradients for a 1-block model.

    For each sequence (one sample, masked-mean BCE loss) the chain from
    the loss back to the three gate attachment points is written out line
    by line; the return value is the per-gate average of the absolute
    gradients over all sequences, i.e. the raw (unnormalized) importance.
    """
    assert model.config.n_layers == 1, "hand derivation covers one block"
    cfg = model.config
    D, H, F = cfg.d_model, cfg.n_head, cfg.d_ff
    P = {k: v.data.tolist() for k, v in model.parameters().items()}
    acc = {"attention": np.zeros(D), "intermediate": np.zeros(F), "output": np.zeros(D)}

    for seq in sequences:
        batch = pack_segments([seq], model.vocab, dataset_index, dtype=np.float64)
        T = batch.questions.shape[1]

        # forward, keeping every intermediate needed on the way back
        x = [_step_vec(P, batch, D, 0, t) for t in range(T)]
        z = [_ln(x[t], P["block0.ln1.gain"], P["block0.ln1.bias"]) for t in range(T)]
        o_attn = _attention(P, "block0.attn", z, D, H)
        h1 = [[x[t][d] + o_attn[t][d] for d in range(D)] for t in range(T)]
        z2 = [_ln(h1[t], P["block0.ln2.gain"], P["block0.ln2.bias"]) for t in range(T)]
        inter = [_sigmoid_vec(_linear(z2[t], P["block0.inter.w"], P["block0.inter.b"]))
                 for t in range(T)]
        o_out = [_linear(inter[t], P["block0.output.w"], P["block0.output.b"])
                 for t in range(T)]
        h2 = [[h1[t][d] + o_out[t][d] for d in range(D)] for t in range(T)]
        hf = [_ln(h2[t], P["final_ln.gain"], P["final_ln.bias"]) for t in range(T)]
        s = [[hf[t][d] + _query_vec(P, batch, D, 0, t)[d] for d in range(D)]
             for t in range(T)]
        hid = [_sigmoid_vec(_linear(s[t], P["head.w1"], P["head.b1"])) for t in range(T)]
        probs = []
        for t in range(T):
            logit = _linear(hid[t], P["head.w2"], P["head.b2"])[0]
            probs.append(1.0 / (1.0 + math.exp(-logit)))

        mask = batch.pred_mask[0, :, 0]
        targets = batch.targets[0, :, 0]
        m_total = float(mask.sum())

        g_attn = np.zeros(D)
        g_inter = np.zeros(F)
        g_out = np.zeros(D)
        for t in range(T):
            if mask[t] == 0:
                continue
            p = probs[t]
            pc = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
            dp = (pc - targets[t]) / (pc * (1.0 - pc)) / m_total
            dlogit = dp * p * (1.0 - p)
            dhid = [dlogit * P["head.w2"][0][f] for f in range(F)]
            dpre1 = [dhid[f] * hid[t][f] * (1.0 - hid[t][f]) for f in range(F)]
            ds = [sum(dpre1[f] * P["head.w1"][f][d] for f in range(F)) for d in range(D)]
            dh2 = _ln_backward(ds, h2[t], P["final_ln.gain"])
            # output-layer gate sits on o_out; h2 = h1 + gate*o_out
            for d in range(D):
                g_out[d] += dh2[d] * o_out[t][d]
            dinter = [sum(dh2[d] * P["block0.output.w"][d][f] for d in range(D))
                      for f in range(F)]
            for f in range(F):
                g_inter[f] += dinter[f] * inter[t][f]
            dpre2 = [dinter[f] * inter[t][f] * (1.0 - inter[t][f]) for f in range(F)]
            dz2 = [sum(dpre2[f] * P["block0.inter.w"][f][d] for f in range(F))
                   for d in range(D)]
            dh1_ffn = _ln_backward(dz2, h1[t], P["block0.ln2.gain"])
            dh1 = [dh2[d] + dh1_ffn[d] for d in range(D)]
            # attention gate sits on o_attn; h1 = x + gate*o_attn
            for d in range(D):
                g_attn[d] += dh1[d] * o_attn[t][d]

        acc["attention"] += np.abs(g_attn)
        acc["intermediate"] += np.abs(g_inter)
        acc["output"] += np.abs(g_out)

    n = len(sequences)
    return {(0, kind): vec / n for kind, vec in acc.items()}


def embedding_backward(n_rows, ids, g):
    """Gradient of a row gather: each row of ``g`` added to the table row
    its id names, one at a time in index order (``np.add.at`` is unbuffered,
    so repeated ids accumulate)."""
    grad = np.zeros((n_rows, g.shape[-1]), dtype=g.dtype)
    np.add.at(grad, np.asarray(ids).reshape(-1), g.reshape(-1, g.shape[-1]))
    return grad


class PerTensorAdam:
    """Adam as one loop over named arrays, the optimizer ``train.Adam``
    replaced with one pass over a flat buffer.

    ``params`` maps names to arrays that ``step`` updates in place;
    ``frozen`` maps some names to boolean masks of elements that keep
    their value and moments.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {n: np.zeros_like(p) for n, p in params.items()}
        self.v = {n: np.zeros_like(p) for n, p in params.items()}
        self.t = 0

    def step(self, grads, frozen=None):
        b1, b2 = self.beta1, self.beta2
        self.t += 1
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = grads[name].astype(p.dtype, copy=False)
            new_m = b1 * self.m[name] + (1.0 - b1) * g
            new_v = b2 * self.v[name] + (1.0 - b2) * (g * g)
            update = self.lr * (new_m / c1) / (np.sqrt(new_v / c2) + self.eps)
            if frozen is not None and name in frozen:
                hold = frozen[name]
                new_m = np.where(hold, self.m[name], new_m)
                new_v = np.where(hold, self.v[name], new_v)
                update = np.where(hold, 0.0, update)
            self.m[name] = new_m
            self.v[name] = new_v
            p -= update


def per_tensor_clip(grads, max_norm):
    """Global-norm clipping over named arrays, one tensor at a time.

    Returns new arrays (or ``grads`` itself when the norm is within
    ``max_norm``) and the norm before clipping.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = np.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / norm
    return {n: g * g.dtype.type(scale) for n, g in grads.items()}, norm


def pairwise_auc(probs, labels):
    """Brute-force O(n^2) AUC: count wins and halved ties directly."""
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    p = probs[labels == 1]
    q = probs[labels == 0]
    if len(p) == 0 or len(q) == 0:
        raise ValueError("AUC undefined: need both classes")
    wins = (p[:, None] > q[None, :]).sum()
    ties = (p[:, None] == q[None, :]).sum()
    return float((wins + ties / 2.0) / (len(p) * len(q)))


def oracle_pack(segments, vocab, dataset_index, dtype=np.float32):
    """``pack_segments`` one interaction and one KC at a time.

    IDs are translated by scalar offset arithmetic; an ID outside its
    dataset's range, and every padded cell, takes the dataset's UNK row.
    """
    def to_global(local, offsets, size, unk):
        return offsets[dataset_index] + local if 0 <= local < size else unk

    _, _, nq, nk = vocab.entries[dataset_index]
    pad_q = vocab.total_questions + dataset_index
    pad_c = vocab.total_kcs + dataset_index
    kc_sets = [[[int(c) for c in row if c >= 0] for row in seq.kcs] for seq in segments]
    B = len(segments)
    T = max(len(s) for s in segments)
    K = max(len(kc) for sets in kc_sets for kc in sets)

    questions = np.full((B, T), pad_q, dtype=np.int64)
    kcs = np.full((B, T, K), pad_c, dtype=np.int64)
    kc_weight = np.zeros((B, T, K), dtype=dtype)
    responses = np.zeros((B, T), dtype=np.int64)
    lengths = np.zeros(B, dtype=np.int64)
    for b, seq in enumerate(segments):
        lengths[b] = len(seq)
        for t in range(len(seq)):
            questions[b, t] = to_global(int(seq.questions[t]), vocab.q_offsets, nq, pad_q)
            for k, c in enumerate(kc_sets[b][t]):
                kcs[b, t, k] = to_global(c, vocab.kc_offsets, nk, pad_c)
                kc_weight[b, t, k] = K / len(kc_sets[b][t])
            responses[b, t] = int(seq.responses[t])

    # one segment per row: steps 0..L-1, then a padding run from column L
    targets = np.zeros((B, T, 1), dtype=dtype)
    pred_mask = np.zeros((B, T, 1), dtype=dtype)
    positions = np.zeros((B, T), dtype=np.int64)
    starts = np.zeros((B, T), dtype=np.int64)
    for b in range(B):
        for t in range(T):
            if t < lengths[b]:
                positions[b, t] = t
            else:
                starts[b, t] = lengths[b]
            if t < lengths[b] - 1:
                targets[b, t, 0] = responses[b, t + 1]
                pred_mask[b, t, 0] = 1.0
    return PackedBatch(dataset_index, questions, kcs, kc_weight, responses, targets,
                       pred_mask, lengths, positions, starts)


def oracle_simulate(theta, difficulty, question_kcs, n_kcs, learning_rate, mean_seq_len, rng):
    """``simulate_sequences`` one step at a time: (questions, responses,
    probabilities) per student, drawing from ``rng`` in the same order."""
    out = []
    for s in range(len(theta)):
        length = max(3, int(rng.geometric(1.0 / mean_seq_len)))
        qs = rng.integers(0, len(difficulty), size=length)
        exposure = [0] * n_kcs
        responses, probs = [], []
        for q in qs.tolist():
            seen = sum(exposure[c] for c in question_kcs[q]) / len(question_kcs[q])
            p = 1.0 / (1.0 + np.exp(-(theta[s] - difficulty[q] + learning_rate * seen)))
            responses.append(int(rng.random() < p))
            probs.append(float(p))
            for c in question_kcs[q]:
                exposure[c] += 1
        out.append((qs.tolist(), responses, probs))
    return out


DATA_TOKEN = re.compile("-?[0-9]{1,19}")


def _token(tok, line_no, fault):
    """The int64 value of a data token, else ``DataFormatError``: ``fault``
    for text that is not a data token."""
    if not DATA_TOKEN.fullmatch(tok):
        raise DataFormatError(f"line {line_no}: {fault}")
    if not -2**63 <= int(tok) < 2**63:
        raise DataFormatError(f"line {line_no}: a value does not fit in 64 bits")
    return int(tok)


def oracle_parse_blocks(data):
    """``data._parse_blocks`` one line and one token at a time, with Python
    ``int`` and a regular expression per token.

    The grammar is the README's: UTF-8 text; ``\\r\\n`` or ``\\n`` line
    ends; blocks of 5 lines apart by empty lines; a header
    ``student_id,length`` with ASCII digits for the length; data tokens of
    an optional ``-`` and 1 to 19 ASCII digits that fit in int64, joined by
    single ``,`` and, in a KC set, ``_``. The first fault in file order
    raises: block by block, and within a block its header, its data lines
    in order, then its field counts.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[:exc.start].count(b"\n") + 1
        raise DataFormatError(f"line {line}: not UTF-8 text") from None
    lines = text.replace("\r\n", "\n").split("\n")
    heads, student_ids, bounds = [], [], [0]
    questions, responses, stamps, kc_sets = [], [], [], []
    i = 0
    while i < len(lines):
        if not lines[i]:
            i += 1
            continue
        if i + 4 >= len(lines):
            raise DataFormatError(f"line {i + 1}: truncated block (need 5 lines)")
        header = lines[i]
        parts = header.strip().rsplit(",", 1)
        if len(parts) != 2 or "\r" in header:
            raise DataFormatError(
                f"line {i + 1}: header must be 'student_id,length', got {header!r}")
        if not re.fullmatch("[0-9]+", parts[1]):
            raise DataFormatError(f"line {i + 1}: bad length {parts[1]!r}")

        q_ids = [_token(tok, i + 2, f"bad question ID value {tok!r}")
                 for tok in lines[i + 1].split(",")]
        block_sets = []
        for column, field in enumerate(lines[i + 2].split(","), 1):
            if not field:
                raise DataFormatError(f"line {i + 3}: empty KC set in column {column}")
            block_sets.append(sorted({_token(tok, i + 3, f"bad KC set {field!r}")
                                      for tok in field.split("_")}))
        block_responses = [_token(tok, i + 4, f"bad response value {tok!r}")
                           for tok in lines[i + 3].split(",")]
        block_stamps = [_token(tok, i + 5, f"bad timestamp value {tok!r}")
                        for tok in lines[i + 4].split(",")]

        lengths = (len(q_ids), len(block_sets), len(block_responses), len(block_stamps))
        if len(set(lengths)) != 1:
            raise DataFormatError(
                f"line {i + 1}: unequal field counts across block lines "
                f"({'/'.join(map(str, lengths))})")
        if int(parts[1]) != len(q_ids):
            raise DataFormatError(
                f"line {i + 1}: declared length {int(parts[1])} != {len(q_ids)} fields")
        questions += q_ids
        kc_sets += block_sets
        responses += block_responses
        stamps += block_stamps
        heads.append(i)
        student_ids.append(parts[0].strip())
        bounds.append(len(questions))
        i += 5

    if not heads:
        return None
    kcs = np.full((len(kc_sets), max(map(len, kc_sets))), -1, dtype=np.int64)
    for row, kc_set in zip(kcs, kc_sets):
        row[:len(kc_set)] = kc_set
    q, r, t = (np.array(v, dtype=np.int64) for v in (questions, responses, stamps))
    return heads, student_ids, bounds, q, r, t, kcs
