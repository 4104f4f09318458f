import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kttrace.autograd import Tape, Tensor, bce_loss, mean_over_axis, mul
from kttrace.data import (
    SCORE_CELLS,
    TAPE_CELLS,
    DatasetSpec,
    build_vocab,
    pack_rows,
    pack_segments,
)
from kttrace.model import (
    PRESETS,
    KTModel,
    ModelConfig,
    parameter_count,
    zero_shot_adapt,
)
from helpers import build_tiny, hand_sequences, seq_of, shares_rows, tiny_vocab
from oracles import oracle_forward


# ---------------------------------------------------------------------------
# configuration and parameter accounting


def test_presets_match_published_sizes():
    assert PRESETS["base-89M"] == (4, 256, 8, 256)
    assert PRESETS["base-221M"] == (24, 512, 16, 1024)
    assert PRESETS["base-478M"] == (24, 1024, 16, 1024)
    assert PRESETS["base-1.01B"] == (32, 1536, 24, 2560)


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(n_layers=1, d_model=10, n_head=3, d_ff=8).validate()


def test_parameter_count_closed_form():
    specs = [DatasetSpec("d0", 0), DatasetSpec("d1", 1)]
    vocab = build_vocab(specs, {"d0": (30, 6), "d1": (20, 4)})
    config = ModelConfig(n_layers=2, d_model=16, n_head=2, d_ff=32,
                         max_seq_len=200)
    model = KTModel.build(config, vocab, seed=0)

    d, f, L = 16, 32, 200
    emb = (50 + 2) * d + (10 + 2) * d + 2 * d + 2 * d + 2 * d + L * d
    block = (2 * d            # ln1
             + 4 * d * d + 3 * d  # q/k/v/o projections; keys have no bias
             + 2 * d            # ln2
             + (f * d + f)      # intermediate
             + (d * f + d))     # output
    head = 2 * d + (f * d + f) + (1 * f + 1)  # final LN + two head layers
    expected = emb + 2 * block + head
    assert model.n_params == expected
    assert parameter_count(config, vocab) == expected


def test_parameter_counts_strictly_increase_across_presets():
    vocab = tiny_vocab(nq=500, nk=50, n_datasets=3)
    counts = [parameter_count(ModelConfig.from_preset(name), vocab)
              for name in ("base-89M", "base-221M", "base-478M", "base-1.01B")]
    assert counts == sorted(counts) and len(set(counts)) == 4


def test_build_is_seed_deterministic():
    m1, _ = build_tiny(seed=5)
    m2, _ = build_tiny(seed=5)
    for n, t in m1.parameters().items():
        assert t.data.tobytes() == m2.parameters()[n].data.tobytes()


# ---------------------------------------------------------------------------
# encoding


def test_encode_single_kc_collapses_to_that_embedding():
    model, vocab = build_tiny()
    seq = seq_of("a", [(1, (3,), 1, 0),
                       (1, (3,), 1, 60),
                       (1, (3,), 0, 120)])
    enc = model.encode_steps(pack_segments([seq], vocab, 0, dtype=model.dtype))[0].data
    P = {k: v.data for k, v in model.parameters().items()}
    expected0 = (P["emb.question"][vocab.question_to_global(0, 1)]
                 + P["emb.type"][0]
                 + P["emb.kc"][vocab.kc_to_global(0, 3)]
                 + P["emb.type"][1]
                 + P["emb.response"][1]
                 + P["emb.dataset"][0]
                 + P["emb.position"][0])
    np.testing.assert_allclose(enc[0, 0], expected0, rtol=1e-12)


def test_encode_dataset_shift_is_embedding_difference():
    # same step content, only the dataset slot changes: encodings differ
    # by exactly the difference of the two dataset embeddings
    model, vocab = build_tiny()
    seq = hand_sequences()[0]
    b0 = pack_segments([seq], vocab, 0, dtype=model.dtype)
    b1 = pack_segments([seq], vocab, 0, dtype=model.dtype)
    b1.dataset_index = 1
    e0 = model.encode_steps(b0)[0].data
    e1 = model.encode_steps(b1)[0].data
    ds = model.param("emb.dataset").data
    diff = e1 - e0
    np.testing.assert_allclose(diff, np.broadcast_to(ds[1] - ds[0], diff.shape),
                               rtol=0, atol=1e-12)


def test_encode_zero_tables_gives_zero():
    model, vocab = build_tiny()
    for name, t in model.parameters().items():
        if name.startswith("emb."):
            t.data[:] = 0.0
    enc, _ = model.encode_steps(pack_segments([hand_sequences()[0]], vocab, 0,
                                              dtype=model.dtype))
    assert (enc.data == 0.0).all()


def test_encode_rejects_overlong_sequence():
    model, vocab = build_tiny(max_seq_len=4)
    seq = seq_of("a", [(0, (0,), 1, t) for t in range(5)])
    with pytest.raises(ValueError, match="max_seq_len"):
        model.encode_steps(pack_segments([seq], vocab, 0, dtype=model.dtype))


# ---------------------------------------------------------------------------
# forward contract


def test_zero_head_predicts_exactly_half():
    model, vocab = build_tiny()
    for name in ("head.w1", "head.b1", "head.w2", "head.b2"):
        model.param(name).data[:] = 0.0
    batch = pack_segments(hand_sequences(), vocab, 0, dtype=model.dtype)
    probs = model.predict_batch(batch)
    assert (probs == 0.5).all()


def test_every_parameter_can_move_a_prediction():
    # an inert parameter (a key bias, which softmax cancels) is still
    # stepped by Adam on its rounding-noise gradient
    model, vocab = build_tiny(n_layers=2)
    batch = pack_segments(hand_sequences(), vocab, 0, dtype=model.dtype)
    scored = batch.pred_mask[..., 0] > 0
    base = model.predict_batch(batch)[scored]
    rng = np.random.default_rng(0)
    for name, t in model.parameters().items():
        saved = t.data.copy()
        t.data += rng.normal(0.0, 0.5, t.shape)
        moved = np.abs(model.predict_batch(batch)[scored] - base).max()
        t.data[...] = saved
        assert moved > 1e-12, name


def test_causality_by_response_perturbation():
    model, vocab = build_tiny(n_layers=2)
    seqs = hand_sequences()
    batch = pack_segments(seqs, vocab, 0, dtype=model.dtype)
    base = model.predict_batch(batch)
    k = 2
    flipped = pack_segments(seqs, vocab, 0, dtype=model.dtype)
    flipped.responses[1, k] = 1 - flipped.responses[1, k]
    pert = model.predict_batch(flipped)
    # predictions for interactions 1..k (emitted before index k) unchanged
    np.testing.assert_array_equal(base[1, :k], pert[1, :k])
    assert np.abs(base[1, k:3] - pert[1, k:3]).max() > 0


def test_causality_by_gradient_probe():
    # position embedding row k feeds only step k, so the prediction at
    # position t must have zero gradient on rows k > t
    model, vocab = build_tiny(n_layers=2)
    batch = pack_segments(hand_sequences(), vocab, 0, dtype=model.dtype)
    t_star = 1
    sel = np.zeros_like(batch.pred_mask)
    sel[:, t_star, 0] = 1.0
    with Tape() as tape:
        probs = model.forward_batch(batch)
        picked = mul(probs, Tensor(sel))
        loss = mean_over_axis(mean_over_axis(mean_over_axis(picked, 2), 1), 0)
    tape.backward(loss)
    pos_grad = model.param("emb.position").grad
    assert (pos_grad[t_star + 1:] == 0.0).all()
    assert np.abs(pos_grad[: t_star + 1]).max() > 0


def test_padding_invariance():
    model, vocab = build_tiny()
    seqs = hand_sequences()  # lengths 3 and 4 -> one padded position
    batch = pack_segments(seqs, vocab, 0, dtype=model.dtype)
    base = model.predict_batch(batch)
    tampered = pack_segments(seqs, vocab, 0, dtype=model.dtype)
    tampered.questions[0, 3] = vocab.question_to_global(0, 9)
    tampered.responses[0, 3] = 1
    tampered.kcs[0, 3, :] = vocab.kc_to_global(0, 0)
    pert = model.predict_batch(tampered)
    np.testing.assert_array_equal(base[0, :3], pert[0, :3])
    np.testing.assert_array_equal(base[1], pert[1])


PADDED_SEQS = hand_sequences() + [seq_of("c", [
    (q, (q % 6,), q % 2, 60 * q) for q in range(6)])]  # lengths 3, 4, 6


@settings(deadline=None, max_examples=50)
@given(st.data(), st.sampled_from([np.float32, np.float64]))
def test_ids_in_padded_cells_never_change_a_real_step_prediction(data, dtype):
    # every real step, scored or not: the last one is unscored, and its
    # query would read the padded step after it if it were not masked
    model, vocab = build_tiny(n_layers=2, dtype=dtype)
    batch = pack_segments(PADDED_SEQS, vocab, 0, dtype=model.dtype)
    base = model.predict_batch(batch)
    pad = np.arange(batch.questions.shape[1])[None, :] >= batch.lengths[:, None]
    for name, n_ids in (("questions", vocab.n_question_rows), ("kcs", vocab.n_kc_rows),
                        ("responses", 2)):
        arr = getattr(batch, name)
        drawn = data.draw(arrays(np.int64, arr.shape, elements=st.integers(0, n_ids - 1)))
        cells = pad if arr.ndim == 2 else pad[..., None]
        setattr(batch, name, np.where(cells, drawn, arr))
    np.testing.assert_array_equal(model.predict_batch(batch)[~pad], base[~pad])


def classed_batch():
    """Segments of lengths 1-16 in mixed order, 59 steps that share one packed row."""
    rng = np.random.default_rng(4)
    return [seq_of(f"s{i}", [(int(rng.integers(12)), (int(rng.integers(6)),),
                              int(rng.integers(2)), 60 * t) for t in range(n)])
            for i, n in enumerate((9, 2, 5, 1, 16, 3, 7, 4, 12))]


def test_backward_batch_equals_one_single_pack_with_gates():
    model, vocab = build_tiny(n_layers=2, seed=6)
    segs = classed_batch()
    assert shares_rows(pack_rows(segs, vocab, 1))
    batch = pack_segments(segs, vocab, 1, dtype=np.float64)
    gates = model.make_gates()
    with Tape() as tape:
        loss = bce_loss(model.forward_batch(batch, gates=gates), batch.targets,
                        batch.pred_mask)
    tape.backward(loss)
    leaves = {**model.parameters(), **{t.name: t for t in gates.values()}}
    want = {n: t.grad.copy() for n, t in leaves.items()}
    model.zero_grad()
    gates = model.make_gates()

    got_loss = model.backward_batch(segs, 1, gates=gates)
    assert got_loss == pytest.approx(loss.item(), rel=1e-12)
    leaves = {**model.parameters(), **{t.name: t for t in gates.values()}}
    assert leaves.keys() == want.keys()
    for name, g in want.items():
        assert np.abs(leaves[name].grad - g).max() <= 1e-12 * np.abs(g).max(), name


def test_backward_batch_adds_into_grad():
    model, _ = build_tiny(n_layers=2, seed=6)
    segs = classed_batch()
    gates = model.make_gates()
    first_loss = model.backward_batch(segs, 0, gates=gates)
    leaves = [*model.parameters().values(), *gates.values()]
    first = [t.grad.copy() for t in leaves]
    assert model.backward_batch(segs, 0, gates=gates) == first_loss
    for t, g in zip(leaves, first):
        assert np.abs(t.grad - 2 * g).max() <= 1e-12 * np.abs(g).max(), t.name


def test_leaves_own_their_gradients_from_construction():
    model, _ = build_tiny(n_layers=2, seed=6)
    gates = model.make_gates()
    owned = {lid: gate.grad for lid, gate in gates.items()}
    for lid, gate in gates.items():
        assert gate.grad.shape == gate.shape and not gate.grad.any(), lid
    for _ in range(3):
        model.backward_batch(classed_batch(), 0, gates=gates)
    for lid, gate in gates.items():
        assert gate.grad is owned[lid] and gate.grad.any(), lid
    for name, t in model.parameters().items():
        assert np.shares_memory(t.grad, model.flat_grads), name


def test_gate_widths_are_the_gated_outputs_widths():
    model, _ = build_tiny(n_layers=2, d_model=4, d_ff=6)
    assert list(model.gate_widths().items()) == [
        ((i, kind), width) for i in range(2)
        for kind, width in (("attention", 4), ("intermediate", 6), ("output", 4))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_model_runs_in_its_own_dtype(dtype):
    model, vocab = build_tiny(dtype=dtype, n_layers=2)
    batch = pack_segments(hand_sequences(), vocab, 0, dtype=model.dtype)
    gates = model.make_gates()
    with Tape() as tape:
        probs = model.forward_batch(batch, gates=gates, drop_p=0.1,
                                    rng=np.random.default_rng(0))
        loss = bce_loss(probs, batch.targets, batch.pred_mask)
    tape.backward(loss)
    assert probs.dtype == dtype and loss.dtype == dtype
    for name, t in model.parameters().items():
        assert t.grad.dtype == dtype, name
    for lid, gate in gates.items():
        assert gate.grad.dtype == dtype, lid


def test_eval_forward_deterministic():
    model, vocab = build_tiny(dtype=np.float32)
    batch = pack_segments(hand_sequences(), vocab, 0, dtype=model.dtype)
    a = model.predict_batch(batch)
    b = model.predict_batch(batch)
    assert a.tobytes() == b.tobytes()


def test_train_forward_requires_rng_for_dropout():
    model, vocab = build_tiny()
    batch = pack_segments(hand_sequences(), vocab, 0, dtype=model.dtype)
    with pytest.raises(ValueError, match="rng"):
        model.forward_batch(batch, drop_p=0.5)


# ---------------------------------------------------------------------------
# independent straight-line oracle


def long_sequence(n):
    rng = np.random.default_rng(n)
    return seq_of("long", [(int(rng.integers(12)), tuple(sorted({int(rng.integers(6)),
                                                                 int(rng.integers(6))})),
                            int(rng.integers(2)), 60 * t) for t in range(n)])


def check_matches_scalar_loop_oracle(segments, max_seq_len=16, tol=1e-6):
    model, vocab = build_tiny(seed=3, n_layers=2, max_seq_len=max_seq_len)
    batch = pack_segments(segments, vocab, 0, dtype=model.dtype)
    fast = model.predict_batch(batch)
    slow = oracle_forward(model, batch)
    assert np.abs(fast - slow).max() < tol


def test_forward_matches_scalar_loop_oracle():
    check_matches_scalar_loop_oracle(hand_sequences())


def test_forward_matches_scalar_loop_oracle_past_one_tile():
    # 130 steps run as 3 attention tiles (44, 44, 42); the short ones are padded.
    # The small initial weights keep the predictions close (standard deviation
    # 1e-5), so only a float64-tight bound tells a misplaced mask apart: one on
    # the wrong block of each tile moved them by 1.4e-7
    check_matches_scalar_loop_oracle(hand_sequences() + [long_sequence(130)], 130, tol=1e-12)


# ---------------------------------------------------------------------------
# segments that share a row


def random_segments(lengths, seed):
    rng = np.random.default_rng(seed)
    return [seq_of(f"s{i}", [(int(rng.integers(12)), tuple(sorted({int(rng.integers(6)),
                                                                   int(rng.integers(6))})),
                              int(rng.integers(2)), 60 * t) for t in range(n)])
            for i, n in enumerate(lengths)]


# row 0 is 120 steps, two attention tiles of 60: its second segment (columns
# 50-89) crosses the tile boundary and the third ends the row; row 1 holds
# four short segments and padding, row 2 one segment of two steps
SHARED_LENGTHS, SHARED_PER_ROW = (50, 40, 30, 9, 5, 3, 1, 2), (3, 4, 1)


def segment_cells(lengths, per_row):
    """(row, first column) of each segment of a ``per_row`` layout."""
    cells, i = [], 0
    for r, n in enumerate(per_row):
        c = 0
        for length in lengths[i:i + n]:
            cells.append((r, c))
            c += length
        i += n
    return cells


def shared_batch(segments, vocab, dtype):
    return pack_segments(segments, vocab, 0, dtype=dtype, per_row=SHARED_PER_ROW)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([np.float32, np.float64]), st.integers(0, len(SHARED_LENGTHS) - 1),
       st.sampled_from(["question", "kc", "response"]), st.data())
def test_editing_one_segment_leaves_every_other_segment_bit_identical(dtype, j, field, data):
    model, vocab = build_tiny(seed=7, n_layers=2, max_seq_len=64, dtype=dtype)
    segs = random_segments(SHARED_LENGTHS, seed=8)
    assert shared_batch(segs, vocab, dtype).questions.shape == (3, 120)
    base = model.predict_batch(shared_batch(segs, vocab, dtype))
    t = data.draw(st.integers(0, SHARED_LENGTHS[j] - 1))
    edited = segs[j][:]
    edited.questions, edited.kcs, edited.responses = (
        edited.questions.copy(), edited.kcs.copy(), edited.responses.copy())
    if field == "question":
        edited.questions[t] = data.draw(st.integers(0, 15))   # 12 and up are unseen: UNK
    elif field == "kc":
        edited.kcs[t, 0] = data.draw(st.integers(0, 8))
    else:
        edited.responses[t] = 1 - edited.responses[t]
    pert = model.predict_batch(shared_batch(segs[:j] + [edited] + segs[j + 1:], vocab, dtype))
    for i, (r, c) in enumerate(segment_cells(SHARED_LENGTHS, SHARED_PER_ROW)):
        if i != j:
            cols = slice(c, c + SHARED_LENGTHS[i])
            np.testing.assert_array_equal(pert[r, cols], base[r, cols], err_msg=f"segment {i}")


def test_shared_rows_equal_one_segment_per_row_and_the_scalar_loop_oracle():
    model, vocab = build_tiny(seed=3, n_layers=2, max_seq_len=64)
    segs = random_segments(SHARED_LENGTHS, seed=9)
    shared = shared_batch(segs, vocab, np.float64)
    got = model.predict_batch(shared)
    # every cell, padding runs included, against the oracle on the same rows
    assert np.abs(got - oracle_forward(model, shared)).max() < 1e-12
    alone = pack_segments(segs, vocab, 0, dtype=np.float64)
    want = model.predict_batch(alone)
    slow = oracle_forward(model, alone)
    for i, (r, c) in enumerate(segment_cells(SHARED_LENGTHS, SHARED_PER_ROW)):
        n = SHARED_LENGTHS[i]
        assert np.abs(got[r, c:c + n] - want[i, :n]).max() < 1e-12, i
        assert np.abs(got[r, c:c + n] - slow[i, :n]).max() < 1e-12, i


def test_a_batch_within_tape_cells_runs_as_one_forward(monkeypatch):
    # 16 segments of 3-40 steps: four rows of 64 under TAPE_CELLS make one
    # part, so one forward; a per-length-class loop would run five
    lengths = (40, 3, 21, 7, 12, 5, 30, 4, 9, 15, 3, 6, 18, 8, 10, 11)
    model, vocab = build_tiny(n_layers=2, max_seq_len=64)
    segs = random_segments(lengths, seed=10)
    (part,) = pack_rows(segs, vocab, 0)
    assert part.questions.size <= TAPE_CELLS and len(part.lengths) == 16
    calls = []
    original = KTModel.forward_batch

    def counted(self, batch, *args, **kwargs):
        calls.append(batch.questions.shape)
        return original(self, batch, *args, **kwargs)

    monkeypatch.setattr(KTModel, "forward_batch", counted)
    model.backward_batch(segs, 0, drop_p=0.1, rng=np.random.default_rng(0))
    assert calls == [part.questions.shape]


def _traced_peak(fn):
    """Bytes that ``fn()`` allocates at its peak, over what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("arch, length", [((4, 64, 4, 128), 64),
                                          (PRESETS["base-89M"], 200)],
                         ids=["d64", "base-89M"])
def test_scoring_at_the_score_cap_peaks_below_one_training_part(arch, length):
    # scoring keeps no tape, which is what lets evaluation cut its parts at
    # SCORE_CELLS while training cuts at TAPE_CELLS
    model = KTModel.build(ModelConfig(*arch, dropout=0.0, max_seq_len=length),
                          tiny_vocab(), seed=0, dtype=np.float32)
    segs = random_segments([length] * (SCORE_CELLS // length), seed=11)
    (part,) = pack_rows(segs, model.vocab, 0, np.float32, cells=SCORE_CELLS)
    train = segs[:TAPE_CELLS // length]
    (tape_part,) = pack_rows(train, model.vocab, 0, np.float32)
    assert part.questions.size > 2 * tape_part.questions.size
    model.predict_batch(part)
    model.backward_batch(train, 0)   # one-time allocations stay out of the peaks
    scoring = _traced_peak(lambda: model.predict_batch(part))
    training = _traced_peak(lambda: model.backward_batch(train, 0))
    assert scoring <= training, (scoring, training)


# ---------------------------------------------------------------------------
# zero-shot adaptation


def test_adapt_smoke_and_isolation():
    model, _ = build_tiny(dtype=np.float32)
    before = model.views(model.copy_arrays())
    adapted = zero_shot_adapt(model, "new", n_questions=8, n_kcs=4, seed=1)
    assert adapted.vocab.n_datasets == 3
    seq = seq_of("x", [(0, (0,), 1, 0),
                       (7, (3,), 0, 60),
                       (4, (1, 2), 1, 120)])
    batch = pack_segments([seq], adapted.vocab, 2, dtype=adapted.dtype)
    probs = adapted.predict_batch(batch)
    assert np.isfinite(probs).all() and ((probs > 0) & (probs < 1)).all()
    for name, arr in before.items():
        if not name.startswith("emb."):
            assert adapted.param(name).data.tobytes() == arr.tobytes(), name
    # old rows of the grown tables are preserved verbatim
    nq_old = model.vocab.total_questions
    assert adapted.param("emb.question").data[:nq_old].tobytes() == before["emb.question"][:nq_old].tobytes()


def test_adapt_dataset_row_is_mean_of_existing():
    model, _ = build_tiny()
    adapted = zero_shot_adapt(model, "new", 8, 4, seed=1)
    old = model.param("emb.dataset").data
    np.testing.assert_allclose(adapted.param("emb.dataset").data[-1],
                               old.mean(axis=0), rtol=1e-12)


def test_adapt_zero_noise_makes_questions_interchangeable():
    model, _ = build_tiny(seed=9)
    adapted = zero_shot_adapt(model, "new", 8, 4, seed=2, noise_std=0.0)

    def run(question_ids):
        rows = [(q, (1,), r, 60 * j)
                for j, (q, r) in enumerate(zip(question_ids, [1, 0, 1]))]
        batch = pack_segments([seq_of("x", rows)], adapted.vocab, 2,
                              dtype=adapted.dtype)
        return adapted.predict_batch(batch)

    np.testing.assert_array_equal(run([0, 3, 5]), run([7, 2, 6]))
