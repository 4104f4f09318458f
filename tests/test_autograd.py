import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import kttrace.autograd as ag
from kttrace.autograd import (
    GraphError,
    NumericalError,
    ShapeError,
    Tape,
    Tensor,
    add,
    bce_loss,
    causal_attention,
    dropout,
    embedding_lookup,
    gate_apply,
    layer_norm,
    matmul,
    mean_over_axis,
    mul,
    next_step,
    sigmoid,
)
from kttrace.data import pack_segments
from kttrace.model import KTModel
from helpers import (build_tiny, finite_diff, hand_sequences, max_rel_err, seq_of,
                     tiny_config, tiny_vocab)
from oracles import embedding_backward


def scalarize(t):
    """Reduce any tensor to a scalar loss using only mean_over_axis."""
    while t.ndim > 0:
        t = mean_over_axis(t, 0)
    return t


# ---------------------------------------------------------------------------
# forward values


def test_sigmoid_at_zero():
    assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)


def test_sigmoid_saturation_is_finite():
    out = sigmoid(Tensor([-200.0, 200.0]))
    assert np.isfinite(out.data).all()


BOUNDED = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@example([-3.0, -2.9999998], np.float32)
@given(st.lists(BOUNDED, min_size=1, max_size=64), st.sampled_from([np.float32, np.float64]))
def test_sigmoid_is_a_monotone_probability_in_its_dtype(values, dtype):
    x = np.sort(np.asarray(values, dtype=dtype))
    s = sigmoid(Tensor(x)).data
    assert s.dtype == dtype
    assert ((s >= 0.0) & (s <= 1.0)).all()
    # float32 tanh(-1.5) is one unit too high, so float32 sigmoid steps down
    # by 2**-25 between x = -3 and the next float32 up
    slack = 2.0**-25 if dtype == np.float32 else 0.0
    assert (np.diff(s) >= -slack).all()


@settings(deadline=None)
@given(arrays(np.float32, st.integers(1, 256), elements=BOUNDED.map(np.float32)))
def test_float32_sigmoid_is_within_1_2e_7_of_float64(x):
    with np.errstate(over="ignore"):
        ref = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
    assert np.abs(sigmoid(Tensor(x)).data - ref).max() <= 1.2e-7


@st.composite
def lookups(draw):
    """(table rows, width, ids, seed) with few rows, so ids repeat."""
    rows = draw(st.integers(1, 8))
    shape = draw(st.one_of(st.tuples(st.just(1), st.integers(1, 12)),
                           st.lists(st.integers(0, 6), min_size=2, max_size=3).map(tuple)))
    ids = draw(arrays(np.int64, shape, elements=st.integers(0, rows - 1)))
    return rows, draw(st.integers(1, 5)), ids, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None)
@example(lookup=(2, 4, np.array([[0]]), 0), weighted=False)  # the token-type lookup
@example(lookup=(9, 4, np.arange(9)[None], 1), weighted=False)  # the [1, T] positions
@example(lookup=(5, 4, np.array([[[1, 3, 1], [4, 0, 0]]]), 2), weighted=True)  # KC sets
@given(lookups(), st.booleans())
def test_embedding_backward_matches_add_at(lookup, weighted):
    rows, width, ids, seed = lookup
    rng = np.random.default_rng(seed)
    table = Tensor(rng.normal(size=(rows, width)), requires_grad=True)
    weights = rng.normal(size=ids.shape) if weighted else None
    g = rng.normal(size=ids.shape + (width,))
    with Tape() as tape:
        embedding_lookup(table, ids, weights)
    (got,) = tape._nodes[-1].bwd(g)
    # a weighted row passes on its gradient times its weight
    per_row = g * weights[..., None] if weighted else g
    np.testing.assert_allclose(got, embedding_backward(rows, ids, per_row),
                               rtol=0, atol=1e-12)


def test_weighted_lookup_scales_each_row():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    ids = np.array([[[0, 2, 2], [3, 1, 0]]])
    weights = np.array([[[0.5, 0.25, 0.25], [1.0, 0.0, 0.0]]])
    want = [[[w * table.data[i] for i, w in zip(row, ws)]
             for row, ws in zip(ids[0], weights[0])]]
    np.testing.assert_array_equal(embedding_lookup(table, ids, weights).data, want)


@pytest.mark.parametrize("ids, weights", [
    (np.zeros((2, 3), dtype=np.int64), np.ones((2, 2))),
    (np.zeros((2, 3), dtype=np.int64), np.ones((2, 3, 1))),
    (np.int64(1), np.ones(1)),
], ids=["short", "extra-axis", "scalar-id"])
def test_weights_must_match_ids(ids, weights):
    with pytest.raises(ShapeError, match="embedding_lookup: weights"):
        embedding_lookup(Tensor(np.ones((4, 3))), ids, weights)


def test_layer_norm_constant_row_is_zero():
    width = 5
    g = Tensor(np.ones(width))
    b = Tensor(np.zeros(width))
    out = layer_norm(Tensor(np.full((2, width), 3.7)), g, b)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_mean_over_axis_value():
    out = mean_over_axis(Tensor([[1.0, 3.0], [5.0, 7.0]]), axis=1)
    np.testing.assert_allclose(out.data, [2.0, 6.0])


def test_dropout_eval_is_identity():
    x = Tensor(np.ones((3, 4)))
    out = dropout(x, 0.0, None)
    assert out is x


def test_dropout_train_scales_kept_units():
    rng = np.random.default_rng(1)
    x = Tensor(np.ones((100, 100)))
    out = dropout(x, 0.25, rng)
    kept = out.data[out.data != 0]
    np.testing.assert_allclose(kept, 1 / 0.75, rtol=1e-6)
    # empirical keep rate close to 0.75
    assert abs((out.data > 0).mean() - 0.75) < 0.02


def tile_cells(T):
    """Score cells of the query tiles: ceil(T / n) rows each for n =
    ceil(T / ATTN_TILE), tile [s, e) against keys [0, e)."""
    n = -(-T // ag.ATTN_TILE)
    size = -(-T // n)
    return sum((min(s + size, T) - s) * min(s + size, T) for s in range(0, T, size))


def test_tiles_score_only_the_causal_prefix():
    # up to 64 steps are one tile; 200 steps are 4 tiles of 50, 62.5 % of T * T
    assert [tile_cells(T) for T in (3, 64, 65, 130, 200)] == [
        9, 64 * 64, 33 * 33 + 32 * 65, 44 * 44 + 44 * 88 + 42 * 130, 25000]


def check_ignores_future(T, pos):
    def attend(x):
        # three distinct arrays: numpy multiplies a tile by its own transpose
        # with a symmetric product whose last bits can differ from gemm's
        return causal_attention(*(Tensor(x.copy()) for _ in range(3)), n_head=2).data

    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, T, 8))
    base = attend(x)
    x[0, pos] += 10.0  # perturb one position; outputs before it must not move
    pert = attend(x)
    np.testing.assert_array_equal(base[0, :pos], pert[0, :pos])
    assert np.abs(base[0, pos:] - pert[0, pos:]).max(axis=-1).min() > 0


def test_causal_attention_ignores_future():
    check_ignores_future(6, 4)


def test_causal_attention_ignores_future_inside_a_middle_tile():
    check_ignores_future(200, 120)   # 4 tiles of 50; step 120 is in the third


# ---------------------------------------------------------------------------
# gates


def ones_gate(width, dtype=np.float32):
    return Tensor(np.ones(width, dtype=dtype), requires_grad=True)


def test_gate_apply_is_identity():
    gate = ones_gate(2)
    x = Tensor([0.2, -1.5])
    out = gate_apply(x, gate)
    np.testing.assert_array_equal(out.data, x.data)


def test_gate_gradient_of_sum_is_layer_output():
    # L = sum(g * o) via mean * n; dL/dg = o
    o = Tensor(np.array([0.2, -1.5]), requires_grad=True)
    gate = ones_gate(2, dtype=np.float64)
    with Tape() as tape:
        gated = gate_apply(o, gate)
        loss = mul(mean_over_axis(gated, 0), Tensor(np.float64(2.0)))
    tape.backward(loss)
    np.testing.assert_allclose(gate.grad, [0.2, -1.5], rtol=1e-12)


def test_gate_width_mismatch():
    with pytest.raises(ShapeError):
        gate_apply(Tensor(np.ones((2, 3))), ones_gate(4))


def test_gate_values_must_stay_ones():
    gate = ones_gate(3)
    gate.data[1] = 2.0
    with pytest.raises(ValueError):
        gate_apply(Tensor(np.ones(3)), gate)


# ---------------------------------------------------------------------------
# losses


def test_bce_analytic_half():
    loss = bce_loss(Tensor([0.5]), np.array([1.0]), np.array([1.0]))
    assert loss.item() == pytest.approx(np.log(2.0), rel=1e-6)


def test_bce_clamp_floor():
    loss = bce_loss(Tensor([1.0 - 1e-7], dtype=np.float64), np.array([1.0]), np.array([1.0]))
    assert loss.item() == pytest.approx(1e-7, rel=1e-2)


def test_bce_masked_element_ignored():
    loss = bce_loss(Tensor([0.9, 0.2]), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert loss.item() == pytest.approx(-np.log(0.9), rel=1e-5)


def test_bce_all_masked_is_error():
    with pytest.raises(ValueError, match="masked"):
        bce_loss(Tensor([0.5]), np.array([1.0]), np.array([0.0]))


def test_bce_total_divides_the_masked_sum():
    probs, targets, mask = Tensor([0.9, 0.2]), np.array([1.0, 0.0]), np.array([1.0, 0.0])
    assert bce_loss(probs, targets, mask, total=4).item() == pytest.approx(
        -np.log(0.9) / 4, rel=1e-6)
    # a part with nothing scored adds zero to its batch's loss
    assert bce_loss(probs, targets, np.zeros(2), total=3).item() == 0.0


@pytest.mark.parametrize("total", [0, -1.0, 0.5, float("nan")])
def test_bce_total_must_be_positive_and_cover_the_mask(total):
    # the mask sums to 1: a total of 0 or below it is rejected
    with pytest.raises(ValueError, match="total"):
        bce_loss(Tensor([0.5, 0.5]), np.array([1.0, 0.0]), np.array([1.0, 0.0]), total=total)


# ---------------------------------------------------------------------------
# backward mechanics


def test_square_gradient():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        loss = scalarize(mul(x, x))
    assert tape.backward(loss) is None
    np.testing.assert_allclose(x.grad, [6.0])


def test_dead_branch_gradient_is_exactly_zero():
    x = Tensor(np.array([3.0]), requires_grad=True)
    dead = Tensor(np.array([4.0]), requires_grad=True)
    with Tape() as tape:
        used = mul(x, x)
        mul(dead, dead)  # recorded but never feeds the loss
        loss = scalarize(used)
    tape.backward(loss)
    assert (dead.grad == 0.0).all()


def test_repeated_backward_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        loss = scalarize(mul(x, x))
    tape.backward(loss)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [12.0])


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_reads_any_one_element_array(shape):
    value = Tensor(np.full(shape, 2.5, dtype=np.float32)).item()
    assert type(value) is float and value == 2.5


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(GraphError, match="scalar"):
        tape.backward(y)


def test_backward_rejects_detached_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        mul(x, x)
    stray = Tensor(np.float32(1.0))
    with pytest.raises(GraphError, match="detached"):
        tape.backward(stray)


def test_no_tape_means_no_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    y = mul(x, x)
    assert y.is_leaf and not y.requires_grad


def test_shape_error_names_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3, 4\)"):
        matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 5))))
    with pytest.raises(ShapeError, match=r"add.*\(2, 3\)"):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_nonfinite_output_raises():
    big = Tensor(np.full((2, 2), 1e300))
    with pytest.raises(NumericalError, match="matmul"):
        matmul(big, big)


def _recorded_op(op, rng):
    """Leaf tensors for ``op``, its other array inputs, and a call that
    records ``op`` on them."""
    if op == "sigmoid":
        x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        return [x], [], lambda: sigmoid(x)
    if op == "causal_attention":
        qkv = [Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True) for _ in range(3)]
        return qkv, [], lambda: causal_attention(*qkv, n_head=2)
    if op == "next_step":
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        return [x], [], lambda: next_step(x)
    if op == "dropout":
        x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        return [x], [], lambda: dropout(x, 0.3, np.random.default_rng(5))
    if op == "mul":
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        mask = (rng.random(size=(2, 5, 1)) < 0.5).astype(np.float64)
        return [x], [mask], lambda: mul(x, Tensor(mask))
    table = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    ids = np.array([[0, 2, 2, 1], [3, 0, 2, 2]])
    return [table], [ids], lambda: embedding_lookup(table, ids)


@pytest.mark.parametrize("op", ["sigmoid", "causal_attention", "embedding_lookup",
                                "next_step", "mul", "dropout"])
def test_backward_reuses_no_buffer_it_does_not_own(op):
    rng = np.random.default_rng(13)
    leaves, constants, call = _recorded_op(op, rng)
    with Tape() as tape:
        out = call()
        node = tape._nodes[-1]
        loss = scalarize(mul(out, Tensor(rng.normal(size=out.shape))))
    inputs = [t.data for t in leaves] + constants
    inputs_before = [a.copy() for a in inputs]
    forward = out.data.copy()
    g = rng.normal(size=out.shape)
    g_before = g.copy()

    first = node.bwd(g)
    if op == "mul":   # the constant mask gets no gradient
        assert first[1] is None
        first = first[:1]
    first_copy = [a.copy() for a in first]
    second = node.bwd(g)
    for a, b, c in zip(first_copy, first, second):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
    np.testing.assert_array_equal(g, g_before)
    np.testing.assert_array_equal(out.data, forward)
    for a, before in zip(inputs, inputs_before):
        np.testing.assert_array_equal(a, before)

    tape.backward(loss)
    once = [t.grad.copy() for t in leaves]
    tape.backward(loss)
    for t, grad in zip(leaves, once):
        np.testing.assert_array_equal(t.grad, 2.0 * grad)


# ---------------------------------------------------------------------------
# the tape keeps only the arrays a backward reads


KEEPS = {   # op -> (call on a non-leaf [2, 6, 4] input, whether its backward reads it)
    "add": (lambda x, p: add(x, p["bias"]), False),
    "sigmoid": (lambda x, p: sigmoid(x), False),
    "layer_norm": (lambda x, p: layer_norm(x, p["gain"], p["bias"]), False),
    "dropout": (lambda x, p: dropout(x, 0.3, np.random.default_rng(1)), False),
    "mean_over_axis": (lambda x, p: mean_over_axis(x, 1), False),
    "next_step": (lambda x, p: next_step(x), False),
    "matmul, constant weight": (lambda x, p: matmul(x, Tensor(p["w"].data)), False),
    "matmul": (lambda x, p: matmul(x, p["w"], transpose_b=True), True),
    "mul": (lambda x, p: mul(x, p["gain"]), True),
    "causal_attention": (lambda x, p: causal_attention(x, x, x, n_head=2), True),
}


@pytest.mark.parametrize("op", list(KEEPS))
def test_tape_keeps_an_input_only_if_its_backward_reads_it(op):
    call, reads = KEEPS[op]
    rng = np.random.default_rng(21)
    leaf = Tensor(rng.normal(size=(2, 6, 4)), requires_grad=True)
    params = {name: Tensor(rng.normal(size=shape), requires_grad=True)
              for name, shape in (("bias", (4,)), ("gain", (4,)), ("w", (4, 4)))}
    with Tape() as tape:
        x = add(leaf, params["bias"])   # a non-leaf input; add keeps only shapes
        alive = weakref.ref(x.data)
        out = call(x, params)
        del x
        loss = scalarize(sigmoid(out))
    del out
    gc.collect()
    assert (alive() is not None) == reads
    tape.backward(loss)
    assert leaf.grad.shape == leaf.shape and np.abs(leaf.grad).sum() > 0


def check_retained_bytes(T):
    B, d, H, blocks = 8, 64, 2, 4
    vocab = tiny_vocab()
    model = KTModel.build(tiny_config(n_layers=blocks, d_model=d, n_head=H, d_ff=d,
                                      max_seq_len=T), vocab, seed=0, dtype=np.float32)
    rng = np.random.default_rng(3)
    segments = [seq_of(f"s{i}", [(int(rng.integers(12)), (int(rng.integers(6)), 5),
                                  int(rng.integers(2)), 60 * t) for t in range(T)])
                for i in range(B)]
    batch = pack_segments(segments, vocab, 0, dtype=np.float32)
    gc.collect()
    tracemalloc.start()
    try:
        with Tape() as tape:
            probs = model.forward_batch(batch, drop_p=0.1, rng=np.random.default_rng(0))
            loss = bce_loss(probs, batch.targets, batch.pred_mask)
        del probs
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape._nodes) == 101 and loss.node is tape._nodes[-1]   # 100 + the loss
    # float32 [B, T, d] arrays read by each block's backward: both layer norms'
    # normalized inputs, their outputs (read by the weight gradients), q, k, v
    # and the attention output; then the sigmoid output, the attention tiles'
    # probabilities and the two one-byte dropout masks. After the blocks: the
    # final layer norm's normalized input, the head's input and its sigmoid.
    cell = B * T * d
    per_block = 8 * 4 * cell + 4 * cell + 4 * B * H * tile_cells(T) + 2 * cell
    listed = blocks * per_block + 3 * 4 * cell
    # the rest is [B, T]-sized arrays, ids, weights and ~100 nodes' objects
    assert retained < 1.05 * listed, (retained, listed)


def test_a_recorded_forward_retains_only_the_arrays_its_backward_reads():
    check_retained_bytes(64)   # one tile: the probabilities are T * T cells


def test_a_recorded_forward_retains_tile_probabilities_only():
    check_retained_bytes(200)   # 4 tiles: 62.5 % of T * T cells


def test_attention_backward_builds_no_full_score_array():
    B, T, D, H = 2, 200, 8, 2
    rng = np.random.default_rng(4)
    q, k, v = (Tensor(rng.normal(size=(B, T, D)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    with Tape() as tape:
        loss = scalarize(causal_attention(q, k, v, n_head=H))
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the largest temporary is one tile's [B, H, 50, 200] score gradient
    assert peak < 4 * B * H * T * T, peak


# ---------------------------------------------------------------------------
# gradient correctness against central finite differences (64-bit)


def check_op_grads(build, arrays, rel=1e-4, h=1e-5):
    """Compare tape gradients of ``build()`` with finite differences."""
    tensors = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    with Tape() as tape:
        loss = build(tensors)
    tape.backward(loss)
    fd = finite_diff(lambda: build(tensors).item(), arrays, h=h)
    for name, t in tensors.items():
        err = max_rel_err(t.grad, fd[name])
        assert err < rel, f"{name}: rel err {err:.3e}"


def test_grad_add_broadcast():
    rng = np.random.default_rng(0)
    arrays = {"x": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(4,))}
    check_op_grads(lambda t: scalarize(sigmoid(add(t["x"], t["b"]))), arrays)


def test_grad_mul_broadcast():
    rng = np.random.default_rng(1)
    arrays = {"x": rng.normal(size=(2, 3, 4)), "g": rng.normal(size=(4,))}
    check_op_grads(lambda t: scalarize(sigmoid(mul(t["x"], t["g"]))), arrays)


def test_grad_matmul_2d():
    rng = np.random.default_rng(2)
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}
    check_op_grads(lambda t: scalarize(sigmoid(matmul(t["a"], t["b"]))), arrays)


def test_grad_matmul_batched_transpose():
    rng = np.random.default_rng(3)
    arrays = {"a": rng.normal(size=(2, 3, 4)), "w": rng.normal(size=(5, 4))}
    check_op_grads(
        lambda t: scalarize(sigmoid(matmul(t["a"], t["w"], transpose_b=True))), arrays)


def test_grad_embedding_lookup():
    rng = np.random.default_rng(4)
    ids = np.array([[0, 2, 2], [1, 0, 3]])
    arrays = {"table": rng.normal(size=(4, 3))}
    check_op_grads(
        lambda t: scalarize(sigmoid(embedding_lookup(t["table"], ids))), arrays)


def test_grad_weighted_embedding_lookup():
    # KC-set means as the model packs them: sets of 3, 2 and 1 KCs with
    # repeated ids, weight K/|set| (3/2 is not a power of two) and
    # zero-weight padding, averaged over the K = 3 slots
    rng = np.random.default_rng(8)
    ids = np.array([[[0, 2, 4], [2, 4, 5], [1, 5, 5]],
                    [[4, 0, 2], [3, 1, 5], [2, 5, 5]]])
    sizes = np.array([[3, 3, 2], [3, 1, 1]])[..., None]
    weights = (np.arange(3) < sizes) * 3 / sizes
    arrays = {"table": rng.normal(size=(6, 4))}
    check_op_grads(lambda t: scalarize(sigmoid(mean_over_axis(
        embedding_lookup(t["table"], ids, weights), 2))), arrays)


def test_grad_next_step():
    rng = np.random.default_rng(5)
    arrays = {"x": rng.normal(size=(2, 4, 3))}
    check_op_grads(lambda t: scalarize(sigmoid(next_step(t["x"]))), arrays)


def test_grad_layer_norm():
    rng = np.random.default_rng(6)
    arrays = {
        "x": rng.normal(size=(2, 4, 6)),
        "g": rng.normal(size=(6,)),
        "b": rng.normal(size=(6,)),
    }
    check_op_grads(lambda t: scalarize(sigmoid(layer_norm(t["x"], t["g"], t["b"]))), arrays)


def check_attention_grads(T):
    rng = np.random.default_rng(7)
    arrays = {
        "q": rng.normal(size=(2, T, 6)),
        "k": rng.normal(size=(2, T, 6)),
        "v": rng.normal(size=(2, T, 6)),
    }
    check_op_grads(
        lambda t: scalarize(sigmoid(causal_attention(t["q"], t["k"], t["v"], n_head=2))),
        arrays)


def test_grad_causal_attention():
    check_attention_grads(5)


def test_grad_causal_attention_over_uneven_tiles():
    check_attention_grads(130)   # 3 tiles: 44, 44 and a last one of 42


def run_starts(T, runs):
    """A [T] row of starts: consecutive runs of the given lengths from column 0."""
    return np.repeat(np.cumsum((0,) + runs[:-1]), runs)[:T]


def test_grad_causal_attention_inside_segments_over_uneven_tiles():
    # 3 tiles of 44, 44 and 42. Row 0's segments (0-49, 50-89, 90-129) cross
    # both tile boundaries; row 1 is one segment and a padding run. No
    # segment starts inside the first tile, so it masks its diagonal block
    # only, and the other two mask over all their keys.
    T = 130
    starts = np.stack([run_starts(T, (50, 40, 40)), run_starts(T, (100, 30))])
    rng = np.random.default_rng(8)
    arrays = {x: rng.normal(size=(2, T, 6)) for x in "qkv"}
    check_op_grads(lambda t: scalarize(sigmoid(causal_attention(
        t["q"], t["k"], t["v"], n_head=2, starts=starts))), arrays)


def test_causal_attention_inside_segments_equals_each_segment_alone():
    # row 0 is one segment, so only row 1 tells each tile to mask its segments
    rng = np.random.default_rng(9)
    rows = ((130,), (30, 20, 40, 40))
    starts = np.stack([run_starts(130, runs) for runs in rows])
    q, k, v = (rng.normal(size=(2, 130, 6)) for _ in range(3))
    got = causal_attention(q, k, v, n_head=2, starts=starts).data
    for r, runs in enumerate(rows):
        for a, n in zip(np.cumsum((0,) + runs[:-1]), runs):
            cut = (x[r:r + 1, a:a + n] for x in (q, k, v))
            want = causal_attention(*cut, n_head=2).data
            assert np.abs(got[r:r + 1, a:a + n] - want).max() < 1e-12, (r, a)


def test_grad_mean_over_axis():
    rng = np.random.default_rng(9)
    arrays = {"x": rng.normal(size=(3, 4, 2))}
    check_op_grads(lambda t: scalarize(sigmoid(mean_over_axis(t["x"], 1))), arrays)


def test_grad_dropout_with_fixed_mask():
    rng = np.random.default_rng(10)
    arrays = {"x": rng.normal(size=(4, 5))}

    def build(t):
        # fresh generator each call so FD re-evaluations see the same mask
        return scalarize(sigmoid(dropout(t["x"], 0.4, np.random.default_rng(99))))

    check_op_grads(build, arrays)


def test_grad_bce_loss():
    rng = np.random.default_rng(11)
    arrays = {"logits": rng.normal(size=(2, 6))}
    targets = rng.integers(0, 2, size=(2, 6)).astype(np.float64)
    mask = np.ones((2, 6))
    mask[1, 4:] = 0.0
    check_op_grads(
        lambda t: bce_loss(sigmoid(t["logits"]), targets, mask), arrays)


def test_grad_gate_through_composition():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(4, 4))
    gate = ones_gate(4, dtype=np.float64)
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    with Tape() as tape:
        h = sigmoid(matmul(xt, wt))
        loss = scalarize(gate_apply(h, gate))
    tape.backward(loss)

    def loss_fn(gv):
        hh = 1.0 / (1.0 + np.exp(-(x @ w)))
        return float((hh * gv).mean())

    fd = np.zeros(4)
    h_ = 1e-5
    for i in range(4):
        up, down = np.ones(4), np.ones(4)
        up[i] += h_
        down[i] -= h_
        fd[i] = (loss_fn(up) - loss_fn(down)) / (2 * h_)
    assert max_rel_err(gate.grad, fd) < 1e-4


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(rng.normal(size=(3, 4, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            h = causal_attention(matmul(x, w), x, x, n_head=2)
            h = dropout(h, 0.3, np.random.default_rng(7))
            loss = scalarize(sigmoid(h))
        tape.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert gx1.tobytes() == gx2.tobytes()
    assert gw1.tobytes() == gw2.tobytes()


# ---------------------------------------------------------------------------
# the engine keeps only the ops the model uses


def test_every_public_function_runs_in_a_gated_training_step(monkeypatch):
    public = [name for name, obj in vars(ag).items()
              if inspect.isfunction(obj) and obj.__module__ == ag.__name__
              and not name.startswith("_")]
    called = set()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in public:
        monkeypatch.setattr(ag, name, spy(name, getattr(ag, name)))
    model, vocab = build_tiny(n_layers=2)
    batch = pack_segments(hand_sequences(), vocab, 0, dtype=model.dtype)
    with Tape() as tape:
        probs = model.forward_batch(batch, gates=model.make_gates(), drop_p=0.1,
                                    rng=np.random.default_rng(0))
        loss = ag.bce_loss(probs, batch.targets, batch.pred_mask)
    tape.backward(loss)
    assert sorted(set(public) - called) == []
