import copy
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kttrace.autograd import Tape, bce_loss, mul, Tensor
from kttrace.data import (
    DatasetSpec,
    PreparedDataset,
    Splits,
    SyntheticConfig,
    generate_synthetic,
    in_batches,
    pack_rows,
    pack_segments,
    preprocess,
)
from kttrace.importance import (
    ImportanceProfile,
    LayerImportance,
    compute_importance,
    constant_profile,
    expand_importance,
    freeze_masks,
    modulate,
)
from helpers import build_tiny, hand_sequences, shares_rows
from oracles import oracle_gate_gradients


def prepared_tiny(sequences=None, name="d0", index=0):
    seqs = sequences if sequences is not None else hand_sequences()
    return PreparedDataset(spec=DatasetSpec(name, index),
                           splits=Splits(train=seqs, valid=[], test=[]),
                           n_questions=12, n_kcs=6)


# ---------------------------------------------------------------------------
# expansion


def test_expand_weight_copies_rows():
    out = expand_importance(np.array([0.5, 1.0]), (2, 3))
    np.testing.assert_array_equal(out, [[0.5, 0.5, 0.5], [1.0, 1.0, 1.0]])


def test_expand_bias_is_vector_itself():
    np.testing.assert_array_equal(expand_importance(np.array([0.5, 1.0]), (2,)),
                                  [0.5, 1.0])


def test_expand_all_ones_any_shape():
    for shape in [(3,), (3, 7), (3, 1)]:
        assert (expand_importance(np.ones(3), shape) == 1.0).all()


def test_expand_rejects_mismatch():
    model, _ = build_tiny()
    profile = constant_profile(model, 1.0)
    profile.layers[(0, "output")].values = np.ones(3, dtype=np.float32)
    with pytest.raises(ValueError, match="shape"):
        profile.check_covers(model.gate_widths())


# ---------------------------------------------------------------------------
# modulation


def fixture_grads(model):
    rng = np.random.default_rng(0)
    return {name: rng.normal(size=t.shape).astype(np.float32)
            for name, t in model.parameters().items()}


def test_modulate_all_ones_is_bitwise_identity():
    model, _ = build_tiny(dtype=np.float32)
    grads = fixture_grads(model)
    want = {name: g.tobytes() for name, g in grads.items()}
    out = modulate(grads, constant_profile(model, 1.0), model.gated_layers())
    assert out is grads   # scaled in place
    for name in grads:
        assert out[name].tobytes() == want[name], name


def test_modulate_all_zeros_freezes_gated_only():
    model, _ = build_tiny(dtype=np.float32)
    grads = fixture_grads(model)
    want = {name: g.tobytes() for name, g in grads.items()}
    out = modulate(grads, constant_profile(model, 0.0), model.gated_layers())
    gated = {n for names in model.gated_layers().values() for n in names}
    for name in grads:
        if name in gated:
            assert (out[name] == 0.0).all(), name
        else:
            assert out[name].tobytes() == want[name], name


def test_modulate_missing_layer_errors():
    model, _ = build_tiny()
    profile = constant_profile(model, 1.0)
    del profile.layers[(0, "output")]
    with pytest.raises(ValueError, match="missing"):
        profile.check_covers(model.gate_widths())


@pytest.mark.parametrize("case", ["nan", "negative", "unknown-kind"])
def test_check_covers_rejects_bad_values_and_layers(case):
    model, _ = build_tiny()
    profile = constant_profile(model, 1.0)
    values = profile.layers[(0, "attention")].values
    if case == "nan":
        values[1] = np.nan
    elif case == "negative":
        values[1] = -0.5
    else:
        profile.add(LayerImportance(0, "embedding", values.copy()))
    with pytest.raises(ValueError, match="non-finite|unknown"):
        profile.check_covers(model.gate_widths())


def test_freeze_masks_cover_zero_rows():
    model, _ = build_tiny(dtype=np.float32)
    profile = constant_profile(model, 1.0)
    width = model.gate_widths()[(0, "intermediate")]
    vals = np.ones(width, dtype=np.float32)
    vals[0] = 0.0
    profile.layers[(0, "intermediate")] = LayerImportance(0, "intermediate", vals)
    shapes = {n: t.shape for n, t in model.parameters().items()}
    masks = freeze_masks(profile, model.gated_layers(), shapes)
    assert set(masks) == {"block0.inter.w", "block0.inter.b"}
    assert masks["block0.inter.w"][0].all() and not masks["block0.inter.w"][1:].any()


# ---------------------------------------------------------------------------
# gate transparency


def test_all_ones_gates_do_not_change_forward():
    model, vocab = build_tiny(dtype=np.float32, n_layers=2)
    batch = pack_segments(hand_sequences(), vocab, 0, dtype=model.dtype)
    plain = model.forward_batch(batch).data
    gated = model.forward_batch(batch, gates=model.make_gates()).data
    assert np.abs(plain - gated).max() <= 1e-7


# ---------------------------------------------------------------------------
# importance computation


def test_importance_leaves_model_untouched():
    model, _ = build_tiny(dtype=np.float32)
    before = {n: t.data.tobytes() for n, t in model.parameters().items()}
    compute_importance(model, prepared_tiny(), batch_size=1)
    after = {n: t.data.tobytes() for n, t in model.parameters().items()}
    assert before == after


def test_importance_backpropagates_into_the_gates_only():
    model, _ = build_tiny(n_layers=2)
    prepared = prepared_tiny()
    # the same loop with every parameter requiring a gradient
    gates = model.make_gates()
    want = {lid: np.zeros(g.shape[-1]) for lid, g in gates.items()}
    for batch in in_batches(prepared.splits.train, 1):
        model.backward_batch(batch, prepared.spec.dataset_index, gates=gates)
        for lid, gate in gates.items():
            want[lid] += np.abs(gate.grad)
            gate.zero_grad()
    grads = {n: t.grad.copy() for n, t in model.parameters().items()}

    profile = compute_importance(model, prepared, batch_size=1, normalize=False)
    for lid, total in want.items():
        np.testing.assert_array_equal(profile.layers[lid].values,
                                      total / len(prepared.splits.train))
    for name, t in model.parameters().items():
        assert t.requires_grad
        np.testing.assert_array_equal(t.grad, grads[name])


def test_importance_covers_all_sublayers_and_is_nonnegative():
    model, _ = build_tiny(n_layers=2)
    profile = compute_importance(model, prepared_tiny(), batch_size=2)
    assert len(profile.layers) == 3 * 2
    profile.check_covers(model.gate_widths())
    for imp in profile.layers.values():
        assert (imp.values >= 0).all()
        assert imp.values.max() == pytest.approx(1.0)


def test_importance_empty_dataset_errors():
    model, _ = build_tiny()
    with pytest.raises(ValueError, match="no training sequences"):
        compute_importance(model, prepared_tiny(sequences=[]))


def test_dead_unit_has_exactly_zero_importance():
    # zero column f of the output projection: intermediate unit f cannot
    # reach the loss, so its gate gradient is exactly zero
    model, _ = build_tiny()
    dead = 2
    model.param("block0.output.w").data[:, dead] = 0.0
    profile = compute_importance(model, prepared_tiny(), normalize=False)
    inter = profile.layers[(0, "intermediate")].values
    assert inter[dead] == 0.0
    assert np.delete(inter, dead).min() > 0.0


def test_degenerate_model_warns_all_zero():
    model, _ = build_tiny()
    for name in ("head.w1", "head.b1", "head.w2", "head.b2"):
        model.param(name).data[:] = 0.0
    with pytest.warns(RuntimeWarning, match="all importance values are zero"):
        compute_importance(model, prepared_tiny())


def test_scale_covariance_power_of_two():
    # doubling the loss doubles every raw importance value bitwise and
    # leaves the max-normalized profile unchanged
    model, vocab = build_tiny()
    prepared = prepared_tiny()
    raw = compute_importance(model, prepared, batch_size=1, normalize=False)
    normed = compute_importance(model, prepared, batch_size=1, normalize=True)

    gates = model.make_gates()
    acc = {lid: np.zeros(g.shape[-1]) for lid, g in gates.items()}
    for seq in prepared.splits.train:
        batch = pack_segments([seq], vocab, 0, dtype=model.dtype)
        with Tape() as tape:
            probs = model.forward_batch(batch, gates=gates)
            loss = mul(bce_loss(probs, batch.targets, batch.pred_mask),
                       Tensor(np.float64(2.0)))
        tape.backward(loss)
        for lid, g in gates.items():
            acc[lid] += np.abs(g.grad)
            g.zero_grad()
    n = len(prepared.splits.train)
    for lid in acc:
        scaled = acc[lid] / n
        assert scaled.tobytes() == (2.0 * raw.layers[lid].values).tobytes()
        vmax = scaled.max()
        np.testing.assert_array_equal(scaled / vmax, normed.layers[lid].values)


def test_profile_json_round_trip(tmp_path):
    model, _ = build_tiny(dtype=np.float32)
    profile = compute_importance(model, prepared_tiny())
    path = tmp_path / "imp.json"
    profile.save(path)
    back = ImportanceProfile.load(path)
    assert back.dataset == profile.dataset
    assert back.n_samples == profile.n_samples
    for lid, imp in profile.layers.items():
        got = back.layers[lid].values.astype(np.float32)
        assert got.tobytes() == imp.values.astype(np.float32).tobytes()


PROFILE_MODEL = build_tiny(n_layers=2)[0]
VALID_PROFILE = constant_profile(PROFILE_MODEL, 1.0).to_json()
JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 400])
               | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=10)


def _slots(node):
    """Every (container, key) pair inside a JSON tree."""
    keys = list(node) if isinstance(node, dict) else (
        range(len(node)) if isinstance(node, list) else [])
    for key in keys:
        yield node, key
        yield from _slots(node[key])


@st.composite
def mutated_profiles(draw):
    """The valid profile document with a few values replaced, dropped or repeated."""
    doc = copy.deepcopy(VALID_PROFILE)
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(list(_slots(doc))))
        action = draw(st.sampled_from(["replace", "drop", "repeat"]))
        if action == "replace":
            node[key] = draw(JSON_VALUES)
        elif action == "drop":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
    return doc


def _layer0_with(**fields):
    doc = copy.deepcopy(VALID_PROFILE)
    doc["layers"][0].update(fields)
    return doc


@settings(deadline=None, max_examples=300)
@given(JSON_VALUES | mutated_profiles())
@example(VALID_PROFILE)
@example(dict(VALID_PROFILE, layers=VALID_PROFILE["layers"] * 2))
@example(_layer0_with(values=[[1.0] * 4]))
@example(_layer0_with(values=[True] * 4))
@example(_layer0_with(block=True))
@example(_layer0_with(values=[10 ** 400] * 4))
@example(dict(VALID_PROFILE, n_samples=10 ** 400))
@example(_layer0_with(values=[float("nan")] * 4))
@example(_layer0_with(values=[float("inf")] * 4))
@example(_layer0_with(values=[1e300] * 4))
@example(_layer0_with(values=[-1e300] * 4))
def test_any_json_profile_is_accepted_or_value_error(doc):
    # what a profile file can hold after json.load: typed errors only, and
    # no warning on the way (a float32 overflow once warned, then failed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ImportanceProfile.from_json(doc).check_covers(PROFILE_MODEL.gate_widths())
        except ValueError:
            pass


@pytest.mark.parametrize("value", [1e300, 3.5e38, -1.0, float("nan")])
def test_profile_value_outside_float32_range_names_the_range(value):
    with pytest.raises(ValueError, match="float32"):
        ImportanceProfile.from_json(_layer0_with(values=[value] * 4))


# ---------------------------------------------------------------------------
# oracle equivalence (hand-derived backward on the tiny graph)


def test_importance_matches_hand_derivation():
    model, _ = build_tiny(seed=11, dtype=np.float64)  # 1 block, d_model=4
    seqs = hand_sequences()
    prepared = prepared_tiny(seqs)
    profile = compute_importance(model, prepared, batch_size=1, normalize=False)
    expected = oracle_gate_gradients(model, seqs, dataset_index=0)
    for lid, vec in expected.items():
        got = profile.layers[lid].values
        assert np.abs(got - vec).max() < 1e-10, lid
        # relative agreement as well, not only absolute
        assert np.abs(got - vec).max() / max(vec.max(), 1e-12) < 1e-10


def test_importance_by_length_class_equals_one_pack_per_batch(monkeypatch):
    cfg = SyntheticConfig(n_students=120, n_questions=12, n_kcs=6, mean_seq_len=8, seed=3)
    train = preprocess(generate_synthetic(cfg)[0], seed=4).train
    model, vocab = build_tiny(seed=5, n_layers=2, max_seq_len=200)
    assert len(train) > 64
    # a smaller cap cuts a batch of 64 into parts of shared rows
    monkeypatch.setattr("kttrace.data.TAPE_CELLS", 256)
    parts = pack_rows(train[:64], vocab, 0)
    assert len(parts) > 1 and shares_rows(parts)
    got = compute_importance(model, prepared_tiny(train), batch_size=64, normalize=False)
    gates = model.make_gates()
    want = {lid: 0.0 for lid in gates}
    for start in range(0, len(train), 64):
        batch = pack_segments(train[start:start + 64], vocab, 0, dtype=np.float64)
        with Tape() as tape:
            loss = bce_loss(model.forward_batch(batch, gates=gates), batch.targets,
                            batch.pred_mask)
        tape.backward(loss)
        for lid, gate in gates.items():
            want[lid] = want[lid] + np.abs(gate.grad) / len(train)
            gate.zero_grad()
    for lid, vec in want.items():
        assert np.abs(got.layers[lid].values - vec).max() <= 1e-12 * vec.max(), lid


def test_normalized_importance_is_raw_over_max():
    model, _ = build_tiny(seed=4)
    prepared = prepared_tiny()
    raw = compute_importance(model, prepared, normalize=False)
    normed = compute_importance(model, prepared, normalize=True)
    for lid in raw.layers:
        r = raw.layers[lid].values
        np.testing.assert_array_equal(normed.layers[lid].values, r / r.max())
