import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kttrace.autograd import Tape, bce_loss
from kttrace.data import (
    DatasetSpec,
    PreparedDataset,
    SyntheticConfig,
    build_vocab,
    generate_synthetic,
    mix_batches,
    pack_rows,
    pack_segments,
    preprocess,
)
from kttrace.importance import LayerImportance, constant_profile
from kttrace.model import KTModel, ModelConfig, _parameter_specs, zero_shot_adapt
from kttrace.train import (
    Adam,
    Checkpoint,
    CheckpointDigestError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    EarlyStopper,
    TrainConfig,
    TrainingDivergedError,
    clip_gradients,
    fit,
    importance_scale,
    load_checkpoint,
    save_checkpoint,
    stage_seed,
)
from kttrace.metrics import collect_predictions, auc
from helpers import build_tiny, checkpoint_bytes, shares_rows, split_checkpoint
from oracles import PerTensorAdam, per_tensor_clip


def make_prepared(name="d0", index=0, n_students=20, seed=0, n_questions=10, n_kcs=4):
    cfg = SyntheticConfig(n_students=n_students, n_questions=n_questions, n_kcs=n_kcs,
                          ability_spread=1.0, difficulty_spread=1.0,
                          learning_rate_per_exposure=0.1, mean_seq_len=8, seed=seed)
    seqs, _ = generate_synthetic(cfg)
    splits = preprocess(seqs, seed=seed + 1)
    return PreparedDataset(spec=DatasetSpec(name, index), splits=splits,
                           n_questions=n_questions, n_kcs=n_kcs)


def model_for(datasets, seed=0, d_model=8, n_layers=1, n_head=2, d_ff=8):
    vocab = build_vocab([d.spec for d in datasets],
                        {d.spec.name: (d.n_questions, d.n_kcs) for d in datasets})
    config = ModelConfig(n_layers=n_layers, d_model=d_model, n_head=n_head,
                         d_ff=d_ff, dropout=0.1, max_seq_len=32)
    return KTModel.build(config, vocab, seed=seed), vocab


def quiet_config(**kw):
    defaults = dict(learning_rate=1e-3, dropout=0.1, max_epochs=4, patience=3,
                    batch_size=8, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_matches_hand_trace():
    # single 64-bit parameter, three steps, written out by hand
    w = np.array([1.0])
    cfg = quiet_config(learning_rate=1e-3)
    opt = Adam(w, cfg)
    grads = [0.5, -0.3, 0.2]
    m = v = 0.0
    expect = 1.0
    for t, g in enumerate(grads, start=1):
        opt.step(np.array([g]))
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1.0 - 0.9 ** t)
        vhat = v / (1.0 - 0.999 ** t)
        expect -= 1e-3 * mhat / (vhat ** 0.5 + 1e-8)
        assert abs(w[0] - expect) < 1e-10


def test_adam_frozen_elements_never_move():
    w = np.zeros(6)
    opt = Adam(w, quiet_config())
    frozen = np.array([True] * 3 + [False] * 3)
    for _ in range(5):
        opt.step(np.ones(6), frozen=frozen)
    assert (w[:3] == 0.0).all()
    assert (w[3:] != 0.0).all()
    assert (opt.m[:3] == 0.0).all() and (opt.v[:3] == 0.0).all()


def test_clip_gradients():
    grads = np.array([3.0, 4.0])
    clipped, norm = clip_gradients(grads, 5.0)
    assert norm == 5.0 and clipped is grads  # at the boundary: untouched
    assert clipped.tolist() == [3.0, 4.0]
    clipped, norm = clip_gradients(grads, 2.5)
    assert norm == 5.0 and clipped is grads  # scaled in place
    total = np.sqrt(float(np.sum(clipped ** 2)))
    assert total == pytest.approx(2.5, rel=1e-12)


gradient_runs = st.integers(0, 2**32 - 1).flatmap(lambda seed: st.tuples(
    st.just(seed),
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 5)), min_size=1, max_size=4),
    st.integers(1, 6),
    st.sampled_from([np.float32, np.float64]),
    st.booleans()))


@settings(max_examples=80, deadline=None)
@given(gradient_runs)
def test_flat_adam_equals_the_per_tensor_oracle_bit_for_bit(run):
    seed, shapes, steps, dtype, with_mask = run
    rng = np.random.default_rng(seed)
    names = [f"p{i}" for i in range(len(shapes))]
    sizes = [rows * cols for rows, cols in shapes]
    flat = rng.normal(0.0, 0.1, sum(sizes)).astype(dtype)
    pieces = np.split(flat.copy(), np.cumsum(sizes)[:-1])
    oracle = PerTensorAdam({n: piece.reshape(shape) for n, piece, shape
                            in zip(names, pieces, shapes)}, 1e-3)
    frozen = rng.random(flat.size) < 0.3 if with_mask else None
    frozen_by_name = None
    if with_mask:
        frozen_by_name = {n: m.reshape(shape) for n, m, shape
                          in zip(names, np.split(frozen, np.cumsum(sizes)[:-1]), shapes)}
    opt = Adam(flat, quiet_config())
    for _ in range(steps):
        # gradients of mixed magnitudes, some exactly zero
        g = (rng.normal(size=flat.size) * 10.0 ** rng.integers(-9, 3, flat.size)).astype(dtype)
        g[rng.random(flat.size) < 0.1] = 0.0
        opt.step(g.copy(), frozen=frozen)
        oracle.step({n: piece.reshape(shape) for n, piece, shape
                     in zip(names, np.split(g, np.cumsum(sizes)[:-1]), shapes)},
                    frozen=frozen_by_name)
        for got, want in ((flat, oracle.params), (opt.m, oracle.m), (opt.v, oracle.v)):
            assert got.dtype == dtype
            assert got.tobytes() == np.concatenate(
                [want[n].reshape(-1) for n in names]).tobytes()


@settings(max_examples=60, deadline=None)
@given(gradient_runs, st.floats(1e-3, 1e3))
def test_flat_clip_equals_the_per_tensor_oracle(run, max_norm):
    seed, shapes, _, dtype, _ = run
    rng = np.random.default_rng(seed)
    sizes = [rows * cols for rows, cols in shapes]
    flat = (rng.normal(size=sum(sizes)) * 10.0 ** rng.integers(-3, 3)).astype(dtype)
    pieces = dict(enumerate(np.split(flat.copy(), np.cumsum(sizes)[:-1])))
    want, want_norm = per_tensor_clip(pieces, max_norm)
    got, norm = clip_gradients(flat, max_norm)
    # one sum over the buffer rounds differently from a sum of per-tensor
    # sums, by a few float64 units in the last place, which the scale passes on
    assert norm == pytest.approx(want_norm, rel=1e-14)
    np.testing.assert_allclose(got, np.concatenate(list(want.values())),
                               rtol=8 * np.finfo(dtype).eps, atol=0)


def test_early_stopper_patience_window():
    stopper = EarlyStopper(patience=10)
    seq = {7: 0.9}  # best at epoch 7, flat otherwise
    stopped_at = None
    for epoch in range(40):
        improved, stop = stopper.update(seq.get(epoch, 0.5 if epoch else 0.6), epoch)
        if stop:
            stopped_at = epoch
            break
    assert stopper.best_epoch == 7
    assert stopped_at == 17


def test_train_config_warns_off_grid():
    with pytest.warns(UserWarning, match="learning_rate"):
        TrainConfig(learning_rate=5e-4)
    with pytest.warns(UserWarning, match="dropout"):
        TrainConfig(dropout=0.35)


def test_stage_seed_is_stable_and_label_sensitive():
    assert stage_seed(7, "pretrain") == stage_seed(7, "pretrain")
    assert stage_seed(7, "pretrain") != stage_seed(7, "finetune")
    assert stage_seed(7, "pretrain") != stage_seed(8, "pretrain")


# ---------------------------------------------------------------------------
# checkpoint format


def ckpt_roundtrip_fixture(tmp_path, seed=0):
    model, _ = build_tiny(seed=seed, dtype=np.float32)
    ckpt = Checkpoint.from_model(model, {"stage": "test", "seed": seed})
    path = tmp_path / "m.lrkt"
    save_checkpoint(ckpt, path)
    return model, ckpt, path


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model, ckpt, path = ckpt_roundtrip_fixture(tmp_path)
    back = load_checkpoint(path)
    assert back.config == ckpt.config
    assert back.vocab.to_json() == ckpt.vocab.to_json()
    assert back.metadata == ckpt.metadata
    for name, arr in ckpt.params.items():
        assert back.params[name].tobytes() == arr.tobytes(), name
    rebuilt = back.build_model()
    for name, t in model.parameters().items():
        assert rebuilt.param(name).data.tobytes() == t.data.tobytes()


def test_checkpoint_of_the_older_header_layout_loads(tmp_path):
    # older headers also listed each dataset's prepared directory and copied
    # the vocabulary's counts into the config
    _, ckpt, path = ckpt_roundtrip_fixture(tmp_path)
    current = path.read_bytes()
    header, payload = split_checkpoint(current)
    vocab = ckpt.vocab
    header["dataset_specs"] = [{"name": n, "dataset_index": i, "path": f"/work/prepared/{n}"}
                               for n, i, _, _ in vocab.entries]
    header["config"].update(n_questions=vocab.total_questions, n_kcs=vocab.total_kcs,
                            n_datasets=vocab.n_datasets)
    path.write_bytes(checkpoint_bytes(header, payload))
    back = load_checkpoint(path)
    assert back.config == ckpt.config
    assert back.vocab.to_json() == ckpt.vocab.to_json()
    assert back.metadata == ckpt.metadata
    for name, arr in ckpt.params.items():
        assert back.params[name].tobytes() == arr.tobytes(), name
    save_checkpoint(back, path)
    assert path.read_bytes() == current


def test_checkpoint_save_is_deterministic(tmp_path):
    _, ckpt, path = ckpt_roundtrip_fixture(tmp_path)
    path2 = tmp_path / "m2.lrkt"
    save_checkpoint(ckpt, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    _, _, path = ckpt_roundtrip_fixture(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch_names_both(tmp_path):
    import struct

    _, _, path = ckpt_roundtrip_fixture(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError, match="version 9.*reads 1"):
        load_checkpoint(path)


def test_checkpoint_truncated_by_one_byte(tmp_path):
    _, _, path = ckpt_roundtrip_fixture(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(path)


def test_checkpoint_digest_mismatch(tmp_path):
    _, _, path = ckpt_roundtrip_fixture(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-40] ^= 0x01  # flip a payload byte, keep the length
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointDigestError, match="digest"):
        load_checkpoint(path)


def test_checkpoint_trailing_junk(tmp_path):
    _, _, path = ckpt_roundtrip_fixture(tmp_path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_save_and_load_copy_no_payload(tmp_path):
    model, _ = build_tiny(n_layers=2, d_model=128, n_head=4, d_ff=256, dtype=np.float32)
    ckpt = Checkpoint.from_model(model, {"stage": "test"})
    payload = 4 * model.n_params
    path = tmp_path / "m.lrkt"
    peaks = []
    for run in (lambda: save_checkpoint(ckpt, path), lambda: load_checkpoint(path)):
        tracemalloc.start()
        try:
            back = run()
            peaks.append(tracemalloc.get_traced_memory()[1] / payload)
        finally:
            tracemalloc.stop()
    # saving hashes and writes each array from its own buffer; loading
    # holds the file's bytes and one copy of the arrays
    assert peaks[0] < 1.1 and peaks[1] < 2.1, peaks
    for name, arr in ckpt.params.items():
        assert back.params[name].tobytes() == arr.tobytes(), name


# ---------------------------------------------------------------------------
# training loops


def eval_train_loss(model, prepared):
    batch = pack_segments(prepared.splits.train, model.vocab,
                          prepared.spec.dataset_index, model.dtype)
    return bce_loss(model.forward_batch(batch), batch.targets, batch.pred_mask).item()


def test_pretrain_reduces_loss_and_keeps_best():
    prepared = make_prepared()
    model, _ = model_for([prepared])
    initial_loss = eval_train_loss(model, prepared)
    ckpt = fit(model, [prepared], quiet_config(max_epochs=30, patience=30))
    # fit leaves the model holding exactly the parameters it returns
    for name, t in model.parameters().items():
        assert t.data.tobytes() == ckpt.params[name].tobytes(), name
    assert eval_train_loss(ckpt.build_model(), prepared) < initial_loss
    assert ckpt.metadata["best_val_auc"] == max(ckpt.metadata["val_auc_history"])
    # restored parameters really are the best ones: re-evaluating the
    # returned model reproduces the recorded best validation AUC
    restored = ckpt.build_model()
    probs, labels = collect_predictions(restored, prepared.splits.valid, 0)
    assert auc(probs, labels) == pytest.approx(ckpt.metadata["best_val_auc"], abs=1e-12)


def test_pretrain_deterministic_bitwise(tmp_path):
    prepared = make_prepared()

    def run(path):
        model, _ = model_for([prepared], seed=3)
        ckpt = fit(model, [prepared], quiet_config(max_epochs=3, seed=5))
        save_checkpoint(ckpt, path)

    run(tmp_path / "a.lrkt")
    run(tmp_path / "b.lrkt")
    assert (tmp_path / "a.lrkt").read_bytes() == (tmp_path / "b.lrkt").read_bytes()


def test_pretrain_mixes_multiple_datasets():
    rich = [make_prepared("d0", 0, seed=0), make_prepared("d1", 1, seed=1)]
    model, _ = model_for(rich)
    ckpt = fit(model, rich, quiet_config(max_epochs=2))
    assert [name for name, *_ in ckpt.vocab.entries] == ["d0", "d1"]
    assert len(ckpt.metadata["val_auc_history"]) == 2


def test_fit_step_gradients_equal_one_single_pack(monkeypatch):
    # one batch holds the whole train split; fit runs it as parts of shared
    # rows, several of them under a smaller cap
    prepared = make_prepared(n_students=40)
    train = prepared.splits.train
    model, vocab = model_for([prepared], seed=2)
    model = KTModel.from_arrays(model.config, vocab, model.views(model.copy_arrays()),
                                dtype=np.float64)
    monkeypatch.setattr("kttrace.data.TAPE_CELLS", 256)
    parts = pack_rows(train, vocab, 0)
    assert len(parts) > 1 and shares_rows(parts)
    batch = pack_segments(train, vocab, 0, dtype=np.float64)
    with Tape() as tape:
        loss = bce_loss(model.forward_batch(batch), batch.targets, batch.pred_mask)
    tape.backward(loss)
    want = {name: t.grad.copy() for name, t in model.parameters().items()}
    model.zero_grad()

    seen = []
    original = Adam.step

    def record(self, grads, frozen=None):
        seen.append(model.views(grads.copy()))
        return original(self, grads, frozen)

    monkeypatch.setattr(Adam, "step", record)
    with pytest.warns(UserWarning, match="dropout"):
        config = quiet_config(max_epochs=1, batch_size=len(train), dropout=0.0,
                              clip_norm=None)
    ckpt = fit(model, [prepared], config)
    assert len(seen) == 1 and seen[0].keys() == want.keys()
    for name, g in want.items():
        assert np.abs(seen[0][name] - g).max() <= 1e-12 * np.abs(g).max(), name
    assert ckpt.metadata["final_train_loss"] == pytest.approx(loss.item(), rel=1e-12)


def test_fit_trains_with_a_length_one_segment():
    prepared = make_prepared()
    prepared.splits.train.insert(0, prepared.splits.train[0][:1])
    model, _ = model_for([prepared])
    before = model.views(model.copy_arrays())
    ckpt = fit(model, [prepared], quiet_config(max_epochs=2, batch_size=64))
    assert np.isfinite(ckpt.metadata["final_train_loss"])
    assert all(np.isfinite(a).all() for a in ckpt.params.values())
    assert ckpt.params["head.w1"].tobytes() != before["head.w1"].tobytes()


def test_finetune_identity_property_all_ones(tmp_path):
    prepared = make_prepared()
    model, _ = model_for([prepared])
    base = fit(model, [prepared], quiet_config(max_epochs=2))

    cfg = quiet_config(max_epochs=5, patience=50, seed=9)
    plain = fit(base.build_model(), [prepared], cfg)
    ones = fit(base.build_model(), [prepared], cfg,
               profile=constant_profile(base.build_model(), 1.0))
    p1, p2 = tmp_path / "plain.lrkt", tmp_path / "ones.lrkt"
    save_checkpoint(plain, p1)
    save_checkpoint(ones, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_finetune_freeze_property_all_zeros():
    prepared = make_prepared()
    model, _ = model_for([prepared])
    base = fit(model, [prepared], quiet_config(max_epochs=2))
    zeros = constant_profile(base.build_model(), 0.0)
    # 2 batches/epoch x 25 epochs = 50 optimizer steps, no early stop
    ckpt = fit(base.build_model(), [prepared],
               quiet_config(max_epochs=25, patience=100), profile=zeros)
    tuned_model = ckpt.build_model()
    gated = {n for names in tuned_model.gated_layers().values() for n in names}
    for name in gated:
        assert ckpt.params[name].tobytes() == base.params[name].tobytes(), name
    assert ckpt.params["emb.question"].tobytes() != base.params["emb.question"].tobytes()
    assert ckpt.params["head.w1"].tobytes() != base.params["head.w1"].tobytes()


def test_single_step_row_level_freeze():
    # importance [0, 1] on a 2-unit sublayer: row 0 stays, row 1 moves
    prepared = make_prepared()
    model, vocab = model_for([prepared], d_ff=2)
    profile = constant_profile(model, 1.0)
    profile.layers[(0, "intermediate")] = LayerImportance(
        0, "intermediate", np.array([0.0, 1.0], dtype=np.float32))
    scale, frozen = importance_scale(model, profile)
    assert frozen is not None
    before = model.param("block0.inter.w").data.copy()

    batch = pack_segments(prepared.splits.train[:4], vocab, 0, model.dtype)
    model.zero_grad()
    with Tape() as tape:
        loss = bce_loss(model.forward_batch(batch), batch.targets, batch.pred_mask)
    tape.backward(loss)
    Adam(model.flat_params, quiet_config()).step(model.flat_grads * scale, frozen=frozen)

    after = model.param("block0.inter.w").data
    assert after[0].tobytes() == before[0].tobytes()
    assert (after[1] != before[1]).any()


def test_finetune_rejects_uncovered_dataset():
    prepared = make_prepared()
    model, _ = model_for([prepared])
    alien = make_prepared("other", 1, seed=3)
    with pytest.raises(ValueError, match="not in the checkpoint vocabulary"):
        fit(model, [alien], quiet_config(max_epochs=1))


def test_divergence_reports_epoch_and_history():
    prepared = make_prepared()
    model, _ = model_for([prepared])
    # blow up the attention scores: q.k products overflow float32
    model.param("block0.attn.wq").data *= 1e22
    model.param("block0.attn.wk").data *= 1e22
    with pytest.raises(TrainingDivergedError, match="epoch 0"):
        fit(model, [prepared], quiet_config(max_epochs=1))


@pytest.mark.parametrize("clip_norm", [5.0, None], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("where", ["mid-run", "last-step"])
def test_non_finite_gradient_ends_fit_before_the_update(monkeypatch, where, clip_norm):
    prepared = make_prepared()
    model, _ = model_for([prepared])
    config = quiet_config(max_epochs=3, patience=5, batch_size=4, clip_norm=clip_norm)
    per_epoch = sum(1 for _ in mix_batches([prepared.splits.train], config.batch_size,
                                           seed=[config.seed, 0xBA, 0]))
    assert per_epoch >= 3
    # the second step of the second epoch, or the run's last step
    bad = per_epoch + 1 if where == "mid-run" else 3 * per_epoch - 1
    original = KTModel.backward_batch
    calls, before = [], []

    def poisoned(self, *args, **kwargs):
        loss = original(self, *args, **kwargs)
        if len(calls) == bad:
            before.append(self.flat_params.copy())
            self.param("block0.inter.w").grad[0, 0] = np.inf
        calls.append(loss)
        return loss

    monkeypatch.setattr(KTModel, "backward_batch", poisoned)
    with pytest.raises(TrainingDivergedError) as info:
        fit(model, [prepared], config)
    epoch, step = divmod(bad, per_epoch)
    assert (info.value.epoch, info.value.step) == (epoch, bad)
    assert f"non-finite gradient at epoch {epoch}, step {bad};" in str(info.value)
    assert len(calls) == bad + 1
    assert model.flat_params.tobytes() == before[0].tobytes()


def check_bound_to_flat_buffers(model):
    """Every parameter's .data and .grad are views of the model's two flat
    buffers, at their offsets in checkpoint order."""
    flats = (model.flat_params, model.flat_grads)
    assert [f.dtype for f in flats] == [model.dtype] * 2
    names = [name for name, _, _ in _parameter_specs(model.config, model.vocab)]
    assert list(model.parameters()) == names
    offset = 0
    for t in model.parameters().values():
        for arr, flat in zip((t.data, t.grad), flats):
            assert np.shares_memory(arr, flat), t.name
            assert arr.flags.c_contiguous and arr.dtype == flat.dtype, t.name
            address = flat.__array_interface__["data"][0] + offset * flat.itemsize
            assert arr.__array_interface__["data"][0] == address, t.name
        offset += t.data.size
    assert offset == model.flat_params.size == model.flat_grads.size == model.n_params


def test_parameters_are_views_of_the_flat_buffers(tmp_path):
    prepared = make_prepared()
    model, vocab = model_for([prepared])
    check_bound_to_flat_buffers(model)
    model.backward_batch(prepared.splits.train[:4], 0)
    model.param("head.w1").zero_grad()
    check_bound_to_flat_buffers(model)
    assert not model.param("head.w1").grad.any() and model.flat_grads.any()
    check_bound_to_flat_buffers(KTModel.from_arrays(
        model.config, vocab, model.views(model.copy_arrays()), dtype=np.float64))
    adapted = zero_shot_adapt(model, "new", n_questions=5, n_kcs=3, seed=1)
    check_bound_to_flat_buffers(adapted)
    ckpt = fit(model, [prepared], quiet_config(max_epochs=2))
    check_bound_to_flat_buffers(model)
    assert model.flat_params.tobytes() == np.concatenate(
        [a.reshape(-1) for a in ckpt.params.values()]).tobytes()
    save_checkpoint(ckpt, tmp_path / "m.lrkt")
    loaded = load_checkpoint(tmp_path / "m.lrkt").build_model()
    check_bound_to_flat_buffers(loaded)
    assert loaded.flat_params.tobytes() == model.flat_params.tobytes()


def test_fit_requires_validation_split():
    prepared = make_prepared()
    prepared.splits.valid.clear()
    model, _ = model_for([prepared])
    with pytest.raises(ValueError, match="valid"):
        fit(model, [prepared], quiet_config())
