import dataclasses
import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kttrace import data
from kttrace.data import (
    ROW_WIDTH,
    TAPE_CELLS,
    DataFormatError,
    DatasetSpec,
    GlobalVocab,
    SyntheticConfig,
    build_vocab,
    clean_sequences,
    generate_synthetic,
    in_batches,
    ingest,
    mix_batches,
    pack_rows,
    pack_segments,
    preprocess,
    simulate_sequences,
    write_blocks,
)
from helpers import BLOCK, EDITS, OUTSIDE_THE_GRAMMAR, apply_edit, seq_of
from oracles import oracle_pack, oracle_parse_blocks, oracle_simulate


def make_seq(sid, length, q0=0):
    return seq_of(sid, [(q0 + j % 5, (j % 3,), j % 2, 1000 * j) for j in range(length)])


# ---------------------------------------------------------------------------
# ingestion


def test_ingest_block(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text(BLOCK)
    seqs = ingest(p)
    assert len(seqs) == 1
    seq = seqs[0]
    assert seq.student_id == "s1" and len(seq) == 3
    assert seq.kcs.tolist() == [[2, 3], [4, -1], [2, -1]]
    assert seq.questions.tolist() == [10, 11, 10]
    assert seq.responses.tolist() == [1, 0, 1]
    assert seq.timestamps.tolist() == [100, 200, 300]


def test_ingest_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    assert ingest(p) == []


def test_ingest_bad_response(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text(BLOCK.replace("1,0,1", "1,2,1"))
    with pytest.raises(DataFormatError, match="response must be 0 or 1"):
        ingest(p)


def test_ingest_unequal_field_counts(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text(BLOCK.replace("2_3,4,2", "2_3,4"))
    with pytest.raises(DataFormatError, match="unequal field counts"):
        ingest(p)


def test_ingest_reports_line_number(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text(BLOCK + "\n" + BLOCK.replace("1,0,1", "1,x,1"))
    with pytest.raises(DataFormatError, match="line 10"):
        ingest(p)


def test_roundtrip_write_then_ingest(tmp_path):
    rng = np.random.default_rng(3)
    seqs = []
    for s in range(5):
        rows = []
        ts = 0
        for j in range(int(rng.integers(3, 12))):
            ts += int(rng.integers(0, 5000))
            kcs = tuple(sorted(rng.choice(9, size=int(rng.integers(1, 4)), replace=False).tolist()))
            rows.append((int(rng.integers(0, 40)), kcs, int(rng.integers(0, 2)), ts))
        seqs.append(seq_of(f"u{s}", rows, width=3))   # the widest set here has 3 KCs
    p = tmp_path / "rt.txt"
    write_blocks(seqs, p)
    back = ingest(p)
    assert back == seqs


# One fault in the middle block of three; line numbers count from the file's top.
SINGLE_FAULTS = [
    ("1,0,1", "1,2,1", "line 10: response must be 0 or 1, got 2"),
    ("100,200,300", "-5,200,300", "line 11: negative timestamp -5"),
    ("100,200,300", "100,300,200", "line 11: timestamps must be non-decreasing"),
    ("2_3,4,2", "2_3,,2", "line 9: empty KC set in column 2"),
    ("2_3,4,2", "2_3,4,x", "line 9: bad KC set 'x'"),
    ("10,11,10", "10,-11,10", "line 8: negative ID in column 2"),
    ("2_3,4,2", "2_3,4,2_-1", "line 8: negative ID in column 3"),
]


@pytest.mark.parametrize("old,new,message", SINGLE_FAULTS, ids=[
    "bad-response", "negative-timestamp", "decreasing-timestamp", "empty-kc-set",
    "bad-kc-token", "negative-question", "negative-kc"])
def test_ingest_single_fault_message_and_line(tmp_path, old, new, message):
    p = tmp_path / "d.txt"
    p.write_text(BLOCK + "\n" + BLOCK.replace(old, new) + "\n" + BLOCK)
    with pytest.raises(DataFormatError) as info:
        ingest(p)
    assert str(info.value) == message


@pytest.mark.parametrize("middle,last,message", [
    # the earliest bad attempt wins; within one attempt, the response is checked first
    ("s1,3\n10,11,10\n2_3,4,2\n1,0,5\n100,-200,300\n", BLOCK,
     "line 11: negative timestamp -200"),
    ("s1,3\n10,11,10\n2_3,4,2\n1,7,1\n100,-200,300\n", BLOCK,
     "line 10: response must be 0 or 1, got 7"),
    # a parse fault anywhere in the file wins over a bad value before it
    (BLOCK.replace("1,0,1", "1,2,1"), BLOCK.replace("2_3,4,2", "2_3,4,x"),
     "line 15: bad KC set 'x'"),
], ids=["earliest-attempt-wins", "response-checked-first", "parse-fault-wins"])
def test_ingest_reports_one_of_several_faults(tmp_path, middle, last, message):
    p = tmp_path / "d.txt"
    p.write_text(BLOCK + "\n" + middle + "\n" + last)
    with pytest.raises(DataFormatError) as info:
        ingest(p)
    assert str(info.value) == message


@pytest.mark.parametrize("old,line", [("10,11,10", 2), ("2_3,4,2", 3), ("1,0,1", 4),
                                      ("100,200,300", 5)])
@pytest.mark.parametrize("huge", [2**63, -2**63 - 1])
def test_ingest_rejects_tokens_beyond_int64(tmp_path, old, line, huge):
    p = tmp_path / "d.txt"
    first, rest = old.split(",", 1)
    p.write_text(BLOCK + "\n" + BLOCK.replace(old, f"{first}_{huge},{rest}" if line == 3
                                                  else f"{huge},{rest}"))
    with pytest.raises(DataFormatError, match=f"^line {line + 6}: .* does not fit in 64 bits"):
        ingest(p)


def test_ingest_shares_one_array_per_field(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text(BLOCK + "\n" + BLOCK.replace("s1", "s2"))
    a, b = ingest(p)
    for field in ("questions", "kcs", "responses", "timestamps"):
        whole = getattr(a, field).base
        assert whole is not None and getattr(b, field).base is whole


@st.composite
def sequences(draw, max_id=2**63 - 1):
    out = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 6))
        ids = st.integers(0, max_id)
        kc_sets = st.sets(ids, min_size=1, max_size=10)   # past 8 KCs, a set sorts alone
        rows = zip(draw(st.lists(ids, min_size=n, max_size=n)),
                   draw(st.lists(kc_sets, min_size=n, max_size=n)),
                   draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                   np.cumsum(draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n))))
        sid = draw(st.from_regex(r"[A-Za-z0-9_,.-]{1,8}", fullmatch=True))
        out.append([sid, [(q, tuple(sorted(k)), r, int(t)) for q, k, r, t in rows]])
    widest = max((len(row[1]) for _, rows in out for row in rows), default=1)
    return [seq_of(sid, rows, width=widest) for sid, rows in out]   # as ingest pads a file


@settings(max_examples=60, deadline=None)
@given(sequences())
def test_ingest_inverts_write_blocks(seqs):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "rt.txt"
        write_blocks(seqs, path)
        assert ingest(path) == seqs


def outcome(parse, path):
    """``parse(path)``'s sequences, or its ``DataFormatError`` message."""
    try:
        return parse(path)
    except DataFormatError as err:
        return str(err)


def ingest_outcome(kc_line):
    """The sequences, or the error, of a three-attempt block with this KC line."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "kc.txt"
        path.write_text(BLOCK.replace("2_3,4,2", kc_line))
        return outcome(ingest, path)


# any KC token text: digits, signs, other Unicode digits, exponents, letters,
# huge values; no separators, so each draw is one field
KC_TOKENS = st.one_of(st.text("0123456789-+\u0663ex", min_size=1, max_size=6),
                      st.integers(-2**64, 2**64).map(str))


@settings(max_examples=150, deadline=None)
@given(KC_TOKENS)
def test_a_one_kc_field_parses_like_the_same_kc_twice(token):
    # a field without "_" takes ingest's one-KC path, "t_t" the set path:
    # both give the same sequences or the same message for the same field
    doubled = f"{token}_{token}"
    expected = ingest_outcome(f"2_3,{doubled},2")
    if isinstance(expected, str):
        expected = expected.replace(repr(doubled), repr(token))
    assert ingest_outcome(f"2_3,{token},2") == expected


def ingest_by_token(path):
    """The per-token parser: the oracle of ``ingest``."""
    with open(path, "rb") as fh:
        parsed = oracle_parse_blocks(fh.read())
    return data._sequences(*parsed) if parsed else []


@st.composite
def edited_files(draw):
    """``write_blocks`` output with one to three edits."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.txt"
        write_blocks(draw(sequences(max_id=draw(st.sampled_from([99, 2**63 - 1])))), path)
        text = path.read_text(encoding="utf-8")
    return functools.reduce(apply_edit, draw(st.lists(EDITS, min_size=1, max_size=3)), text)


@settings(max_examples=400, deadline=None)
@example(text="s1,3\n10,11,10\n2_3,4,2\n1,0,1\n100,200,300\n")
@example(text="s1,3\n10,11,10\n3_3,4_1_4,9_2_5\n1,0,1\n100,200,300\n")   # unsorted, repeated
@example(text="s1,3\n10,11,10\n12_3_11_1_10_2_9_4_8_5_7_6_3,4,2\n1,0,1\n100,200,300\n")   # 12 KCs
@example(text="s1,3\n10,11,10\n" + "_".join(["5"] * 10000) + ",4,2\n1,0,1\n100,200,300\n")
@example(text="s1,3\r\n10,11,10\r\n2_3,4,2\r\n1,0,1\r\n100,200,300\r\n")
@example(text="s1,3\n10, 11,10\n2_3,4,2\n1,0,1\n100,200,300\n")
@example(text="s1,3\n10,11,10\n2_3,4,2\n1,0,1\n100,200,1000000000000000000\n")
@example(text="s1,3\n10,11,10\n9_8_7_6_5_4_3_2_1_9223372036854775807,"
              "9223372036854775807_2,2\n1,0,1\n100,200,300\n")   # a KC equal to int64's top
@given(text=edited_files())
def test_ingest_equals_the_per_token_parser_on_any_edited_file(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.txt"
        path.write_bytes(text.encode("utf-8"))   # as written: "\r" stays "\r"
        assert outcome(ingest, path) == outcome(ingest_by_token, path)


@pytest.mark.parametrize("name", list(OUTSIDE_THE_GRAMMAR))
def test_a_file_outside_the_grammar_is_refused(tmp_path, name):
    text, message = OUTSIDE_THE_GRAMMAR[name]
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(ingest, path) == outcome(ingest_by_token, path) == message


def test_write_blocks_keeps_a_negative_kc_id(tmp_path):
    # [3, -12]: only -1 cells are padding; -12 must read back as an error
    path = tmp_path / "neg.txt"
    write_blocks([seq_of("s", [(1, (3, -12), 0, 0), (2, (4,), 1, 5), (3, (5,), 1, 9)])], path)
    assert path.read_text().splitlines()[2] == "3_-12,4,5"
    with pytest.raises(DataFormatError, match="negative ID"):
        ingest(path)


# ---------------------------------------------------------------------------
# preprocessing protocol


def test_short_sequence_dropped():
    assert clean_sequences([make_seq("a", 2)]) == []


def test_boundary_lengths_kept():
    out = clean_sequences([make_seq("a", 3), make_seq("b", 200)])
    assert [len(s) for s in out] == [3, 200]


def test_long_sequence_segmented():
    out = clean_sequences([make_seq("a", 450)])
    assert [len(s) for s in out] == [200, 200, 50]
    # segments are consecutive, not overlapping
    whole = make_seq("a", 450)
    assert out == [whole[:200], whole[200:400], whole[400:]]


def test_trailing_short_segment_dropped():
    out = clean_sequences([make_seq("a", 402)])
    assert [len(s) for s in out] == [200, 200]


def test_clean_is_idempotent():
    seqs = [make_seq("a", 450), make_seq("b", 2), make_seq("c", 77)]
    once = clean_sequences(seqs)
    twice = clean_sequences(once)
    assert once == twice


def test_split_students_disjoint_and_deterministic():
    seqs = [make_seq(f"s{i}", 5 + i) for i in range(20)]
    a = preprocess(seqs, seed=11)
    b = preprocess(seqs, seed=11)
    for (_, sa), (_, sb) in zip(a, b):
        assert sa == sb
    test_ids = {s.student_id for s in a.test}
    rest_ids = {s.student_id for s in a.train} | {s.student_id for s in a.valid}
    assert not (test_ids & rest_ids)
    assert len(a.test) == 4  # 20% of 20 students


def test_preprocess_rejects_empty():
    with pytest.raises(ValueError):
        preprocess([], seed=0)
    with pytest.raises(ValueError, match="survived"):
        preprocess([make_seq("a", 2), make_seq("b", 1)], seed=0)


# ---------------------------------------------------------------------------
# vocabulary


def vocab_two():
    specs = [DatasetSpec("d0", 0), DatasetSpec("d1", 1)]
    return build_vocab(specs, {"d0": (100, 10), "d1": (50, 5)})


def test_vocab_offsets_concatenate():
    v = vocab_two()
    assert v.q_offsets == [0, 100]
    assert v.total_questions == 150
    assert v.kc_offsets == [0, 10]
    assert v.total_kcs == 15


def test_vocab_translate_offset_arithmetic():
    v = vocab_two()
    assert v.question_to_global(1, 7) == 107
    assert v.kc_to_global(1, 4) == 14
    local = np.array([[0, 49], [50, -1]])
    assert v.question_to_global(1, local).tolist() == [[100, 149], [151, 151]]
    assert v.kc_to_global(0, local).tolist() == [[0, 15], [15, 15]]


def test_vocab_bijective_per_dataset():
    v = vocab_two()
    for to_global, sizes, total in ((v.question_to_global, (100, 50), v.total_questions),
                                    (v.kc_to_global, (10, 5), v.total_kcs)):
        ranges = [to_global(d, np.arange(n)) for d, n in enumerate(sizes)]
        for d, rows in enumerate(ranges):   # injective onto one contiguous block
            assert np.array_equal(rows, rows[0] + np.arange(sizes[d]))
        joined = np.concatenate(ranges)   # blocks are disjoint and tile [0, total)
        assert sorted(joined.tolist()) == list(range(total))


def test_vocab_unknown_ids_map_to_reserved_rows():
    v = vocab_two()
    assert v.question_to_global(0, 100) == 150  # first UNK row
    assert v.question_to_global(1, 9999) == 151
    assert v.n_question_rows == 152


def test_vocab_rejects_overlapping_index():
    specs = [DatasetSpec("a", 0), DatasetSpec("b", 0)]
    with pytest.raises(ValueError, match="overlapping"):
        build_vocab(specs, {"a": (5, 2), "b": (5, 2)})


@pytest.mark.parametrize("entry, field", [
    (("d", 0, float("inf"), 2), "n_questions"), (("d", 0, 3, -1), "n_kcs"),
    (("d", 0, 2.5, 2), "n_questions"), (("d", True, 3, 2), "dataset_index"),
    ((["d"], 0, 3, 2), "name"),
])
def test_vocab_rejects_a_size_that_is_not_an_int_at_least_zero(entry, field):
    with pytest.raises(ValueError, match=field):
        GlobalVocab([entry])


def test_vocab_extension_appends_range():
    v = vocab_two().extended("new", 30, 4)
    assert v.n_datasets == 3
    assert v.question_to_global(2, 0) == 150
    assert v.total_questions == 180
    assert v.unk_question(2) == 182


# ---------------------------------------------------------------------------
# batching


def test_mix_batches_exhausts_once_with_expected_ratio():
    big = [make_seq(f"a{i}", 5) for i in range(90)]
    small = [make_seq(f"b{i}", 5) for i in range(10)]
    batches = list(mix_batches([big, small], batch_size=10, seed=5))
    assert len(batches) == 10
    counts = {0: 0, 1: 0}
    seen = []
    for d, segs in batches:
        counts[d] += 1
        seen.extend(s.student_id for s in segs)
    assert counts == {0: 9, 1: 1}
    assert sorted(seen) == sorted(s.student_id for s in big + small)


def test_mix_batches_single_dataset_plain_shuffle():
    segs = [make_seq(f"s{i}", 4) for i in range(23)]
    batches = list(mix_batches([segs], batch_size=8, seed=1))
    assert [len(b) for _, b in batches] == [8, 8, 7]
    ids = [s.student_id for _, b in batches for s in b]
    assert sorted(ids) == sorted(s.student_id for s in segs)
    assert ids != [s.student_id for s in segs]  # actually shuffled


def test_mix_batches_deterministic():
    segs = [[make_seq(f"s{i}", 4) for i in range(30)],
            [make_seq(f"t{i}", 4) for i in range(12)]]

    def trace(seed):
        return [(d, [s.student_id for s in b]) for d, b in mix_batches(segs, 7, seed)]

    assert trace(9) == trace(9)
    assert trace(9) != trace(10)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(), max_size=40), st.integers(-3, 45))
def test_in_batches_cuts_consecutive_runs(items, batch_size):
    if batch_size < 1:
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            in_batches(items, batch_size)
        return
    runs = in_batches(items, batch_size)
    assert [x for run in runs for x in run] == items
    assert all(len(run) == batch_size for run in runs[:-1])
    assert all(1 <= len(run) <= batch_size for run in runs)


def test_mix_batches_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        list(mix_batches([[make_seq("a", 4)]], batch_size=0, seed=0))


def test_pack_segments_shapes_and_masks():
    v = vocab_two()
    segs = [make_seq("a", 4), make_seq("b", 6)]
    batch = pack_segments(segs, v, dataset_index=1)
    assert batch.questions.shape == (2, 6)
    assert batch.pred_mask[0, :, 0].tolist() == [1, 1, 1, 0, 0, 0]
    assert batch.pred_mask[1, :, 0].tolist() == [1, 1, 1, 1, 1, 0]
    # targets are next-step responses
    assert batch.targets[1, 0, 0] == segs[1].responses[1]
    # padding uses the dataset's reserved row
    assert batch.questions[0, 5] == v.unk_question(1)


@pytest.mark.parametrize("seed", range(8))
def test_pack_segments_matches_the_per_interaction_oracle(seed):
    rng = np.random.default_rng(seed)
    v = vocab_two()
    d = int(rng.integers(0, 2))
    nq, nk = (100, 10) if d == 0 else (50, 5)
    segs = []
    for s in range(int(rng.integers(1, 7))):
        rows = [(int(rng.integers(0, nq + 20)),    # some IDs unseen -> UNK
                 tuple(sorted(rng.choice(nk + 3, size=int(rng.integers(1, 4)), replace=False))),
                 int(rng.integers(0, 2)), 10 * j)
                for j in range(int(rng.integers(1, 12)))]
        segs.append(seq_of(f"s{s}", rows, width=int(rng.integers(3, 6))))  # stored width > K
    for dtype in (np.float32, np.float64):
        got, want = pack_segments(segs, v, d, dtype=dtype), oracle_pack(segs, v, d, dtype=dtype)
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, f.name
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b, f.name


def id_segments(lengths, response=1):
    """Segment i asks question i at every step, so a cell names its segment."""
    return [seq_of(f"s{i}", [(i, (0,), response, 0)] * n) for i, n in enumerate(lengths)]


def slots(part):
    """(segment, row, first column, length) per segment of a packed part,
    read off its arrays: a real cell's question names its segment."""
    out = []
    for r in range(part.questions.shape[0]):
        cols = np.flatnonzero(part.questions[r] < 100)   # dataset 0 has 100 questions
        for c in cols[part.positions[r, cols] == 0]:
            n = int(np.sum(part.questions[r] == part.questions[r, c]))
            out.append((int(part.questions[r, c]), r, int(c), n))
    return out


@settings(deadline=None, max_examples=150)
@given(st.lists(st.integers(1, 200), min_size=1, max_size=40))
def test_pack_rows_places_every_token_once_within_the_caps(lengths):
    v = vocab_two()
    parts = pack_rows(id_segments(lengths), v, dataset_index=0)
    capacity = max(ROW_WIDTH, max(lengths))
    placed = []
    for part in parts:
        R, W = part.questions.shape
        assert R * W <= TAPE_CELLS or R == 1
        layout = slots(part)
        # lengths lists the part's segments in slot order: row by row, left to right
        assert part.lengths.tolist() == [n for _, _, _, n in layout]
        for i, r, c, n in layout:
            # one contiguous run of the segment's steps, the one run of its id
            assert n == lengths[i]
            assert (part.questions[r, c:c + n] == i).all()
            assert part.positions[r, c:c + n].tolist() == list(range(n))
            assert (part.starts[r, c:c + n] == c).all()
            assert part.pred_mask[r, c:c + n, 0].tolist() == [1] * (n - 1) + [0]
        for r in range(R):
            used = sum(n for _, row, _, n in layout if row == r)
            assert used <= capacity
            # the cells after the last segment are padding, a run of their own
            assert (part.questions[r, used:] == v.unk_question(0)).all()
            assert (part.starts[r, used:] == used).all() and (part.positions[r, used:] == 0).all()
            assert not part.pred_mask[r, used:].any()
        assert W == max(sum(n for _, row, _, n in layout if row == r) for r in range(R))
        placed += [i for i, *_ in layout]
    assert sorted(placed) == list(range(len(lengths)))
    rows = [part.questions.shape[0] for part in parts]
    assert max(rows) - min(rows) <= 1


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(1, 120), min_size=1, max_size=40), st.randoms(use_true_random=False))
def test_pack_rows_plan_is_a_function_of_the_lengths(lengths, random):
    # the same lengths in another batch: other questions and responses, same layout
    v = vocab_two()
    first = pack_rows(id_segments(lengths), v, 0)
    ids = list(range(len(lengths)))
    random.shuffle(ids)
    other = [seq_of(f"t{i}", [(ids[i], (1, 2), 0, 0)] * n) for i, n in enumerate(lengths)]
    second = pack_rows(other, v, 0)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        for name in ("lengths", "positions", "starts", "pred_mask"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
        # segment i of one batch sits where segment i of the other does
        np.testing.assert_array_equal(np.array(ids + [v.unk_question(0)])[
            np.minimum(a.questions, len(ids))], b.questions)


def test_pack_rows_fills_rows_longest_first():
    # capacity 64, first fit by decreasing length, ties in batch order:
    # 40 + 20 + 3 | 30 + 30 | 20 + 20 + 10
    parts = pack_rows(id_segments([20, 40, 3, 30, 20, 10, 30, 20]), vocab_two(), 0)
    assert len(parts) == 1
    assert [[i for i, row, *_ in slots(parts[0]) if row == r] for r in range(3)] == [
        [1, 0, 2], [3, 6], [4, 7, 5]]


def test_pack_rows_rejects_an_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        pack_rows([], vocab_two(), 0)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_zero_spread_rate_half():
    cfg = SyntheticConfig(n_students=300, n_questions=50, n_kcs=5,
                          ability_spread=0.0, difficulty_spread=0.0,
                          learning_rate_per_exposure=0.0, mean_seq_len=40, seed=1)
    seqs, _ = generate_synthetic(cfg)
    responses = np.concatenate([s.responses for s in seqs])
    assert len(responses) >= 10000
    assert abs(np.mean(responses) - 0.5) < 0.02


def test_synthetic_saturated_ability_all_correct():
    theta = np.full(50, 10.0)
    difficulty = np.zeros(20)
    question_kcs = [((q % 4),) for q in range(20)]
    seqs, probs = simulate_sequences(theta, difficulty, question_kcs, n_kcs=4,
                                     learning_rate=0.0, mean_seq_len=20,
                                     rng=np.random.default_rng(4))
    assert all(s.responses.all() for s in seqs)
    # failure probability per interaction under sigmoid(10)
    assert all(1.0 - p < 1e-4 for ps in probs for p in ps)


@pytest.mark.parametrize("seed", range(4))
def test_simulate_sequences_matches_the_step_loop(seed):
    rng = np.random.default_rng(seed)
    n_kcs = int(rng.integers(1, 6))
    # sets of 1 to 3 KCs, repeats allowed: each occurrence counts once
    question_kcs = [tuple(rng.integers(0, n_kcs, size=int(rng.integers(1, 4))).tolist())
                    for _ in range(int(rng.integers(1, 15)))]
    theta = rng.normal(size=int(rng.integers(1, 30)))
    difficulty = rng.normal(size=len(question_kcs))
    args = (theta, difficulty, question_kcs, n_kcs, 0.3, 12)
    seqs, probs = simulate_sequences(*args, rng=np.random.default_rng(seed + 100))
    want = oracle_simulate(*args, rng=np.random.default_rng(seed + 100))
    got = [(s.questions.tolist(), s.responses.tolist(), p.tolist()) for s, p in zip(seqs, probs)]
    assert got == want


def test_synthetic_empirical_rate_matches_stored_probabilities():
    cfg = SyntheticConfig(seed=7)
    seqs, truth = generate_synthetic(cfg)
    responses = np.concatenate([s.responses for s in seqs])
    assert abs(np.mean(responses) - truth.mean_probability()) < 0.01


def test_synthetic_learning_raises_second_half_rate():
    gaps = []
    for seed in range(5):
        cfg = SyntheticConfig(n_students=150, n_questions=30, n_kcs=5,
                              ability_spread=0.5, difficulty_spread=0.5,
                              learning_rate_per_exposure=0.5, mean_seq_len=30, seed=seed)
        seqs, _ = generate_synthetic(cfg)
        first, second = [], []
        for s in seqs:
            half = len(s) // 2
            first.extend(s.responses[:half])
            second.extend(s.responses[half:])
        gaps.append(np.mean(second) - np.mean(first))
    assert np.mean(gaps) >= 0


def test_synthetic_sequence_lengths_at_least_three():
    cfg = SyntheticConfig(n_students=400, mean_seq_len=3, seed=0)
    seqs, _ = generate_synthetic(cfg)
    assert min(len(s) for s in seqs) >= 3


def test_synthetic_rejects_bad_config():
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticConfig(n_students=0))
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticConfig(mean_seq_len=2))
