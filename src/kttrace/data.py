"""Dataset ingestion, preprocessing, vocabulary unification and synthesis.

The on-disk format is a 5-line block per student:

    line 1: student_id,length
    line 2: question IDs, comma-separated
    line 3: KC sets, comma-separated; multiple KCs of one question joined by '_'
    line 4: responses (0/1), comma-separated
    line 5: timestamps (ms), comma-separated

Blocks are separated by a blank line.

In memory a :class:`StudentSequence` is columnar: one int64 array per
field, KC sets as the rows of an ``[L, K]`` array right-padded with -1.
``ingest`` builds one array per field for a whole file and each sequence
is a view into it, so no Python object exists per interaction.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

MIN_SEQ_LEN = 3
MAX_SEQ_LEN = 200


class DataFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


@dataclass(eq=False)
class StudentSequence:
    """One student's attempts in time order, one array per field.

    ``kcs[t]`` is the sorted, de-duplicated KC set of attempt ``t``,
    right-padded with -1. ``==`` compares the ID and the arrays, padding too.
    """

    student_id: str
    questions: np.ndarray      # [L]
    kcs: np.ndarray            # [L, K]
    responses: np.ndarray      # [L] 0/1
    timestamps: np.ndarray     # [L] ms

    def __len__(self):
        return len(self.questions)

    def __eq__(self, other):
        return isinstance(other, StudentSequence) and self.student_id == other.student_id and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("questions", "kcs", "responses", "timestamps"))

    def __getitem__(self, window):
        """The attempts in slice ``window``, as views."""
        return StudentSequence(self.student_id, self.questions[window], self.kcs[window],
                               self.responses[window], self.timestamps[window])


@dataclass(frozen=True)
class DatasetSpec:
    """Identity of one dataset: its name and embedding-table slot, not its files."""

    name: str
    dataset_index: int


@dataclass
class Splits:
    train: list
    valid: list
    test: list

    def __iter__(self):
        return iter([("train", self.train), ("valid", self.valid), ("test", self.test)])


@dataclass
class PreparedDataset:
    """A dataset after preprocessing, plus the ID-space sizes it needs."""

    spec: DatasetSpec
    splits: Splits
    n_questions: int
    n_kcs: int


# ---------------------------------------------------------------------------
# ingestion


def ingest(path):
    """Parse a block-format file into one StudentSequence per block.

    Tokens are parsed with ``int``. Of several faults, the first parse
    fault (a bad token, field count, length or KC set) is reported, else
    the earliest attempt with a bad response, timestamp or ID, in that order.

    A file in the canonical grammar (data tokens of 1 to 18 ASCII digits
    joined by single ``,`` and, in KC fields, ``_``, at most 8 KCs to a
    set; ``\\n`` line ends; blocks apart by empty lines) is parsed in
    whole-file numpy passes. Any other file goes through the per-token
    parser, which accepts and rejects the same files with the same result.
    """
    with open(path, "rb") as fh:
        parsed = _parse_digit_blocks(fh.read())
    if parsed is None:
        with open(path, "r", encoding="utf-8") as fh:
            parsed = _parse_tokens(fh.read())
    return _sequences(*parsed)


def _parse_digit_blocks(data):
    """``_parse_tokens``' result for a file in the canonical grammar, else None.

    Python work is per block: find the blocks and read their headers.
    Each data row is joined across blocks and parsed in one numpy pass.
    """
    if b"\r" in data:   # text mode reads "\r" as a line end
        return None
    lines = data.split(b"\n")
    heads, student_ids, declared = [], [], []
    i, n = 0, len(lines)
    while i < n:
        if not lines[i]:
            i += 1
            continue
        try:   # the per-token parser's header rule, exactly
            parts = lines[i].decode("utf-8").strip().rsplit(",", 1)
            declared.append(int(parts[1]))
        except (UnicodeDecodeError, IndexError, ValueError):
            return None
        heads.append(i)
        student_ids.append(parts[0].strip())
        i += 5
    if not heads or i > n:   # no block, or the last one cut short
        return None
    rows = [_digit_runs(b"\n".join([lines[h + k] for h in heads]), b",\n" if k != 2 else b",_\n")
            for k in (1, 2, 3, 4)]
    if any(row is None for row in rows):
        return None
    (q, q_cuts), (flat, kc_cuts), (r, r_cuts), (t, t_cuts) = rows
    # the KC row's fields end at "," and "\n", its KCs at "_" too
    new_field = np.concatenate(([True], kc_cuts != ord("_")))
    field_of = np.cumsum(new_field) - 1
    counts = [_per_line(cuts) for cuts in (q_cuts, kc_cuts[new_field[1:]], r_cuts, t_cuts)]
    if not all(np.array_equal(c, declared) for c in counts):
        return None
    bounds = list(accumulate(declared, initial=0))
    first = np.flatnonzero(new_field)
    width = int(np.diff(first, append=len(flat)).max())   # KCs of the widest set, repeats too
    if width > 8:   # the [K, N] array grows with K at every attempt, the network with K**2
        return None
    top = np.iinfo(np.int64).max   # above any 18-digit ID: sorts last
    sets = np.full((width, len(first)), top)
    sets[np.arange(len(flat)) - first[field_of], field_of] = flat   # [K, N]: a set per column
    _sort_columns(sets)
    repeat = sets[1:] == sets[:-1]
    if repeat.any():
        sets[1:][repeat] = top
        _sort_columns(sets)
    kcs = np.ascontiguousarray(sets[:int((sets != top).any(axis=1).sum())].T)
    kcs[kcs == top] = -1
    return heads, student_ids, bounds, q, r, t, kcs


def _digit_runs(row, stops):
    """(values, the byte after each value but the last) of ``row`` read
    as runs of 1 to 18 ASCII digits apart by single bytes of ``stops``;
    None for any other text."""
    buf = np.frombuffer(row, dtype=np.uint8)
    cut = np.flatnonzero((buf - ord("0")) >= 10)   # uint8 wraps the bytes below "0"
    cuts = buf[cut]
    width = np.diff(cut, prepend=-1, append=len(buf)) - 1
    allowed = np.zeros(256, dtype=bool)
    allowed[list(stops)] = True
    if width.min() < 1 or width.max() > 18 or not allowed[cuts].all():
        return None
    # every value fits in int64, so numpy's text reader parses each exactly
    return np.fromstring(row.translate(bytes.maketrans(stops, b"," * len(stops))),
                         dtype=np.int64, sep=","), cuts


def _sort_columns(a):
    """Sort each column of a 2-D array of a few rows in place.

    A network of compare-exchanges between whole rows beats ``np.sort``'s
    call per column (34 µs against 667 µs at 2 x 18,057).
    """
    for i in range(len(a) - 1, 0, -1):
        for j in range(i):
            low = np.minimum(a[j], a[j + 1])
            np.maximum(a[j], a[j + 1], out=a[j + 1])
            a[j] = low


def _per_line(cuts):
    """Values per line of a joined row, from the stop bytes between its values."""
    return np.diff(np.concatenate(([0], np.flatnonzero(cuts == ord("\n")) + 1, [len(cuts) + 1])))


def _parse_int_row(raw, line_no, what):
    tokens = raw.split(",")
    try:
        return list(map(int, tokens))
    except ValueError:
        for tok in tokens:
            try:
                int(tok)
            except ValueError:
                raise DataFormatError(f"line {line_no}: bad {what} value {tok.strip()!r}") from None


def _parse_tokens(text):
    """Parse a file's text token by token, with Python ``int``.

    Returns each block's header line index, student ID and end row, and
    one array per field; raises ``DataFormatError`` on the first parse
    fault. ``_sequences`` checks the values.
    """
    lines = text.split("\n")
    heads, student_ids, bounds = [], [], [0]   # per block: line index, id, end row
    questions, responses, stamps, kc_flat, kc_counts = [], [], [], [], []
    i = 0
    n = len(lines)
    while i < n:
        if not lines[i].strip():
            i += 1
            continue
        if i + 4 >= n:
            raise DataFormatError(f"line {i + 1}: truncated block (need 5 lines)")
        header = lines[i].strip()
        parts = header.rsplit(",", 1)
        if len(parts) != 2:
            raise DataFormatError(f"line {i + 1}: header must be 'student_id,length', got {header!r}")
        try:
            declared = int(parts[1])
        except ValueError:
            raise DataFormatError(f"line {i + 1}: bad length {parts[1]!r}") from None

        q_ids = _parse_int_row(lines[i + 1], i + 2, "question ID")
        kc_fields = lines[i + 2].split(",")
        block_responses = _parse_int_row(lines[i + 3], i + 4, "response")
        block_stamps = _parse_int_row(lines[i + 4], i + 5, "timestamp")

        lengths = (len(q_ids), len(kc_fields), len(block_responses), len(block_stamps))
        if len(set(lengths)) != 1:
            raise DataFormatError(
                f"line {i + 1}: unequal field counts across block lines "
                f"({'/'.join(map(str, lengths))})")
        if declared != len(q_ids):
            raise DataFormatError(
                f"line {i + 1}: declared length {declared} != {len(q_ids)} fields")
        for j, kc_raw in enumerate(map(str.strip, kc_fields)):
            if not kc_raw:
                raise DataFormatError(f"line {i + 3}: empty KC set in column {j + 1}")
            try:   # most attempts name one KC, which needs no set
                kc_set = (sorted({int(t) for t in kc_raw.split("_")}) if "_" in kc_raw
                          else (int(kc_raw),))
            except ValueError:
                raise DataFormatError(f"line {i + 3}: bad KC set {kc_raw!r}") from None
            kc_flat.extend(kc_set)
            kc_counts.append(len(kc_set))
        questions.extend(q_ids)
        responses.extend(block_responses)
        stamps.extend(block_stamps)
        heads.append(i)
        student_ids.append(parts[0].strip())
        bounds.append(len(questions))
        i += 5

    try:
        q, r, t, flat = (np.array(v, dtype=np.int64)
                         for v in (questions, responses, stamps, kc_flat))
    except OverflowError:
        line = next(h + k for h in heads for k in (1, 2, 3, 4) if not all(
            -2**63 <= int(tok) < 2**63 for tok in lines[h + k].replace("_", ",").split(",")))
        raise DataFormatError(f"line {line + 1}: a value does not fit in 64 bits") from None

    counts = np.array(kc_counts, dtype=np.int64)
    kcs = np.full((len(counts), int(counts.max(initial=1))), -1, dtype=np.int64)
    kcs[np.arange(kcs.shape[1]) < counts[:, None]] = flat   # column 0: each set's least KC
    return heads, student_ids, bounds, q, r, t, kcs


def _sequences(heads, student_ids, bounds, q, r, t, kcs):
    """Views of one array per field, one StudentSequence per block.

    Raises ``DataFormatError`` for the earliest attempt with a bad
    response, timestamp or ID, its checks in that order.
    """
    step_back = t < np.roll(t, 1)
    step_back[bounds[:-1]] = False   # a block's first attempt has no predecessor
    faults = np.array([(r != 0) & (r != 1), t < 0, step_back, (q < 0) | (kcs[:, 0] < 0)])
    if faults.any():   # the earliest bad attempt, its checks in this order
        j = int(np.argmax(faults.any(axis=0)))
        b = bisect_right(bounds, j) - 1
        raise DataFormatError("line " + (
            f"{heads[b] + 4}: response must be 0 or 1, got {r[j]}",
            f"{heads[b] + 5}: negative timestamp {t[j]}",
            f"{heads[b] + 5}: timestamps must be non-decreasing",
            f"{heads[b] + 2}: negative ID in column {j - bounds[b] + 1}",
        )[int(np.argmax(faults[:, j]))])

    return [StudentSequence(sid, q[a:b], kcs[a:b], r[a:b], t[a:b])
            for sid, a, b in zip(student_ids, bounds, bounds[1:])]


def write_blocks(sequences, path):
    """Emit sequences in the block format (inverse of :func:`ingest`).

    A KC set is written without its -1 padding cells (column 0 always
    stays). All the integers of the file are formatted together in
    vectorized digit passes; Python runs per sequence for the header
    line only.
    """
    sequences = list(sequences)
    if not sequences:
        open(path, "wb").close()
        return
    n_blocks = len(sequences)
    heads = [f"{seq.student_id},{len(seq)}\n".encode("utf-8") for seq in sequences]
    block = np.repeat(np.arange(n_blocks), [len(seq) for seq in sequences])   # per attempt
    set_width = max(1, max(seq.kcs.shape[1] for seq in sequences))
    kcs = np.concatenate([seq.kcs if seq.kcs.shape[1] == set_width else np.pad(
        seq.kcs, ((0, 0), (0, set_width - seq.kcs.shape[1])), constant_values=-1)
        for seq in sequences])
    kept = kcs != -1
    kept[:, 0] = True   # padding is a -1 past column 0
    kc_row = np.nonzero(kept)[0]
    q, r, t = (np.concatenate([getattr(seq, name) for seq in sequences])
               for name in ("questions", "responses", "timestamps"))
    # every value of the file, its 4 line kinds one after another; lines
    # are numbered kind by kind, so each line's values are contiguous
    values = np.concatenate([q, kcs[kept], r, t])
    line = np.concatenate([block, n_blocks + block[kc_row], 2 * n_blocks + block,
                           3 * n_blocks + block])
    neg = values < 0
    mag = values.astype(np.uint64)
    mag[neg] = -mag[neg]   # |value| in uint64, -2**63 too
    digits = np.searchsorted(10 ** np.arange(1, 20, dtype=np.uint64), mag, side="right") + 1
    width = neg + digits + 1   # sign, digits, the byte after
    # a line is its values each with the byte after, the last one "\n";
    # an empty line is its "\n"
    per_line = np.bincount(line, weights=width, minlength=4 * n_blocks).astype(np.int64)
    sizes = np.zeros((n_blocks, 6), dtype=np.int64)   # header, 4 lines, blank line
    sizes[:, 0] = [len(h) for h in heads]
    sizes[:, 1:5] = np.maximum(per_line, 1).reshape(4, n_blocks).T
    sizes[:-1, 5] = 1
    offsets = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
    start = (offsets[:, 1:5].T.ravel() - np.cumsum(per_line) + per_line)[line] \
        + np.cumsum(width) - width
    after = start + width - 1

    out = np.full(int(sizes.sum()), ord("\n"), dtype=np.uint8)
    head_bytes = np.frombuffer(b"".join(heads), dtype=np.uint8)
    out[np.repeat(offsets[:, 0] - np.cumsum(sizes[:, 0]) + sizes[:, 0], sizes[:, 0])
        + np.arange(len(head_bytes))] = head_bytes
    out[start[neg]] = ord("-")
    out[after[:-1][line[1:] == line[:-1]]] = ord(",")   # a value that does not end its line
    same_set = np.flatnonzero(kc_row[1:] == kc_row[:-1])   # KCs that a KC of their set follows
    out[after[len(q) + same_set]] = ord("_")
    last = after - 1
    while True:   # one pass per decimal place, from the last digit
        rest = mag // 10
        out[last] = mag - rest * 10 + ord("0")
        more = np.flatnonzero(rest)
        if not len(more):
            break
        mag, last = rest[more], last[more] - 1
    with open(path, "wb") as fh:
        fh.write(out)


def observed_id_sizes(sequences):
    """(max question id + 1, max KC id + 1) over all interactions."""
    def size(arrays):
        return int(np.concatenate([a.ravel() for a in arrays] + [[-1]]).max()) + 1
    return size(s.questions for s in sequences), size(s.kcs for s in sequences)


# ---------------------------------------------------------------------------
# preprocessing protocol


def clean_sequences(sequences, min_len=MIN_SEQ_LEN, max_len=MAX_SEQ_LEN):
    """Drop sequences shorter than 3; cut longer than 200 into segments.

    Over-long sequences become consecutive segments of at most ``max_len``
    interactions; a trailing segment shorter than ``min_len`` is dropped.
    Idempotent: output sequences all satisfy the bounds already.
    """
    parts = (seq if len(seq) <= max_len else seq[start:start + max_len]
             for seq in sequences for start in range(0, len(seq), max_len))
    return [part for part in parts if len(part) >= min_len]


def split_students(sequences, seed):
    """Student-level 80/20 eval split, then 90/10 train/valid inside the 80%."""
    order = list(dict.fromkeys(seq.student_id for seq in sequences))
    n = len(order)
    if n < 2:
        raise ValueError(f"need at least 2 students to split, got {n}")
    rng = np.random.default_rng(seed)
    shuffled = [order[i] for i in rng.permutation(n)]
    n_test = max(1, int(round(0.2 * n)))
    test_ids = set(shuffled[:n_test])
    pool = shuffled[n_test:]
    n_valid = max(1, int(round(0.1 * len(pool)))) if len(pool) > 1 else 0
    valid_ids = set(pool[:n_valid])
    by_id = {}
    for seq in sequences:
        by_id.setdefault(seq.student_id, []).append(seq)
    train, valid, test = [], [], []
    for sid in shuffled:
        bucket = test if sid in test_ids else valid if sid in valid_ids else train
        bucket.extend(by_id[sid])
    if not train:
        raise ValueError("empty training split; dataset too small")
    return Splits(train=train, valid=valid, test=test)


def preprocess(sequences, seed):
    """Full protocol: length filtering, segmentation, student-level splits."""
    if not sequences:
        raise ValueError("no sequences to preprocess")
    cleaned = clean_sequences(sequences)
    if not cleaned:
        raise ValueError("no sequences survived length filtering")
    return split_students(cleaned, seed)


# ---------------------------------------------------------------------------
# vocabulary


class GlobalVocab:
    """Union ID space over datasets, with contiguous per-dataset ranges.

    Question globals for dataset d live in [q_offset(d), q_offset(d)+n_q);
    KCs likewise. One reserved UNK row per dataset sits past the real
    rows, used for IDs first seen at evaluation time.
    """

    def __init__(self, entries):
        # entries: list of (name, dataset_index, n_questions, n_kcs)
        for name, *values in entries:
            if not isinstance(name, str):
                raise ValueError(f"dataset name must be a str, got {name!r}")
            for field_name, value in zip(("dataset_index", "n_questions", "n_kcs"), values):
                # the counts size the embedding tables; bool is an int
                # subclass, but no count is a flag
                if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                    raise ValueError(f"dataset {name!r}: {field_name} must be an int >= 0, "
                                     f"got {value!r}")
        indexes = [e[1] for e in entries]
        if sorted(indexes) != list(range(len(entries))):
            raise ValueError(f"dataset_index values must be exactly 0..{len(entries) - 1}, "
                             f"got {sorted(indexes)}")
        self.entries = sorted(entries, key=lambda e: e[1])
        q_ends = list(accumulate((e[2] for e in self.entries), initial=0))
        kc_ends = list(accumulate((e[3] for e in self.entries), initial=0))
        self.q_offsets, self.total_questions = q_ends[:-1], q_ends[-1]
        self.kc_offsets, self.total_kcs = kc_ends[:-1], kc_ends[-1]

    @property
    def n_datasets(self):
        return len(self.entries)

    @property
    def n_question_rows(self):
        return self.total_questions + self.n_datasets

    @property
    def n_kc_rows(self):
        return self.total_kcs + self.n_datasets

    def _entry(self, dataset_index):
        if not 0 <= dataset_index < self.n_datasets:
            raise ValueError(f"unknown dataset_index {dataset_index}")
        return self.entries[dataset_index]

    def unk_question(self, dataset_index):
        self._entry(dataset_index)
        return self.total_questions + dataset_index

    def unk_kc(self, dataset_index):
        self._entry(dataset_index)
        return self.total_kcs + dataset_index

    def question_to_global(self, dataset_index, local):
        """Global rows of local question IDs (an int or an array); others get UNK."""
        nq = self._entry(dataset_index)[2]
        return np.where((local >= 0) & (local < nq), self.q_offsets[dataset_index] + local,
                        self.unk_question(dataset_index))

    def kc_to_global(self, dataset_index, local):
        """Global rows of local KC IDs (an int or an array); others get UNK."""
        nk = self._entry(dataset_index)[3]
        return np.where((local >= 0) & (local < nk), self.kc_offsets[dataset_index] + local,
                        self.unk_kc(dataset_index))

    def extended(self, name, n_questions, n_kcs):
        """New vocab with one more dataset appended at the next index."""
        entries = list(self.entries) + [(name, self.n_datasets, n_questions, n_kcs)]
        return GlobalVocab(entries)

    def to_json(self):
        return {"datasets": [
            {"name": n, "dataset_index": i, "n_questions": nq, "n_kcs": nk}
            for n, i, nq, nk in self.entries]}

    @classmethod
    def from_json(cls, obj):
        return cls([(d["name"], d["dataset_index"], d["n_questions"], d["n_kcs"])
                    for d in obj["datasets"]])


def build_vocab(specs, sizes):
    """Assemble a GlobalVocab from dataset specs and per-dataset ID maxima.

    ``sizes`` maps spec name -> (n_questions, n_kcs).
    """
    if not specs:
        raise ValueError("need at least one dataset")
    indexes = [s.dataset_index for s in specs]
    repeated = [d for k, d in enumerate(indexes) if d in indexes[:k]]
    if repeated:
        raise ValueError(f"overlapping dataset_index {repeated[0]}")
    return GlobalVocab([(s.name, s.dataset_index, *sizes[s.name]) for s in specs])


# ---------------------------------------------------------------------------
# batching


ROW_WIDTH = 64      # least token capacity of a packed row
TAPE_CELLS = 512    # most rows x width cells of one training part, unless it is one row
# A forward without a tape keeps only the activations in flight, so
# scoring three times the cells of a training part peaks lower than it.
SCORE_CELLS = 3 * TAPE_CELLS


@dataclass
class PackedBatch:
    """Integer arrays for one single-dataset batch, segments end to end in rows.

    Row r holds one or more segments back to back from column 0; the
    cells after its last segment are padding, a run of their own.
    ``positions`` is each token's step within its segment (0 on padding)
    and ``starts`` the column where its run begins, so a query at column
    t may attend keys ``[starts[r, t], t]`` only. ``pred_mask[r, t]``
    marks tokens whose segment has a next step; scoring starts at the
    second interaction of each segment, so the number of scored
    predictions per segment is its length minus one, and no prediction
    reads across a boundary. ``lengths`` lists the segments in slot
    order: row by row, left to right.
    """

    dataset_index: int
    questions: np.ndarray      # [R, W] global ids
    kcs: np.ndarray            # [R, W, K] global ids
    kc_weight: np.ndarray      # [R, W, K] K/|KC set| on real KCs, else 0
    responses: np.ndarray      # [R, W]
    targets: np.ndarray        # [R, W, 1] response of the segment's next step
    pred_mask: np.ndarray      # [R, W, 1]
    lengths: np.ndarray        # [segments]
    positions: np.ndarray      # [R, W] step within the segment
    starts: np.ndarray         # [R, W] column where the token's run begins


def pack_segments(segments, vocab, dataset_index, dtype=np.float32, per_row=None):
    """Translate segments to global IDs and lay them end to end into rows.

    Row r holds the next ``per_row[r]`` segments, in order; by default
    every segment has a row of its own, right-padded to the longest. The
    width is the fullest row's token count. ``K`` is the largest KC set
    in the batch, whatever width the segments pad their KC sets to.
    """
    if not segments:
        raise ValueError("cannot pack an empty batch")
    lengths = np.array([len(s) for s in segments], dtype=np.int64)
    per_row = (np.ones(len(segments), dtype=np.int64) if per_row is None
               else np.asarray(per_row, dtype=np.int64))
    R = len(per_row)
    first = np.cumsum(per_row) - per_row        # each row's first segment
    row = np.repeat(np.arange(R), per_row)      # each segment's row
    begin = np.cumsum(lengths) - lengths        # each segment's offset over all rows
    col = begin - begin[first][row]             # each segment's first column
    used = np.add.reduceat(lengths, first)
    T = int(used.max())
    # one entry per token: its segment, its step there, its cell
    seg = np.repeat(np.arange(len(segments)), lengths)
    step = np.arange(len(seg)) - begin[seg]
    cell = row[seg], col[seg] + step

    local_q = np.full((R, T), -1, dtype=np.int64)
    local_c = np.full((R, T, max(s.kcs.shape[1] for s in segments)), -1, dtype=np.int64)
    responses = np.zeros((R, T), dtype=np.int64)
    local_q[cell] = np.concatenate([s.questions for s in segments])
    responses[cell] = np.concatenate([s.responses for s in segments])
    for seq, r, c in zip(segments, row.tolist(), col.tolist()):
        local_c[r, c:c + len(seq), :seq.kcs.shape[1]] = seq.kcs
    positions = np.zeros((R, T), dtype=np.int64)
    positions[cell] = step
    starts = np.repeat(used[:, None], T, axis=1)
    starts[cell] = col[seg]
    scored = np.zeros((R, T), dtype=bool)
    scored[cell] = step < lengths[seg] - 1

    n_kcs = (local_c >= 0).sum(axis=2)
    K = int(n_kcs.max())
    local_c = local_c[:, :, :K]
    questions = vocab.question_to_global(dataset_index, local_q)
    kcs = vocab.kc_to_global(dataset_index, local_c)
    kc_weight = ((local_c >= 0) * (K / np.maximum(n_kcs, 1))[..., None]).astype(dtype)
    targets = np.zeros((R, T, 1), dtype=dtype)
    targets[:, :-1, 0] = np.where(scored[:, :-1], responses[:, 1:], 0)
    pred_mask = scored.astype(dtype)[..., None]
    return PackedBatch(dataset_index, questions, kcs, kc_weight, responses, targets,
                       pred_mask, lengths, positions, starts)


def pack_rows(segments, vocab, dataset_index, dtype=np.float32, cells=None):
    """Pack a batch into rows, cut into ``pack_segments`` parts.

    Segments go longest first (ties in batch order) into the first row
    with room for them; a row holds ``max(ROW_WIDTH, longest)`` tokens.
    The rows are cut into consecutive parts of near-equal row count, each
    of at most ``cells`` cells (rows x the fullest row's tokens) unless
    it is a single row; ``cells`` is ``TAPE_CELLS`` when None, the cap of
    a part that trains on a tape, and scoring passes ``SCORE_CELLS``. The
    rows do not depend on the cap, only where they are cut. Every segment
    is in exactly one part, and the plan depends on the segments' lengths
    and the cap only.
    """
    if not segments:
        raise ValueError("cannot pack an empty batch")
    lengths = [len(s) for s in segments]
    order = sorted(range(len(segments)), key=lengths.__getitem__, reverse=True)
    capacity = max(ROW_WIDTH, lengths[order[0]])
    rows, room = [], []
    for i in order:
        r = next((r for r, free in enumerate(room) if free >= lengths[i]), len(rows))
        if r == len(rows):
            rows.append([])
            room.append(capacity)
        rows[r].append(i)
        room[r] -= lengths[i]
    per_part = max(1, (TAPE_CELLS if cells is None else cells) // (capacity - min(room)))
    n_parts = -(-len(rows) // per_part)
    bounds = [len(rows) * k // n_parts for k in range(n_parts + 1)]
    return [pack_segments([segments[i] for row in rows[a:b] for i in row], vocab,
                          dataset_index, dtype, per_row=[len(row) for row in rows[a:b]])
            for a, b in zip(bounds, bounds[1:])]


def in_batches(segments, batch_size):
    """Consecutive runs of ``batch_size`` segments; the last may be shorter."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return [segments[i:i + batch_size] for i in range(0, len(segments), batch_size)]


def mix_batches(train_lists, batch_size, seed):
    """Yield (dataset position, segment list) batches across datasets.

    Every batch is a run of ``in_batches`` over one dataset's shuffled
    segments, the dataset chosen with probability proportional to its
    remaining segments; one pass exhausts every dataset exactly once. The
    order is a pure function of the seed.
    """
    rng = np.random.default_rng(seed)
    runs = [iter(in_batches([segs[i] for i in rng.permutation(len(segs))], batch_size))
            for segs in train_lists]
    remaining = np.array([len(segs) for segs in train_lists], dtype=np.float64)
    while remaining.sum() > 0:
        d = int(rng.choice(len(runs), p=remaining / remaining.sum()))
        batch = next(runs[d])
        remaining[d] -= len(batch)
        yield d, batch


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SyntheticConfig:
    """Knobs for the one-parameter-logistic response simulator."""

    n_students: int = 200
    n_questions: int = 100
    n_kcs: int = 10
    ability_spread: float = 1.0
    difficulty_spread: float = 1.0
    learning_rate_per_exposure: float = 0.05
    mean_seq_len: int = 30
    seed: int = 0

    def validate(self):
        if min(self.n_students, self.n_questions, self.n_kcs) <= 0:
            raise ValueError("counts must be positive")
        if self.mean_seq_len < MIN_SEQ_LEN:
            raise ValueError(f"mean_seq_len must be >= {MIN_SEQ_LEN}")
        if self.ability_spread < 0 or self.difficulty_spread < 0:
            raise ValueError("spreads must be non-negative")
        if self.learning_rate_per_exposure < 0:
            raise ValueError("learning_rate_per_exposure must be >= 0")


@dataclass
class SyntheticTruth:
    """Generating parameters kept alongside a synthetic dataset."""

    theta: np.ndarray          # per-student ability
    difficulty: np.ndarray     # per-question difficulty
    question_kcs: list         # KC tuple per question
    probabilities: list = field(default_factory=list)  # float64 array per sequence

    def mean_probability(self):
        return float(np.mean(np.concatenate(self.probabilities)))


def simulate_sequences(theta, difficulty, question_kcs, n_kcs, learning_rate,
                       mean_seq_len, rng):
    """Draw one sequence per student from the logistic response model.

    Response probability at step j is sigmoid(theta - b + lr * e_j) where
    e_j is the mean number of earlier attempts on the question's KCs
    within the same sequence. Returns (sequences, per-sequence p arrays).
    """
    n_questions = len(difficulty)
    width = max(map(len, question_kcs))
    kc_table = np.array([list(k) + [-1] * (width - len(k)) for k in question_kcs], dtype=np.int64)
    sequences, all_probs = [], []
    for s in range(len(theta)):
        length = max(MIN_SEQ_LEN, int(rng.geometric(1.0 / mean_seq_len)))
        qs = rng.integers(0, n_questions, size=length)
        kcs = kc_table[qs]
        # row j counts step j's KCs; exposure[j] counts them over steps before j
        member = (kcs[..., None] == np.arange(n_kcs)).sum(axis=1)
        exposure = np.cumsum(member, axis=0) - member
        seen = (exposure * member).sum(axis=1) / member.sum(axis=1)
        logit = theta[s] - difficulty[qs] + learning_rate * seen
        probs = 1.0 / (1.0 + np.exp(-logit))
        responses = (rng.random(length) < probs).astype(np.int64)
        sequences.append(StudentSequence(f"s{s}", qs, kcs, responses,
                                         60000 * np.arange(length, dtype=np.int64)))
        all_probs.append(probs)
    return sequences, all_probs


def generate_synthetic(config):
    """Simulate a dataset: sample abilities/difficulties, then responses."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    theta = rng.normal(0.0, config.ability_spread, config.n_students)
    difficulty = rng.normal(0.0, config.difficulty_spread, config.n_questions)
    question_kcs = [tuple(sorted(rng.choice(config.n_kcs, size=int(rng.integers(1, 3)),
                                            replace=False).tolist()))
                    for _ in range(config.n_questions)]
    sequences, probs = simulate_sequences(
        theta, difficulty, question_kcs, config.n_kcs,
        config.learning_rate_per_exposure, config.mean_seq_len, rng)
    return sequences, SyntheticTruth(theta, difficulty, question_kcs, probs)


def write_truth_sidecar(truth, sequences, path):
    """Ground-truth sidecar: per-student ability and per-question difficulty."""
    obj = {
        "theta": {seq.student_id: float(t) for seq, t in zip(sequences, truth.theta)},
        "difficulty": [float(b) for b in truth.difficulty],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
