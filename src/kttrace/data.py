"""Dataset ingestion, preprocessing, vocabulary unification and synthesis.

The on-disk format is a 5-line block per student (``student_id,length``,
then question IDs, KC sets, responses and timestamps), blocks apart by
empty lines; the README's "Dataset file format" states its grammar.

In memory a :class:`StudentSequence` is columnar: one int64 array per
field, KC sets as the rows of an ``[L, K]`` array right-padded with -1.
``ingest`` builds one array per field for a whole file and each sequence
is a view into it, so no Python object exists per interaction.
"""

from __future__ import annotations

import json
import os
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

    The grammar is the README's "Dataset file format". Of several faults,
    the first parse fault in file order is reported, else the earliest
    attempt with a bad response, timestamp or ID, in that order.
    """
    with open(path, "rb") as fh:
        parsed = _parse_blocks(fh.read())
    return _sequences(*parsed) if parsed else []


def _parse_blocks(data):
    """Each block's header line index, student ID and end row, and one
    array per field, of a block-format file's bytes; None for no block.

    Raises ``DataFormatError`` for the first parse fault in file order:
    block by block, and in a block its header, its data lines' tokens,
    then its field counts. Python works per block only; each data row is
    joined across blocks and checked and parsed in whole-row numpy passes.
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"line {line}: not UTF-8 text") from None
    # replace copies the file even when nothing matches
    lines = (data.replace(b"\r\n", b"\n") if b"\r" in data else data).split(b"\n")
    heads, student_ids, declared = [], [], []
    faults = []   # (block, rank within the block, message)
    i, n = 0, len(lines)
    while i < n:
        if not lines[i]:
            i += 1
            continue
        text = lines[i].decode("utf-8")
        parts = text.strip().rsplit(",", 1)
        fault = ("truncated block (need 5 lines)" if i + 4 >= n
                 else f"header must be 'student_id,length', got {text!r}"
                 if len(parts) != 2 or "\r" in text
                 else f"bad length {parts[1]!r}"
                 if not (parts[1].isascii() and parts[1].isdigit()) else None)
        if fault:
            faults.append((len(heads), 0, f"line {i + 1}: {fault}"))
            break
        heads.append(i)
        student_ids.append(parts[0].strip())
        declared.append(int(parts[1]))
        i += 5
    if not heads:
        if faults:
            raise DataFormatError(faults[0][2])
        return None
    rows = [_scan(b"\n".join([lines[h + k] for h in heads]), what)
            for k, what in enumerate(("question ID", None, "response", "timestamp"), 1)]
    for k, (_, _, bad) in enumerate(rows, 1):
        if bad:
            faults.append((bad[0], k, f"line {heads[bad[0]] + k + 1}: {bad[1]}"))
    (q, q_cuts, _), (flat, kc_cuts, _), (r, r_cuts, _), (t, t_cuts, _) = rows
    # the KC row's fields end at "," and "\n", its KCs at "_" too
    new_field = np.concatenate(([True], kc_cuts != ord("_")))
    counts = [np.diff(np.flatnonzero(np.append(cuts, ord("\n")) == ord("\n")), prepend=-1)
              for cuts in (q_cuts, kc_cuts[new_field[1:]], r_cuts, t_cuts)]   # values per line
    unequal = np.any([c != counts[0] for c in counts[1:]], axis=0)
    # an object array, so that a length beyond int64 compares too
    wrong = unequal | (counts[0] != np.array(declared, dtype=object))
    if wrong.any():
        b = int(np.argmax(wrong))
        faults.append((b, 5, f"line {heads[b] + 1}: " + (
            f"unequal field counts across block lines ({'/'.join(str(c[b]) for c in counts)})"
            if unequal[b] else f"declared length {declared[b]} != {counts[0][b]} fields")))
    if faults:
        raise DataFormatError(min(faults)[2])
    bounds = list(accumulate(declared, initial=0))
    kcs = _kc_sets(flat, new_field, lambda j: heads[bisect_right(bounds, j) - 1] + 3)
    return heads, student_ids, bounds, q, r, t, kcs


def _scan(row, what):
    """(values, the byte after each token but the last, first fault) of a
    data row joined across blocks, ``\\n`` between them.

    ``what`` names the row's values, None the KC row's, whose KCs are
    joined by ``_`` too. The fault is None, or (block, message) for the
    first token that is not a data token or does not fit in int64; only a
    row without one is parsed.
    """
    buf = np.frombuffer(row, dtype=np.uint8)
    other = np.flatnonzero((buf - ord("0")) >= 10)   # uint8 wraps the bytes below "0"
    byte = buf[other]
    is_cut = (byte == ord(",")) | (byte == ord("\n"))
    if what is None:
        is_cut |= byte == ord("_")
    cut, odd = other[is_cut], other[~is_cut]
    cuts = buf[cut]
    start = np.concatenate(([0], cut + 1))   # token j is row[start[j]:end[j]]
    end = np.append(cut, len(buf))
    digits = end - start
    tok = np.searchsorted(cut, odd)   # the token of each byte that is no digit and no cut
    sign = (buf[odd] == ord("-")) & (odd == start[tok])
    digits[tok[sign]] -= 1
    bad = (digits < 1) | (digits > 19)
    bad[tok[~sign]] = True
    over = [j for j in np.flatnonzero(~bad & (digits == 19)).tolist()
            if not -2**63 <= int(row[start[j]:end[j]]) < 2**63]
    bad[over] = True
    if not bad.any():
        # every token fits in int64, so numpy's text reader parses each exactly
        stops = b"\n" if what else b"_\n"
        return np.fromstring(row.translate(bytes.maketrans(stops, b"," * len(stops))),
                             dtype=np.int64, sep=","), cuts, None
    j = int(np.argmax(bad))
    newline = cut[cuts == ord("\n")]
    block = int(np.searchsorted(newline, start[j]))
    if j in over:
        return None, cuts, (block, "a value does not fit in 64 bits")
    if what:
        return None, cuts, (block, f"bad {what} value {row[start[j]:end[j]].decode()!r}")
    lo = int(newline[block - 1]) + 1 if block else 0
    line = row[lo:].split(b"\n", 1)[0]
    column = line.count(b",", 0, start[j] - lo) + 1
    field = line.split(b",")[column - 1].decode()
    return None, cuts, (block, f"bad KC set {field!r}" if field
                        else f"empty KC set in column {column}")


def _kc_sets(flat, new_field, line_of):
    """The ``[N, K]`` array of sorted, de-duplicated KC sets, right-padded
    with -1, of the KCs ``flat``, where ``new_field`` marks each set's first.

    Sets of at most 8 KCs, repeats counted, are sorted together by a
    compare-exchange network on a ``[K, N]`` array, whose work grows with
    K**2; each wider set is sorted alone, so memory stays the KCs plus
    the output. An output too large to reserve raises ``DataFormatError``
    naming ``line_of(i)``, the line of its widest set i.
    """
    first = np.flatnonzero(new_field)
    raw = np.diff(first, append=len(flat))   # KCs of each set, repeats too
    set_of = np.cumsum(new_field) - 1
    top = np.iinfo(np.int64).max   # sorts last
    sets = np.full((min(int(raw.max()), 8), len(first)), top)   # [K, N]: a set per column
    # a wide set's column takes some of its KCs; it is sorted alone below
    sets[np.minimum(np.arange(len(flat)) - first[set_of], len(sets) - 1), set_of] = flat
    _sort_columns(sets)
    repeat = sets[1:] == sets[:-1]
    if repeat.any():
        sets[1:][repeat] = top
        _sort_columns(sets)
    real_top = set_of[flat == top]   # the sets with a KC equal to the sentinel
    size = (sets != top).sum(axis=0)
    size[real_top] += 1   # a repeated index adds once
    wide = {i: np.unique(flat[first[i]:first[i] + raw[i]]) for i in np.flatnonzero(raw > 8)}
    for i, kcs in wide.items():
        size[i] = len(kcs)
    widest = int(np.argmax(size))
    width = int(size[widest])
    if not can_reserve(8 * len(first) * width):
        raise DataFormatError(
            f"line {line_of(widest)}: a set of {width} KCs makes the KC array of "
            f"{len(first)} attempts {8 * len(first) * width} bytes, more than this "
            f"process can reserve")
    out = np.full((len(first), width), -1, dtype=np.int64)
    out[:, :len(sets)] = sets[:width].T
    out[out == top] = -1
    out[real_top, size[real_top] - 1] = top   # such a KC is its set's last
    for i, kcs in wide.items():
        out[i, :len(kcs)] = kcs
    return out


def can_reserve(nbytes):
    """Whether this process can make an array of ``nbytes`` bytes: not more
    than physical memory, which an overcommitting OS may promise and then
    kill for, and reserved once, so ``RLIMIT_AS`` refuses it here, not midway."""
    if nbytes > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        return False
    try:
        np.empty(nbytes, dtype=np.uint8)
    except MemoryError:
        return False
    return True


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
