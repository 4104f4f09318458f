"""Dataset ingestion, preprocessing, vocabulary unification and synthesis.

The on-disk format is a 5-line block per student:

    line 1: student_id,length
    line 2: question IDs, comma-separated
    line 3: KC sets, comma-separated; multiple KCs of one question joined by '_'
    line 4: responses (0/1), comma-separated
    line 5: timestamps (ms), comma-separated

Blocks are separated by a blank line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MIN_SEQ_LEN = 3
MAX_SEQ_LEN = 200


class DataFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


@dataclass(frozen=True)
class Interaction:
    """One attempt: question, its KC set, the 0/1 response, time in ms."""

    question_id: int
    kc_ids: tuple
    response: int
    timestamp: int


@dataclass
class StudentSequence:
    student_id: str
    interactions: list

    def __len__(self):
        return len(self.interactions)


@dataclass(frozen=True)
class DatasetSpec:
    """Identity of one dataset: its name, embedding-table slot, and file."""

    name: str
    dataset_index: int
    path: str = ""


@dataclass
class Splits:
    train: list
    valid: list
    test: list

    def __iter__(self):
        yield "train", self.train
        yield "valid", self.valid
        yield "test", self.test


@dataclass
class PreparedDataset:
    """A dataset after preprocessing, plus the ID-space sizes it needs."""

    spec: DatasetSpec
    splits: Splits
    n_questions: int
    n_kcs: int


# ---------------------------------------------------------------------------
# ingestion


def _parse_int_row(raw, line_no, what):
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        try:
            out.append(int(tok))
        except ValueError:
            raise DataFormatError(f"line {line_no}: bad {what} value {tok!r}") from None
    return out


def ingest(path, spec=None):
    """Parse a block-format file into one StudentSequence per block."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    sequences = []
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
        student_id = parts[0].strip()
        try:
            declared = int(parts[1])
        except ValueError:
            raise DataFormatError(f"line {i + 1}: bad length {parts[1]!r}") from None

        q_ids = _parse_int_row(lines[i + 1], i + 2, "question ID")
        kc_fields = [f.strip() for f in lines[i + 2].split(",")]
        responses = _parse_int_row(lines[i + 3], i + 4, "response")
        stamps = _parse_int_row(lines[i + 4], i + 5, "timestamp")

        counts = {len(q_ids), len(kc_fields), len(responses), len(stamps)}
        if len(counts) != 1:
            raise DataFormatError(
                f"line {i + 1}: unequal field counts across block lines "
                f"({len(q_ids)}/{len(kc_fields)}/{len(responses)}/{len(stamps)})")
        if declared != len(q_ids):
            raise DataFormatError(
                f"line {i + 1}: declared length {declared} != {len(q_ids)} fields")

        interactions = []
        prev_ts = None
        for j in range(declared):
            if responses[j] not in (0, 1):
                raise DataFormatError(f"line {i + 4}: response must be 0 or 1, got {responses[j]}")
            if stamps[j] < 0:
                raise DataFormatError(f"line {i + 5}: negative timestamp {stamps[j]}")
            if prev_ts is not None and stamps[j] < prev_ts:
                raise DataFormatError(f"line {i + 5}: timestamps must be non-decreasing")
            prev_ts = stamps[j]
            kc_raw = kc_fields[j]
            if not kc_raw:
                raise DataFormatError(f"line {i + 3}: empty KC set in column {j + 1}")
            try:
                kcs = tuple(sorted({int(t) for t in kc_raw.split("_")}))
            except ValueError:
                raise DataFormatError(f"line {i + 3}: bad KC set {kc_raw!r}") from None
            if q_ids[j] < 0 or any(c < 0 for c in kcs):
                raise DataFormatError(f"line {i + 2}: negative ID in column {j + 1}")
            interactions.append(Interaction(q_ids[j], kcs, responses[j], stamps[j]))
        sequences.append(StudentSequence(student_id, interactions))
        i += 5
    return sequences


def write_blocks(sequences, path):
    """Emit sequences in the block format (inverse of :func:`ingest`)."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, seq in enumerate(sequences):
            if k:
                fh.write("\n")
            rows = seq.interactions
            fh.write(f"{seq.student_id},{len(rows)}\n")
            fh.write(",".join(str(r.question_id) for r in rows) + "\n")
            fh.write(",".join("_".join(str(c) for c in r.kc_ids) for r in rows) + "\n")
            fh.write(",".join(str(r.response) for r in rows) + "\n")
            fh.write(",".join(str(r.timestamp) for r in rows) + "\n")


def observed_id_sizes(sequences):
    """(max question id + 1, max KC id + 1) over all interactions."""
    mq, mc = -1, -1
    for seq in sequences:
        for r in seq.interactions:
            mq = max(mq, r.question_id)
            mc = max(mc, max(r.kc_ids))
    return mq + 1, mc + 1


# ---------------------------------------------------------------------------
# preprocessing protocol


def clean_sequences(sequences, min_len=MIN_SEQ_LEN, max_len=MAX_SEQ_LEN):
    """Drop sequences shorter than 3; cut longer than 200 into segments.

    Over-long sequences become consecutive segments of at most ``max_len``
    interactions; a trailing segment shorter than ``min_len`` is dropped.
    Idempotent: output sequences all satisfy the bounds already.
    """
    out = []
    for seq in sequences:
        if len(seq) < min_len:
            continue
        for start in range(0, len(seq), max_len):
            part = seq.interactions[start:start + max_len]
            if len(part) >= min_len:
                out.append(StudentSequence(seq.student_id, list(part)))
    return out


def split_students(sequences, seed):
    """Student-level 80/20 eval split, then 90/10 train/valid inside the 80%."""
    order = []
    seen = set()
    for seq in sequences:
        if seq.student_id not in seen:
            seen.add(seq.student_id)
            order.append(seq.student_id)
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
        indexes = [e[1] for e in entries]
        if sorted(indexes) != list(range(len(entries))):
            raise ValueError(f"dataset_index values must be exactly 0..{len(entries) - 1}, "
                             f"got {sorted(indexes)}")
        self.entries = sorted(entries, key=lambda e: e[1])
        self.q_offsets, self.kc_offsets = [], []
        q, c = 0, 0
        for _, _, nq, nk in self.entries:
            self.q_offsets.append(q)
            self.kc_offsets.append(c)
            q += nq
            c += nk
        self.total_questions = q
        self.total_kcs = c

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
        nq = self._entry(dataset_index)[2]
        if 0 <= local < nq:
            return self.q_offsets[dataset_index] + local
        return self.unk_question(dataset_index)

    def kc_to_global(self, dataset_index, local):
        nk = self._entry(dataset_index)[3]
        if 0 <= local < nk:
            return self.kc_offsets[dataset_index] + local
        return self.unk_kc(dataset_index)

    def question_from_global(self, global_id):
        if not 0 <= global_id < self.total_questions:
            raise ValueError(f"global question id {global_id} outside [0, {self.total_questions})")
        for d in reversed(range(self.n_datasets)):
            if global_id >= self.q_offsets[d]:
                return d, global_id - self.q_offsets[d]
        raise AssertionError

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
    seen = set()
    for s in specs:
        if s.dataset_index in seen:
            raise ValueError(f"overlapping dataset_index {s.dataset_index}")
        seen.add(s.dataset_index)
    return GlobalVocab([(s.name, s.dataset_index, *sizes[s.name]) for s in specs])


# ---------------------------------------------------------------------------
# batching


@dataclass
class PackedBatch:
    """Right-padded integer arrays for one single-dataset batch.

    ``pred_mask[b, t]`` marks positions whose next-step response exists;
    scoring starts at the second interaction of each segment, so the
    number of scored predictions per segment is its length minus one.
    """

    dataset_index: int
    questions: np.ndarray      # [B, T] global ids
    kcs: np.ndarray            # [B, T, K] global ids
    kc_mask: np.ndarray        # [B, T, K] 1.0 on real KCs
    kc_scale: np.ndarray       # [B, T, 1] K / |KC set|
    responses: np.ndarray      # [B, T]
    targets: np.ndarray        # [B, T, 1] response at t+1
    pred_mask: np.ndarray      # [B, T, 1]
    lengths: np.ndarray        # [B]


def pack_segments(segments, vocab, dataset_index, dtype=np.float32):
    """Translate segments to global IDs and pad them into batch arrays."""
    if not segments:
        raise ValueError("cannot pack an empty batch")
    B = len(segments)
    T = max(len(s) for s in segments)
    K = max(len(r.kc_ids) for s in segments for r in s.interactions)
    pad_q = vocab.unk_question(dataset_index)
    pad_c = vocab.unk_kc(dataset_index)

    questions = np.full((B, T), pad_q, dtype=np.int64)
    kcs = np.full((B, T, K), pad_c, dtype=np.int64)
    kc_mask = np.zeros((B, T, K), dtype=dtype)
    kc_scale = np.zeros((B, T, 1), dtype=dtype)
    responses = np.zeros((B, T), dtype=np.int64)
    lengths = np.zeros(B, dtype=np.int64)

    for b, seq in enumerate(segments):
        lengths[b] = len(seq)
        for t, r in enumerate(seq.interactions):
            questions[b, t] = vocab.question_to_global(dataset_index, r.question_id)
            for k, c in enumerate(r.kc_ids):
                kcs[b, t, k] = vocab.kc_to_global(dataset_index, c)
                kc_mask[b, t, k] = 1.0
            kc_scale[b, t, 0] = K / len(r.kc_ids)
            responses[b, t] = r.response

    targets = np.zeros((B, T, 1), dtype=dtype)
    targets[:, :-1, 0] = responses[:, 1:].astype(dtype)
    pred_mask = np.zeros((B, T, 1), dtype=dtype)
    for b in range(B):
        pred_mask[b, :max(lengths[b] - 1, 0), 0] = 1.0

    return PackedBatch(dataset_index, questions, kcs, kc_mask, kc_scale, responses,
                       targets, pred_mask, lengths)


def mix_batches(train_lists, batch_size, seed):
    """Yield (dataset position, segment list) batches across datasets.

    Every batch is drawn from a single dataset, chosen with probability
    proportional to its remaining segments; one pass exhausts every
    dataset exactly once. The order is a pure function of the seed.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    queues = []
    for segs in train_lists:
        perm = rng.permutation(len(segs))
        queues.append([segs[i] for i in perm])
    cursors = [0] * len(queues)
    remaining = np.array([len(q) for q in queues], dtype=np.float64)
    while remaining.sum() > 0:
        probs = remaining / remaining.sum()
        d = int(rng.choice(len(queues), p=probs))
        start = cursors[d]
        take = int(min(batch_size, remaining[d]))
        cursors[d] = start + take
        remaining[d] -= take
        yield d, queues[d][start:start + take]


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
    probabilities: list = field(default_factory=list)  # per-sequence p lists

    def mean_probability(self):
        return float(np.mean([p for ps in self.probabilities for p in ps]))


def simulate_sequences(theta, difficulty, question_kcs, n_kcs, learning_rate,
                       mean_seq_len, rng):
    """Draw one sequence per student from the logistic response model.

    Response probability at step j is sigmoid(theta - b + lr * e_j) where
    e_j is the mean number of earlier attempts on the question's KCs
    within the same sequence. Returns (sequences, per-sequence p lists).
    """
    n_questions = len(difficulty)
    sequences, all_probs = [], []
    for s in range(len(theta)):
        length = max(MIN_SEQ_LEN, int(rng.geometric(1.0 / mean_seq_len)))
        qs = rng.integers(0, n_questions, size=length)
        exposure = np.zeros(n_kcs)
        rows, probs = [], []
        for j in range(length):
            q = int(qs[j])
            kcs = question_kcs[q]
            seen = float(np.mean([exposure[c] for c in kcs]))
            logit = theta[s] - difficulty[q] + learning_rate * seen
            p = 1.0 / (1.0 + np.exp(-logit))
            r = int(rng.random() < p)
            rows.append(Interaction(q, kcs, r, 60000 * j))
            probs.append(p)
            for c in kcs:
                exposure[c] += 1
        sequences.append(StudentSequence(f"s{s}", rows))
        all_probs.append(probs)
    return sequences, all_probs


def generate_synthetic(config):
    """Simulate a dataset: sample abilities/difficulties, then responses."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    theta = rng.normal(0.0, config.ability_spread, config.n_students)
    difficulty = rng.normal(0.0, config.difficulty_spread, config.n_questions)
    question_kcs = []
    for _ in range(config.n_questions):
        k = int(rng.integers(1, 3))
        question_kcs.append(tuple(sorted(rng.choice(config.n_kcs, size=k, replace=False).tolist())))

    sequences, probs = simulate_sequences(
        theta, difficulty, question_kcs, config.n_kcs,
        config.learning_rate_per_exposure, config.mean_seq_len, rng)
    truth = SyntheticTruth(theta, difficulty, question_kcs, probs)
    return sequences, truth


def write_truth_sidecar(truth, sequences, path):
    """Ground-truth sidecar: per-student ability and per-question difficulty."""
    obj = {
        "theta": {seq.student_id: float(t) for seq, t in zip(sequences, truth.theta)},
        "difficulty": [float(b) for b in truth.difficulty],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
