"""Benchmark workloads: synthetic inputs, experiment configs and stage lists.

Every workload writes pyKT-format block files and kttrace experiment
configs into a work directory, then names the CLI stages to time.

``--seed`` chooses the data: which question gets which difficulty, each
question's KC set, the question drawn at every step and every response.
The length, ability and difficulty profiles and the pipeline seed in the
config (weight init, dropout, student split and batch order) are part of
a workload's definition and do not change with ``--seed``, so every seed
makes the program do the same padded work and the figures of different
seeds can be compared. Lengths follow a geometric distribution, abilities
and difficulties normal ones, all taken at evenly spaced quantiles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np

PIPELINE_SEED = 11
PROFILE_SEED = 7  # fixed order in which lengths and abilities go to students
DROPOUT = 0.1
SOURCE_BATCH_SIZE = 128  # batch of the set-up pretrain of the transfer workload


@dataclass(frozen=True)
class DataShape:
    """One synthetic dataset, in the knobs of the logistic response model."""

    name: str
    students: int
    questions: int
    kcs: int
    mean_len: float
    ability_spread: float = 1.5
    learning: float = 0.1
    length_multiple: int = 1   # lengths rounded up to a multiple of this


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict
    batch_size: int
    epochs: int
    # A round trains for a few steps only; a rate above the paper's grid
    # (kttrace warns about it) makes those steps learn a measurable amount.
    learning_rate: float
    pretrain: tuple            # DataShapes trained on by the timed or set-up pretrain
    target: DataShape | None = None   # set for the transfer workload only

    @property
    def train_stage(self):
        return "pretrain" if self.target is None else "finetune"

    @property
    def n_layers(self):
        from kttrace.model import PRESETS
        if "preset" in self.model:
            return PRESETS[self.model["preset"]][0]
        return self.model["n_layers"]


SMALL_MODEL = {"n_layers": 4, "d_model": 64, "n_head": 4, "d_ff": 128}


def _rich(name, students):
    return DataShape(name, students, questions=150, kcs=10, mean_len=15)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "pretrain-mix",
            "multi-dataset pre-training on short geometric histories: most "
            "padded cells are waste, so batching, padding and the embedding "
            "backward show here",
            SMALL_MODEL, batch_size=128, epochs=1, learning_rate=0.01,
            pretrain=tuple(_rich(f"rich{i}", 178) for i in range(3))),
        Workload(
            "pretrain-long",
            "pre-training on long histories cut into full 200-step segments: "
            "no padding, so attention and matmul math dominate",
            {"preset": "base-89M"}, batch_size=16, epochs=1, learning_rate=0.003,
            pretrain=(DataShape("long0", 17, questions=150, kcs=10, mean_len=400,
                                ability_spread=2.5, learning=0.001,
                                length_multiple=200),)),
        Workload(
            "adapt-target",
            "transfer to a small target: gate probing, importance-modulated "
            "fine-tuning and scoring, in small batches that shift cost to "
            "fixed per-step work",
            SMALL_MODEL, batch_size=16, epochs=2, learning_rate=0.01,
            pretrain=tuple(_rich(f"src{i}", 48) for i in range(3)),
            target=DataShape("target", 300, questions=300, kcs=15, mean_len=15)),
    )
}


def tiny(workload):
    """The same workload at a size that runs in seconds (for the tests)."""
    def shrink(shape):
        return replace(shape, students=60, mean_len=min(shape.mean_len, 20),
                       questions=20, kcs=4, length_multiple=1)
    return replace(
        workload,
        model={"n_layers": 1, "d_model": 16, "n_head": 2, "d_ff": 16},
        batch_size=16, epochs=3,
        pretrain=tuple(shrink(s) for s in workload.pretrain),
        target=shrink(workload.target) if workload.target else None)


# ---------------------------------------------------------------------------
# synthetic data


def length_profile(n, mean):
    """Geometric lengths (at least 3) at the quantiles (i + 0.5) / n."""
    u = (np.arange(n) + 0.5) / n
    lengths = np.ceil(np.log1p(-u) / np.log1p(-1.0 / mean)).astype(np.int64)
    return np.maximum(lengths, 3)


def normal_profile(n, spread):
    """Normal values N(0, spread) at the quantiles (i + 0.5) / n."""
    dist = NormalDist(0.0, spread)
    return np.array([dist.inv_cdf((i + 0.5) / n) for i in range(n)])


def write_dataset(shape, seed, path):
    """Simulate ``shape`` from ``seed`` and write it as 5-line blocks.

    Response probability is sigmoid(ability - difficulty + learning * e),
    where e is the mean count of the student's earlier attempts on the
    question's KCs. Returns the number of interactions written.
    """
    order = np.random.default_rng([PROFILE_SEED, shape.students]).permutation(shape.students)
    lengths = length_profile(shape.students, shape.mean_len)[order]
    lengths = -(-lengths // shape.length_multiple) * shape.length_multiple
    theta = normal_profile(shape.students, shape.ability_spread)[order]
    rng = np.random.default_rng(seed)
    difficulty = rng.permutation(normal_profile(shape.questions, 1.0))
    member = np.zeros((shape.questions, shape.kcs))
    kc_text = []
    for q in range(shape.questions):
        kcs = sorted(rng.choice(shape.kcs, size=int(rng.integers(1, 3)),
                                replace=False).tolist())
        member[q, kcs] = 1.0
        kc_text.append("_".join(map(str, kcs)))
    blocks = []
    for s, n in enumerate(lengths):
        qs = rng.integers(0, shape.questions, n)
        rows = member[qs]
        prior = np.cumsum(rows, axis=0) - rows
        seen = (prior * rows).sum(axis=1) / rows.sum(axis=1)
        logit = theta[s] - difficulty[qs] + shape.learning * seen
        responses = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
        blocks.append("\n".join((
            f"s{s},{n}",
            ",".join(map(str, qs.tolist())),
            ",".join(kc_text[q] for q in qs.tolist()),
            ",".join(map(str, responses.tolist())),
            ",".join(map(str, range(0, 60000 * int(n), 60000))))))
    Path(path).write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    return int(lengths.sum())


def _config(workload, datasets, batch_size, epochs):
    model = dict(workload.model, dropout=DROPOUT)
    return {
        "seed": PIPELINE_SEED,
        "paths": {"workdir": "run"},
        "model": model,
        "train": {"learning_rate": workload.learning_rate, "dropout": DROPOUT,
                  "max_epochs": epochs, "patience": epochs,
                  "batch_size": batch_size},
        "datasets": datasets,
    }


def _entry(shape, index, role):
    return {"name": shape.name, "dataset_index": index,
            "path": f"data/{shape.name}.txt", "role": role}


@dataclass
class Inputs:
    """What set-up left in the work directory."""

    workdir: Path
    config: Path
    raw_interactions: dict      # dataset name -> interactions in its input file
    source_checkpoint: Path | None = None


def write_inputs(workload, seed, workdir):
    """Write every input file and config of ``workload`` for ``seed``."""
    workdir = Path(workdir)
    (workdir / "data").mkdir(parents=True, exist_ok=True)
    shapes = list(workload.pretrain) + ([workload.target] if workload.target else [])
    raw = {shape.name: write_dataset(shape, [seed, i], workdir / "data" / f"{shape.name}.txt")
           for i, shape in enumerate(shapes)}
    entries = [_entry(s, i, "pretrain") for i, s in enumerate(workload.pretrain)]
    if workload.target is None:
        config = _config(workload, entries, workload.batch_size, workload.epochs)
        path = workdir / "config.json"
        path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        return Inputs(workdir, path, raw)
    source = _config(workload, entries, SOURCE_BATCH_SIZE, 1)
    (workdir / "source.json").write_text(json.dumps(source, indent=1), encoding="utf-8")
    entries.append(_entry(workload.target, len(entries), "target"))
    config = _config(workload, entries, workload.batch_size, workload.epochs)
    path = workdir / "config.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return Inputs(workdir, path, raw,
                  source_checkpoint=workdir / "run" / "checkpoints" / "source.lrkt")


def setup_argvs(workload, inputs):
    """CLI calls that build the transfer workload's source checkpoint."""
    if workload.target is None:
        return []
    source = str(inputs.workdir / "source.json")
    return [["preprocess", "--config", source],
            ["pretrain", "--config", source, "--out", str(inputs.source_checkpoint)]]


def stage_argvs(workload, inputs):
    """(stage, argv) for each timed stage of one round, in order."""
    cfg = str(inputs.config)
    run = inputs.workdir / "run"
    if workload.target is None:
        ckpt = str(run / "checkpoints" / "pretrained.lrkt")
        return [("preprocess", ["preprocess", "--config", cfg]),
                ("pretrain", ["pretrain", "--config", cfg, "--out", ckpt]),
                ("eval", ["eval", "--config", cfg, "--checkpoint", ckpt])]
    name = workload.target.name
    source = str(inputs.source_checkpoint)
    profile = str(run / "profiles" / f"{name}.json")
    tuned = str(run / "checkpoints" / f"finetuned-{name}.lrkt")
    return [("preprocess", ["preprocess", "--config", cfg, "--dataset", name]),
            ("importance", ["importance", "--config", cfg, "--checkpoint", source,
                            "--dataset", name, "--out", profile]),
            ("finetune", ["finetune", "--config", cfg, "--checkpoint", source,
                          "--dataset", name, "--profile", profile, "--out", tuned]),
            ("eval", ["eval", "--config", cfg, "--checkpoint", tuned,
                      "--dataset", name])]


def prepared_interactions(workdir, name, split):
    """Interactions in a prepared split file, from its block headers."""
    total = 0
    text = (Path(workdir) / "run" / "prepared" / name / f"{split}.txt").read_text(
        encoding="utf-8")
    for block in text.split("\n\n"):
        header = block.strip().split("\n", 1)[0]
        if header:
            total += int(header.rsplit(",", 1)[1])
    return total

