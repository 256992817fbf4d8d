"""The two workloads: inputs, CLI stages and output checks.

Each workload is a closed loop: one client runs its CLI stages back to back
in a fresh interpreter, and the next run starts when the last one exits.
The score stage uses the CLI's default worker count, so a change of default
shows.  Checks return ``{name: passed}``; every failed check counts into the
run's ``failed`` total.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

CHECK_SEED = 20251017          # the fixed input whose outputs references.json stores
REFERENCES = Path(__file__).resolve().parent / "references.json"
SCORE_TOLERANCE = 1e-9         # scores may drift by rounding; ids and bytes may not
T2 = 16                        # image tokens per image (t = 4)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _n_tokens(text: str) -> int:
    return len(_TOKEN_RE.findall(text))


def packed_ids(record: dict) -> int:
    """Non-pad ids a record flattens to: captions carry no chunk marker."""
    if "items" not in record:
        return T2 + _n_tokens(record["text"])
    return sum(1 + T2 if item["kind"] == "image" else _n_tokens(item["text"])
               for item in record["items"])


def _pack_checks(packed_path: Path, records: list, context_len: int) -> dict[str, bool]:
    seqs = read_jsonl(packed_path)
    non_pad = sum(sum(1 for tok in s["tokens"] if tok != 0) for s in seqs)
    return {
        "pack.fixed_length": all(len(s["tokens"]) == context_len for s in seqs),
        "pack.conserves_ids": non_pad == sum(packed_ids(r) for r in records),
        "pack.one_slot_per_image": sum(len(s["slots"]) for s in seqs) == sum(
            1 if "items" not in r else sum(i["kind"] == "image" for i in r["items"])
            for r in records),
    }


def _stats_checks(stats_path: Path, records: list) -> dict[str, bool]:
    stats = read_json(stats_path)
    images = sum(1 if "items" not in r else sum(i["kind"] == "image" for i in r["items"])
                 for r in records)
    return {"stats.counts": stats["n_records"] == len(records)
            and math.isclose(stats["avg_images_per_doc"], images / len(records))}


def _lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


class Workload:
    """Defaults shared by the workloads; each subclass names its inputs,
    stages and checks."""
    name: str
    core_stage: str                # the stage ``core_items_per_s`` times
    outputs: list[str]             # compared byte for byte between repetitions
    input_file: str                # its lines are the unit of work
    size: int                      # records in the timed input
    reference_size: int            # records in the fixed reference input

    def reference_setup(self, inputs: Path) -> None:
        self.setup(inputs, CHECK_SEED, self.reference_size)

    def reference_stages(self, inputs: Path, out: Path) -> list[list[str]]:
        return self.stages(inputs, out, CHECK_SEED)

    def determinism_stages(self, inputs: Path, out: Path) -> list[list[str]]:
        return []

    def units(self, inputs: Path, out: Path) -> tuple[int, int]:
        """(units of the whole run, units of the core stage)."""
        n = _lines(inputs / self.input_file)
        return n, n

    def rejects(self, out: Path) -> int:
        return 0

    def val_accuracy(self, out: Path) -> float:
        return 0.0


class Train(Workload):
    name = "train"
    core_stage = "train"
    outputs = ["data/train.jsonl", "data/val.jsonl", "model.json", "vocab.json", "eval.json"]
    size = reference_size = 0     # gen makes the data inside the run
    epochs = 3                    # two epochs left one seed in about fifteen near chance
    levels_count = 50
    val_fraction = 0.1
    val_accuracy_floor = 0.45     # chance is 0.25; 24 seeds reached 0.6..0.975
    loss_ratio_ceiling = 0.5      # last over first epoch loss; 24 seeds: at most 0.2
    config = {"d": 64, "n_layers": 2, "n_heads": 4, "max_seq_len": 256,
              "encoder": {"patch_size": 4, "d_v": 8, "t": 4, "d": 64, "seed": 0},
              "epochs": epochs, "batch_size": 8, "peak_lr": 1e-3}

    def setup(self, inputs: Path, seed: int, n: int | None = None) -> None:
        (inputs / "train_config.json").write_text(json.dumps(self.config), encoding="utf-8")

    def stages(self, inputs: Path, out: Path, seed: int) -> list[list[str]]:
        data = out / "data"
        return [
            ["gen", "--out", str(data), "--levels-count", str(self.levels_count),
             "--val-fraction", str(self.val_fraction), "--seed", str(seed)],
            ["train", "--train", str(data / "train.jsonl"), "--val", str(data / "val.jsonl"),
             "--config", str(inputs / "train_config.json"),
             "--out-checkpoint", str(out / "model.json"), "--seed", str(seed)],
            ["eval", "--checkpoint", str(out / "model.json"), "--val", str(data / "val.jsonl"),
             "--out", str(out / "eval.json")],
        ]

    # the reference input is gen's output for the fixed seed: training bytes may
    # change with the BLAS thread policy, so training is held to the floor instead
    def reference_stages(self, inputs: Path, out: Path) -> list[list[str]]:
        return self.stages(inputs, out, CHECK_SEED)[:1]

    def reference_values(self, inputs: Path, out: Path) -> dict:
        return {name: sha256(out / "data" / name) for name in ("train.jsonl", "val.jsonl")}

    def units(self, inputs: Path, out: Path) -> tuple[int, int]:
        n = self.epochs * _lines(out / "data" / "train.jsonl")     # samples x epochs
        return n, n

    def val_accuracy(self, out: Path) -> float:
        return read_json(out / "eval.json")["accuracy"]

    def check(self, inputs: Path, out: Path) -> dict[str, bool]:
        n_total = 4 * 2 * self.levels_count
        n_val = _lines(out / "data" / "val.jsonl")
        history = read_json(out / "model.json")["meta"]["history"]
        accuracy = self.val_accuracy(out)
        return {
            "gen.counts": _lines(out / "data" / "train.jsonl") + n_val == n_total
            and n_val == round(self.val_fraction * n_total),
            "train.history": len(history) == self.epochs
            and all(math.isfinite(h["train_loss"]) for h in history),
            "train.loss_falls": history[-1]["train_loss"]
            <= self.loss_ratio_ceiling * history[0]["train_loss"],
            "eval.matches_best_epoch": accuracy == max(h["val_accuracy"] for h in history),
            "eval.val_accuracy_floor": accuracy >= self.val_accuracy_floor,
        }


class Score(Workload):
    name = "score"
    core_stage = "score"
    outputs = ["scores.jsonl", "scores.rejects.jsonl", "kept.jsonl", "packed.jsonl",
               "stats.json", "clusters.json", "dfn.jsonl", "dfn.rejects.jsonl"]
    input_file = "corpus.jsonl"
    size = 600
    reference_size = 48
    fraction = 0.30
    k = 8

    def setup(self, inputs: Path, seed: int, n: int | None = None) -> None:
        import corpus
        corpus.write_score_inputs(inputs, seed, n or self.size)

    def stages(self, inputs: Path, out: Path, seed: int) -> list[list[str]]:
        corpus_path = str(inputs / "corpus.jsonl")
        return [
            ["score", "--checkpoint", str(inputs / "model.json"), "--in", corpus_path,
             "--out", str(out / "scores.jsonl")],
            ["filter", "--scores", str(out / "scores.jsonl"), "--in", corpus_path,
             "--fraction", str(self.fraction), "--out", str(out / "kept.jsonl")],
            ["pack", "--in", str(out / "kept.jsonl"), "--vocab", str(inputs / "vocab.json"),
             "--out", str(out / "packed.jsonl")],
            ["stats", "--in", str(out / "kept.jsonl"), "--out", str(out / "stats.json")],
            # the model-free curation stages: nn is not called in these
            ["cluster", "--embeddings-from", corpus_path, "--k", str(self.k),
             "--out", str(out / "clusters.json"), "--seed", str(seed)],
            ["dfn-filter", "--in", str(inputs / "docs.jsonl"), "--out", str(out / "dfn.jsonl")],
        ]

    def determinism_stages(self, inputs: Path, out: Path) -> list[list[str]]:
        """Batches of one record, then two worker threads: each must give the
        timed run's score bytes."""
        score = ["score", "--checkpoint", str(inputs / "model.json"),
                 "--in", str(inputs / "corpus.jsonl")]
        return [score + ["--out", str(out / "batch1.jsonl"), "--batch-size", "1"],
                score + ["--out", str(out / "workers2.jsonl"), "--workers", "2"]]

    def rejects(self, out: Path) -> int:
        return _lines(out / "scores.rejects.jsonl")

    def check(self, inputs: Path, out: Path) -> dict[str, bool]:
        ids = [r["id"] for r in read_jsonl(inputs / "corpus.jsonl")]
        scores = read_jsonl(out / "scores.jsonl")
        kept = read_jsonl(out / "kept.jsonl")
        ranked = sorted(scores, key=lambda s: (-s["score"], s["id"]))
        top = {s["id"] for s in ranked[:math.ceil(self.fraction * len(ids) - 1e-9)]}
        docs = {d["id"]: d for d in read_jsonl(inputs / "docs.jsonl")}
        clusters = read_json(out / "clusters.json")
        dfn_kept = read_jsonl(out / "dfn.jsonl")
        dfn_rejected = [r["id"] for r in read_jsonl(out / "dfn.rejects.jsonl")]

        def items(doc, kind):
            return [i[kind] for i in doc["items"] if i["kind"] == kind]

        return {
            "score.every_record": [s["id"] for s in scores] == ids
            and all(math.isfinite(s["score"]) for s in scores),
            "filter.top_fraction": [r["id"] for r in kept] == [i for i in ids if i in top],
            **_pack_checks(out / "packed.jsonl", kept, 4096),
            **_stats_checks(out / "stats.json", kept),
            "cluster.covers_corpus": clusters["n"] == len(ids)
            and set(clusters["assignments"]) == set(ids)
            and set(clusters["selected_ids"]) <= set(ids)
            and set(clusters["assignments"].values()) <= set(range(self.k)),
            "dfn.partitions_docs": sorted([d["id"] for d in dfn_kept] + dfn_rejected)
            == sorted(docs),
            "dfn.keeps_text_and_images": all(
                items(d, "text") == items(docs[d["id"]], "text") and items(d, "image")
                and all(img in items(docs[d["id"]], "image") for img in items(d, "image"))
                for d in dfn_kept),
        }

    def reference_values(self, inputs: Path, out: Path) -> dict:
        return {
            "scores": {s["id"]: s["score"] for s in read_jsonl(out / "scores.jsonl")},
            "kept_ids": [r["id"] for r in read_jsonl(out / "kept.jsonl")],
            "stats": read_json(out / "stats.json"),
            **{name: sha256(out / name)
               for name in ("packed.jsonl", "clusters.json", "dfn.jsonl", "dfn.rejects.jsonl")},
        }


WORKLOADS = {w.name: w for w in (Train(), Score())}


def compare_reference(name: str, observed: dict) -> dict[str, bool]:
    """Observed reference-input outputs against references.json, key by key."""
    expected = read_json(REFERENCES)[name]
    checks = {}
    for key, want in expected.items():
        got = observed.get(key)
        if key == "scores":
            ok = got is not None and got.keys() == want.keys() and all(
                abs(got[i] - want[i]) <= SCORE_TOLERANCE for i in want)
        else:
            ok = got == want
        checks["reference." + key] = ok
    return checks
