"""Drive the whole curation pipeline through the command-line interface.

gen -> train -> score -> filter, plus the DFN-style baseline, packing, corpus
stats and the throughput bench.  Every step is a plain subcommand call, every
primary output gets a manifest, and rerunning with the same seeds reproduces
the artifacts byte for byte.

Run: python3 demos/filter_corpus.py
"""

import json
import tempfile
from pathlib import Path

from unifilter.cli import main
from unifilter.records import InterleavedDoc, read_records, write_records

CONFIG = {
    "encoder": {"patch_size": 4, "d_v": 8, "t": 4, "d": 16, "seed": 0},
    "d": 16, "n_layers": 1, "n_heads": 2, "max_seq_len": 128,
    "batch_size": 8, "peak_lr": 3e-3,
}


def step(title, argv):
    print(f"\n$ unifilter {' '.join(argv)}")
    rc = main(argv)
    assert rc == 0, f"{title} exited {rc}"


def main_demo():
    root = Path(tempfile.mkdtemp(prefix="unifilter-demo-"))
    print(f"working in {root}")

    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    data = root / "data"

    step("gen", ["gen", "--out", str(data), "--levels-count", "16",
                 "--seed", "3", "--val-fraction", "0.15"])
    report = json.loads((data / "report.json").read_text())
    print(f"  -> {report['n_train']} train / {report['n_val']} val labeled samples")

    ckpt = root / "model.json"
    step("train", ["train", "--train", str(data / "train.jsonl"),
                   "--val", str(data / "val.jsonl"), "--epochs", "12",
                   "--config", str(cfg), "--seed", "5",
                   "--out-checkpoint", str(ckpt)])

    step("eval", ["eval", "--checkpoint", str(ckpt),
                  "--val", str(data / "val.jsonl"),
                  "--out", str(root / "eval.json")])

    scores = root / "scores.jsonl"
    step("score", ["score", "--checkpoint", str(ckpt),
                   "--in", str(data / "train.jsonl"), "--out", str(scores)])
    top = sorted((json.loads(l) for l in scores.read_text().splitlines()),
                 key=lambda s: -s["score"])[:3]
    print("  -> top scored records:")
    for s in top:
        print(f"     {s['id']}  {s['score']:+.3f}  ({s['modality']})")

    filtered = root / "filtered.jsonl"
    step("filter", ["filter", "--scores", str(scores),
                    "--in", str(data / "train.jsonl"),
                    "--fraction", "0.30", "--out", str(filtered)])
    n_in = len((data / "train.jsonl").read_text().splitlines())
    n_kept = len(filtered.read_text().splitlines())
    manifest = json.loads((root / "filtered.jsonl.manifest.json").read_text())
    print(f"  -> kept {n_kept}/{n_in} records "
          f"(score threshold {manifest['config']['score_threshold']:+.3f})")

    # the DFN baseline, run on the documents alone (it takes captions too)
    docs_only = root / "docs.jsonl"
    docs = [r.record for r in read_records(data / "train.jsonl", "labeled")
            if isinstance(r.record, InterleavedDoc)]
    write_records(docs_only, docs)
    step("dfn-filter", ["dfn-filter", "--in", str(docs_only),
                        "--threshold", "0.15", "--out", str(root / "dfn.jsonl")])
    n_dfn = len((root / "dfn.jsonl").read_text().splitlines())
    print(f"  -> DFN baseline kept {n_dfn}/{len(docs)} documents")

    step("pack", ["pack", "--in", str(docs_only), "--context-len", "256",
                  "--vocab", str(root / "vocab.json"),
                  "--out", str(root / "packed.jsonl")])
    packed = (root / "packed.jsonl").read_text().splitlines()
    print(f"  -> {len(packed)} packed sequences of 256 ids")

    step("stats", ["stats", "--in", str(filtered), "--image-token-equiv", "144",
                   "--retained-fraction", str(n_kept / n_in),
                   "--out", str(root / "stats.json")])

    step("bench", ["bench", "--checkpoint", str(ckpt), "--sizes", "32,64",
                   "--batches", "1,8", "--repeats", "3",
                   "--out", str(root / "bench.json")])

    print(f"\nartifacts and their manifests are under {root}")


if __name__ == "__main__":
    main_demo()
