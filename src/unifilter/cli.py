"""Command line entry point: one executable, one subcommand per stage.

Every run writes a RunManifest next to its primary output so a pipeline can
be audited and replayed.  The subcommands that draw random numbers (gen,
train, cluster, bench) take a --seed, and all their randomness flows from it
through counter-based splitting, so reruns are byte-identical (manifests
differ only in wall time).  Exit codes: 0 ok, 2 usage, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import closing
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

from . import BLAS_THREADS, clustering, filtering, metrics, synthgen
from .classifier import ModelConfig, TrainConfig, load_model, save_model, train
from .common import (DataError, NumericError, __version__, atomic_write, check_counts,
                     check_field, config_from, dump_json_line, read_json_file, write_json_file)
from .encoder import EncoderConfig
from .filtering import FilterConfig
from .packing import Vocab, flatten_doc, pack, write_packed
from .records import as_document, encode_record, read_records, write_records


@dataclass
class RunManifest:
    subcommand: str
    config: dict
    seed: int | None      # None for the subcommands that draw no random numbers
    inputs: dict
    outputs: dict
    version: str = __version__
    wall_time_s: float = 0.0
    blas_threads: str | None = None   # BLAS_THREADS: None if numpy loaded OpenBLAS first

    def write(self, path):
        write_json_file(path, asdict(self))


def _manifest_path(primary_out) -> Path:
    out = Path(primary_out)
    if out.is_dir():
        return out / "manifest.json"
    return out.with_name(out.name + ".manifest.json")


def _stream(path, kind: str, *mapped):
    """read_records(path, kind, *mapped), with a missing file a DataError
    naming it.  mapped is (fn[, chunk[, fork]]): fn(record, line) runs on
    each record in the process that decodes it (records.read_records)."""
    try:
        yield from read_records(path, kind, *mapped)
    except FileNotFoundError:
        raise DataError(f"missing input file: {path}") from None


def _read_all(path, kind: str, *mapped) -> list:
    return list(_stream(path, kind, *mapped))


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _csv_ints(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


# --- subcommand bodies -------------------------------------------------------------
# Each returns (config, inputs, outputs) for the manifest.


def cmd_gen(args):
    check_counts(args, "levels_count")
    out_dir = Path(args.out)
    counts = {level: args.levels_count for level in range(4)}
    n_pool = 4 * args.levels_count  # exactly enough sources for every level
    images, docs = synthgen.make_mock_sources(n_pool, n_pool, args.seed)

    nonsyn = None
    if args.nonsyn_positives:
        nonsyn = _read_all(args.nonsyn_positives, "caption")

    train_s, val_s, report = synthgen.build_dataset(
        images, docs, counts, nonsyn_positives=nonsyn,
        val_fraction=args.val_fraction, seed=args.seed)
    if not train_s or not val_s:
        raise DataError(f"the split leaves {len(train_s)} train and {len(val_s)} validation "
                        f"samples; train needs both")

    out_dir.mkdir(parents=True, exist_ok=True)
    write_records(out_dir / "train.jsonl", train_s)
    write_records(out_dir / "val.jsonl", val_s)
    write_json_file(out_dir / "report.json", report.to_obj())

    config = {"levels_count": args.levels_count, "val_fraction": args.val_fraction}
    inputs = {}
    if args.nonsyn_positives:
        inputs["nonsyn_positives"] = str(args.nonsyn_positives)
    outputs = {"train": str(out_dir / "train.jsonl"), "val": str(out_dir / "val.jsonl"),
               "report": str(out_dir / "report.json")}
    return config, inputs, outputs


def cmd_cluster(args):
    kcfg = clustering.KMeansConfig(k=args.k, seed=args.seed)
    scfg = clustering.SampleConfig(per_cluster=args.per_cluster, seed=args.seed)
    enc_cfg = EncoderConfig()

    def embed(rec, line):
        rec = as_document(rec)
        if rec.modality == "caption":   # doc_embedding would normalise the vector again
            return rec.id, clustering.image_embedding(rec.image, enc_cfg)
        return rec.id, clustering.doc_embedding(rec, enc_cfg)

    pairs = _read_all(args.embeddings_from, "auto", embed)
    if not pairs:
        raise DataError(f"{args.embeddings_from}: no records to cluster")
    ids = [rid for rid, _ in pairs]
    matrix = clustering.EmbeddingMatrix(ids=ids, vecs=clustering.stack_same_width(
        [vec for _, vec in pairs], f"{args.embeddings_from}: corpus"))
    result = clustering.kmeans(matrix, kcfg)
    selected = clustering.sample_per_cluster(ids, result.assignments, scfg)

    write_json_file(args.out, {
        "k": args.k,
        "per_cluster": args.per_cluster,
        "n": len(ids),
        "n_iters": result.n_iters,
        "inertia": result.inertia_history[-1],
        "assignments": {rid: int(c) for rid, c in zip(ids, result.assignments)},
        "selected_ids": selected,
    })
    config = {"k": args.k, "per_cluster": args.per_cluster}
    return config, {"records": str(args.embeddings_from)}, {"clusters": str(args.out)}


def cmd_train(args):
    checkpoint_dir = Path(args.out_checkpoint).parent
    if not checkpoint_dir.is_dir():
        raise DataError(f"checkpoint directory does not exist: {checkpoint_dir}")
    cfg_obj = read_json_file(args.config) if args.config else {}
    if args.epochs is not None:
        cfg_obj["epochs"] = args.epochs
    mcfg = ModelConfig(**{k: cfg_obj.pop(k) for k in ModelConfig.__dataclass_fields__
                          if k in cfg_obj})
    tcfg = config_from(TrainConfig, cfg_obj, "config")

    train_s = _read_all(args.train, "labeled")
    val_s = _read_all(args.val, "labeled")
    model, history = train(train_s, val_s, mcfg, tcfg, args.seed)
    save_model(args.out_checkpoint, model, extra_meta={"history": history})
    vocab_path = Path(args.out_checkpoint).with_name("vocab.json")
    model.vocab.save(vocab_path)

    best = max(history, key=lambda h: h["val_accuracy"])
    print(f"best epoch {best['epoch']}: val acc {best['val_accuracy']:.4f} "
          f"macro F1 {best['val_macro_f1']:.4f}")
    config = {"model": asdict(mcfg), "train": asdict(tcfg)}
    inputs = {"train": str(args.train), "val": str(args.val)}
    outputs = {"checkpoint": str(args.out_checkpoint), "vocab": str(vocab_path)}
    return config, inputs, outputs


def cmd_eval(args):
    model = load_model(args.checkpoint)
    val_s = _read_all(args.val, "labeled")
    if not val_s:
        raise DataError(f"{args.val}: no labeled records")
    pairs = [(s.label, metrics.quantize_score(model.score_record(s.record)))
             for s in val_s]
    report = metrics.evaluate(pairs)
    write_json_file(args.out, report.to_obj())
    print(metrics.format_report(report))
    config = {}
    inputs = {"checkpoint": str(args.checkpoint), "val": str(args.val)}
    return config, inputs, {"report": str(args.out)}


def cmd_score(args):
    model = load_model(args.checkpoint)
    fcfg = FilterConfig(batch_size=args.batch_size, workers=args.workers)
    # each line is decoded where it is scored; no decoded record is held
    scored, rejects = filtering.score_corpus(partial(_stream, getattr(args, "in"), "auto"),
                                             model, fcfg)
    write_records(args.out, scored)
    rejects_path = _sidecar_rejects(args.out)
    _write_rejects(rejects_path, rejects)

    config = {"batch_size": args.batch_size, "workers": args.workers}
    inputs = {"checkpoint": str(args.checkpoint), "records": str(getattr(args, "in"))}
    outputs = {"scores": str(args.out), "rejects": str(rejects_path)}
    return config, inputs, outputs


def _sidecar_rejects(out) -> Path:
    out = Path(out)
    stem = out.name[:-len(".jsonl")] if out.name.endswith(".jsonl") else out.name
    return out.with_name(stem + ".rejects.jsonl")


def _write_rejects(path, rejects: list[dict]):
    with atomic_write(path) as fh:
        for rej in rejects:
            fh.write(dump_json_line(rej) + "\n")


def cmd_filter(args):
    scores = _read_all(args.scores, "scored")
    keep = filtering.top_fraction_ids(scores, args.fraction)

    def kept_line(rec, line):
        rid = as_document(rec).id
        return line.removesuffix("\n") if rid in keep else None, rid

    # kept lines stream into the atomic write, so a missing or extra id leaves no file
    with closing(_stream(getattr(args, "in"), "auto", kept_line)) as lines:
        write_records(args.out, (line for line, _ in
                                 filtering.one_score_each(lines, {s.id for s in scores})
                                 if line is not None))
    threshold = filtering.threshold_for_fraction(scores, args.fraction) if scores else None
    config = {"fraction": args.fraction, "score_threshold": threshold}
    inputs = {"scores": str(args.scores), "records": str(getattr(args, "in"))}
    return config, inputs, {"filtered": str(args.out)}


def cmd_dfn_filter(args):
    check_field(args, "threshold", lambda v: True, "a finite number")
    filter_doc = partial(filtering.dfn_filter_doc, text_embed_fn=filtering.hashed_text_embedding,
                         image_embed_fn=filtering.dfn_image_embedding, threshold=args.threshold)

    def filtered_line(rec, line):
        doc = as_document(rec)
        kept = filter_doc(doc)
        if kept is None:
            return doc.id, None
        # a labeled line comes out as its document, so only the document itself passes through
        return doc.id, line.removesuffix("\n") if kept is rec else encode_record(kept)

    rejects = []

    def kept_lines(results):
        for rid, line in results:
            if line is None:
                rejects.append(filtering.dfn_reject(rid))
            else:
                yield line

    with closing(_stream(getattr(args, "in"), "auto", filtered_line)) as results:
        write_records(args.out, kept_lines(results))
    rejects_path = _sidecar_rejects(args.out)
    _write_rejects(rejects_path, rejects)
    config = {"threshold": args.threshold}
    inputs = {"records": str(getattr(args, "in"))}
    outputs = {"filtered": str(args.out), "rejects": str(rejects_path)}
    return config, inputs, outputs


def cmd_pack(args):
    vocab = Vocab.load(args.vocab)
    # records are flattened where they are decoded; only their token ids come back
    with closing(_stream(getattr(args, "in"), "auto",
                         lambda rec, line: flatten_doc(rec, vocab, args.t))) as flats:
        seqs = pack(flats, args.context_len, vocab, args.t)
    write_packed(args.out, seqs)
    config = {"context_len": args.context_len, "t": args.t}
    inputs = {"records": str(getattr(args, "in")), "vocab": str(args.vocab)}
    return config, inputs, {"packed": str(args.out)}


def cmd_stats(args):
    check_field(args, "image_token_equiv", lambda v: v >= 0, "an integer >= 0")
    with closing(_stream(getattr(args, "in"), "auto",
                         lambda rec, line: filtering.record_counts(rec))) as counts:
        stats = filtering.corpus_stats(counts, image_token_equiv=args.image_token_equiv,
                                       retained_fraction=args.retained_fraction)
    write_json_file(args.out, stats.to_obj())
    print(filtering.format_stats(stats))
    config = {"image_token_equiv": args.image_token_equiv,
              "retained_fraction": args.retained_fraction}
    return config, {"records": str(getattr(args, "in"))}, {"stats": str(args.out)}


def cmd_bench(args):
    for size in args.sizes:
        check_counts(argparse.Namespace(size=size), "size")
    model = load_model(args.checkpoint)
    report = filtering.throughput_bench(model, args.sizes, args.batches,
                                        seed=args.seed, repeats=args.repeats)
    write_json_file(args.out, report)
    for row in report["rows"]:
        print(f"size {row['corpus_size']:>6d}  batch {row['batch_size']:>3d}  "
              f"{row['samples_per_s']:.1f} samples/s")
    config = {"sizes": args.sizes, "batches": args.batches, "repeats": args.repeats}
    return config, {"checkpoint": str(args.checkpoint)}, {"bench": str(args.out)}


# --- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unifilter",
        description="Build, train, and apply a unified multimodal quality filter.")
    parser.add_argument("--version", action="version", version=f"unifilter {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, help_text, seeded=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if seeded:
            p.add_argument("--seed", type=_seed, default=0)
        return p

    p = add("gen", cmd_gen, "generate a labeled semi-synthetic quality dataset",
            seeded=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--levels-count", type=int, default=50,
                   help="samples per quality level per modality")
    p.add_argument("--val-fraction", type=float, default=0.05)
    p.add_argument("--nonsyn-positives", default=None,
                   help="caption JSONL appended as positive-level samples")

    p = add("cluster", cmd_cluster, "cluster records and sample ids per cluster", seeded=True)
    p.add_argument("--embeddings-from", required=True, help="records JSONL to embed")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--per-cluster", type=int, default=4)
    p.add_argument("--out", required=True, help="output JSON path")

    p = add("train", cmd_train, "train the quality regressor", seeded=True)
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--epochs", type=int, default=None, help="default 10")
    p.add_argument("--config", default=None,
                   help="JSON with model/train fields; --epochs wins")
    p.add_argument("--out-checkpoint", required=True)

    p = add("eval", cmd_eval, "evaluate a checkpoint on labeled data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--out", default="eval.json")

    p = add("score", cmd_score, "score a corpus with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--batch-size", type=int, default=FilterConfig.batch_size,
                   help="records the forked worker takes at a time")
    p.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)),
                   help="score processes: 1 scores in this process, 2 or more "
                        "in this one and one forked worker; default the usable CPU count")

    p = add("filter", cmd_filter, "keep the top fraction of records by score")
    p.add_argument("--scores", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--fraction", type=float, default=0.30)
    p.add_argument("--out", required=True)

    p = add("dfn-filter", cmd_dfn_filter,
            "drop images below a similarity threshold (baseline)")
    p.add_argument("--in", required=True)
    p.add_argument("--threshold", type=float, default=0.15)
    p.add_argument("--out", required=True)

    p = add("pack", cmd_pack, "pack records into fixed-length token sequences")
    p.add_argument("--in", required=True)
    p.add_argument("--context-len", type=int, default=4096)
    p.add_argument("--vocab", required=True)
    p.add_argument("--t", type=int, default=4,
                   help="image token grid side; an image takes t^2 tokens")
    p.add_argument("--out", required=True)

    p = add("stats", cmd_stats, "corpus statistics (images, text length, doc length)")
    p.add_argument("--in", required=True)
    p.add_argument("--image-token-equiv", type=int, default=144,
                   help="tokens one image counts as in doc length")
    p.add_argument("--retained-fraction", type=float, default=1.0)
    p.add_argument("--out", default="stats.json")

    p = add("bench", cmd_bench, "throughput benchmark of the scoring path", seeded=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sizes", type=_csv_ints, default=[64, 128],
                   help="comma-separated corpus sizes")
    p.add_argument("--batches", type=_csv_ints, default=[1, 8],
                   help="comma-separated batch sizes")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", default="bench.json")

    return parser


_PRIMARY_OUT = {
    "gen": "out", "cluster": "out", "train": "out_checkpoint", "eval": "out",
    "score": "out", "filter": "out", "dfn-filter": "out", "pack": "out",
    "stats": "out", "bench": "out",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        config, inputs, outputs = args.fn(args)
    except (DataError, OSError) as exc:
        json.dump({"error": "data", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except NumericError as exc:
        json.dump({"error": "numeric", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 4

    manifest = RunManifest(
        subcommand=args.subcommand,
        config=config,
        seed=getattr(args, "seed", None),
        inputs=inputs,
        outputs=outputs,
        wall_time_s=time.perf_counter() - start,
        blas_threads=BLAS_THREADS,
    )
    manifest.write(_manifest_path(getattr(args, _PRIMARY_OUT[args.subcommand])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
