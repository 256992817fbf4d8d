"""Which program functions a traced run wraps, and the per-layer metrics.

Each target is wrapped at the module attribute its caller looks it up
through: ``forward_score`` calls ``transformer_block`` through
``unifilter.classifier``, the CLI calls ``read_records`` through
``unifilter.cli``, and so on.  Work counts are computed from argument
shapes, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics

from spans import Recorder, coverage, durations_ns, self_times

MB = 1024 * 1024


def _n_images(record) -> int:
    record = getattr(record, "record", record)   # unwrap a LabeledSample
    return len(record.images()) if hasattr(record, "images") else 1


def _attn_fwd(rec, args, kwargs, result):
    n, d = args[0].shape
    rec.add("nn.matmul_flop", 8 * n * d * d + 4 * n * n * d)   # q,k,v,o + QK^T, AV


def _block_fwd(rec, args, kwargs, result):
    n, d = args[0].shape
    rec.add("nn.matmul_flop", 16 * n * d * d)                  # MLP d -> 4d -> d


def _attn_bwd(rec, args, kwargs, result):
    n, d = args[0].shape
    rec.add("nn.matmul_flop", 8 * n * n * d)                   # four (h, n, n) products


def _linear_bwd(rec, args, kwargs, result):
    dy, _, w = args[:3]
    rec.add("nn.matmul_flop", 4 * dy.shape[0] * w.shape[0] * w.shape[1])


def _project(rec, args, kwargs, result):
    pooled, params = args[:2]
    t2 = pooled.shape[0] * pooled.shape[1]
    rec.add("nn.matmul_flop", 2 * t2 * (params["proj_w1"].size + params["proj_w2"].size))


def _softmax(rec, args, kwargs, result):
    rec.add("nn.softmax_cells", args[0].size)


def _forward(rec, args, kwargs, result):
    rec.add("classifier.tokens_forwarded", len(args[0]))


def _assemble(rec, args, kwargs, result):
    rec.add("classifier.images_assembled", _n_images(args[0]))


def _assemble_patchify(rec, args, kwargs, result):
    rec.add("encoder.patchify_for_assembly", 1)


def _read(rec, args, kwargs, result):
    rec.add("records.read_bytes", os.path.getsize(args[0]))


def _write(rec, args, kwargs, result):
    rec.add("records.write_bytes", os.path.getsize(args[0]))


def _score_corpus(rec, args, kwargs, result):
    rec.add("filtering.rejects", len(result[1]))


def _select(rec, args, kwargs, result):
    rec.add("filtering.kept", len(result))
    rec.add("filtering.considered", len(args[1]))


def _dfn(rec, args, kwargs, result):
    rec.add("filtering.kept", len(result[0]))
    rec.add("filtering.considered", len(args[0]))
    rec.add("filtering.rejects", len(result[1]))


def _pack(rec, args, kwargs, result):
    rec.add("packing.ids", sum(len(s.tokens) for s in result))
    rec.add("packing.pad_ids", sum(s.tokens.count(0) for s in result))


def _kmeans(rec, args, kwargs, result):
    rec.add("clustering.kmeans_iters", result.n_iters)


# (module, attribute or Class.method, span name, hook)
TARGETS = [
    ("unifilter.classifier", "transformer_block", "nn.block_fwd", _block_fwd),
    ("unifilter.nn", "causal_self_attention", "nn.attn_fwd", _attn_fwd),
    ("unifilter.nn", "softmax_rows", "nn.softmax", _softmax),
    ("unifilter.nn", "gelu", "nn.gelu", None),
    ("unifilter.classifier", "transformer_block_backward", "nn.block_bwd", None),
    ("unifilter.nn", "causal_self_attention_backward", "nn.attn_bwd", _attn_bwd),
    ("unifilter.nn", "linear_backward", "nn.linear_bwd", _linear_bwd),
    ("unifilter.encoder", "linear_backward", "nn.linear_bwd", _linear_bwd),
    ("unifilter.classifier", "adam_step", "nn.adam_step", None),
    ("unifilter.classifier", "assemble", "classifier.assemble", _assemble),
    ("unifilter.classifier", "forward_score", "classifier.forward", _forward),
    ("unifilter.classifier", "backward_score", "classifier.backward", None),
    ("unifilter.classifier", "validation_accuracy", "classifier.validate", None),
    ("unifilter.classifier", "QualityModel.score_record", "classifier.score_record", None),
    ("unifilter.cli", "load_model", "classifier.ckpt_load", None),
    ("unifilter.cli", "save_model", "classifier.ckpt_save", None),
    ("unifilter.cli", "train", "classifier.train", None),
    ("unifilter.classifier", "patchify_embed", "encoder.patchify", _assemble_patchify),
    ("unifilter.clustering", "patchify_embed", "encoder.patchify", None),
    ("unifilter.filtering", "patchify_embed", "encoder.patchify", None),
    ("unifilter.classifier", "adaptive_avg_pool_2d", "encoder.pool", None),
    ("unifilter.classifier", "project", "encoder.project", _project),
    ("unifilter.cli", "read_records", "records.read", _read),
    ("unifilter.cli", "write_records", "records.write", _write),
    ("unifilter.filtering", "score_corpus", "filtering.score_corpus", _score_corpus),
    ("unifilter.filtering", "select_top_fraction", "filtering.select", _select),
    ("unifilter.filtering", "dfn_filter_corpus", "filtering.dfn", _dfn),
    ("unifilter.filtering", "dfn_image_embedding", "filtering.dfn_image_embed", None),
    ("unifilter.filtering", "hashed_text_embedding", "filtering.dfn_text_embed", None),
    ("unifilter.filtering", "corpus_stats", "filtering.stats", None),
    ("unifilter.cli", "pack", "packing.pack", _pack),
    ("unifilter.cli", "write_packed", "packing.write", None),
    ("unifilter.cli", "Vocab.load", "packing.vocab_load", None),
    ("unifilter.clustering", "doc_embedding", "clustering.embed", None),
    ("unifilter.clustering", "image_embedding", "clustering.embed", None),
    ("unifilter.clustering", "kmeans", "clustering.kmeans", _kmeans),
    ("unifilter.synthgen", "make_mock_sources", "synthgen.gen", None),
    ("unifilter.synthgen", "build_dataset", "synthgen.gen", None),
    ("unifilter.cli", "build_parser", "cli.parse", None),
    ("unifilter.cli", "write_json_file", "cli.write_json", None),
    ("unifilter.cli", "_write_rejects", "cli.write_json", None),
    ("unifilter.cli", "RunManifest.write", "cli.manifest", None),
]

# self-time metrics, each reported with its call count beside it
TIMED = [
    "nn.block_fwd", "nn.attn_fwd", "nn.softmax", "nn.gelu", "nn.block_bwd", "nn.attn_bwd",
    "nn.linear_bwd", "nn.adam_step",
    "classifier.assemble", "classifier.forward", "classifier.backward",
    "classifier.validate", "classifier.ckpt_load", "classifier.ckpt_save", "classifier.train",
    "encoder.patchify", "encoder.pool", "encoder.project",
    "records.read", "records.write",
    "filtering.score_corpus", "filtering.select", "filtering.dfn", "filtering.dfn_image_embed",
    "filtering.dfn_text_embed", "filtering.stats",
    "packing.pack", "packing.write", "packing.vocab_load",
    "clustering.embed", "clustering.kmeans",
    "synthgen.gen",
    "cli.parse", "cli.write_json", "cli.manifest",
]
STAGES = ["gen", "train", "eval", "score", "filter", "pack", "cluster", "dfn-filter", "stats"]
# the spans whose self time does the matmul work that nn.matmul_flop counts
FLOP_SPANS = ["nn.block_fwd", "nn.attn_fwd", "nn.softmax", "nn.gelu", "nn.block_bwd",
              "nn.attn_bwd", "nn.linear_bwd", "encoder.project"]


def install(recorder: Recorder) -> None:
    """Replace every target with its traced wrapper, for the life of the process."""
    for module_name, attr, name, hook in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        wrapped = recorder.wrap(getattr(owner, leaf), name, hook)
        if isinstance(inspect.getattr_static(owner, leaf), staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, leaf, wrapped)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(values_ns: list[int], q: int) -> float:
    if not values_ns:
        return 0.0
    if len(values_ns) == 1:
        return values_ns[0] / 1e6
    return statistics.quantiles(values_ns, n=100, method="inclusive")[q - 1] / 1e6


def metrics(recorder: Recorder, import_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced child process, as name -> (value, unit).

    Stage spans (``cli.<subcommand>``) are the roots; stage times are their
    whole durations, every other ``_s`` metric is self time.  Spans on
    score worker threads hang under the ``filtering.score_corpus`` span that
    waits for them.
    """
    spans, counts = recorder.spans, recorder.counts
    self_ns = self_times(spans)
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        out[name + "_s"] = (self_ns.get(name, 0) / 1e9, "s")
        out[name + "_calls"] = (float(counts[name + "_calls"]), "count")

    nn_s = sum(self_ns.get(name, 0) for name in FLOP_SPANS) / 1e9
    gflop = counts["nn.matmul_flop"] / 1e9
    read_s, write_s = out["records.read_s"][0], out["records.write_s"][0]
    score_ns = durations_ns(spans, "classifier.score_record")
    out.update({
        "nn.softmax_cells": (float(counts["nn.softmax_cells"]), "count"),
        "nn.matmul_gflop": (gflop, "GFLOP"),
        "nn.gflop_per_s": (_ratio(gflop, nn_s), "GFLOP/s"),
        "classifier.tokens_forwarded": (float(counts["classifier.tokens_forwarded"]), "count"),
        "classifier.score_record_p50_ms": (_percentile_ms(score_ns, 50), "ms"),
        "classifier.score_record_p99_ms": (_percentile_ms(score_ns, 99), "ms"),
        "encoder.patchify_per_image": (
            _ratio(counts["encoder.patchify_for_assembly"],
                   counts["classifier.images_assembled"]), "ratio"),
        "records.read_mb_per_s": (_ratio(counts["records.read_bytes"] / MB, read_s), "MB/s"),
        "records.write_mb_per_s": (_ratio(counts["records.write_bytes"] / MB, write_s), "MB/s"),
        "filtering.rejects": (float(counts["filtering.rejects"]), "count"),
        "filtering.kept_share": (
            _ratio(counts["filtering.kept"], counts["filtering.considered"]), "ratio"),
        "packing.pad_share": (_ratio(counts["packing.pad_ids"], counts["packing.ids"]), "ratio"),
        "clustering.kmeans_iters": (float(counts["clustering.kmeans_iters"]), "count"),
        "cli.import_s": (import_s, "s"),
    })
    stage_ns = {stage: 0 for stage in STAGES}
    roots = {i: share for i, share in coverage(spans).items()
             if spans[i][0].startswith("cli.")}
    for i in roots:
        stage = spans[i][0].removeprefix("cli.")
        stage_ns[stage] += spans[i][2] - spans[i][1]
    for stage in STAGES:
        out[f"cli.{stage}_s"] = (stage_ns[stage] / 1e9, "s")
    out["trace.coverage_share"] = (min(roots.values(), default=0.0), "ratio")
    return out
