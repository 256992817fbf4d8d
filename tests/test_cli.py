"""End-to-end pipeline runs through the command line entry point."""

import base64
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unifilter
from unifilter.classifier import (TASK_GROUPS, ModelConfig, QualityModel, _cost, balanced_groups,
                                  init_params, save_model)
from unifilter.cli import main
from unifilter.common import DataError, child_rng, read_json_file
from unifilter.packing import Vocab
from unifilter.records import (CaptionSample, DocItem, ImagePayload, InterleavedDoc, LabeledSample,
                               ScoredRecord, write_records)

TINY_CFG = {
    "encoder": {"patch_size": 4, "d_v": 8, "t": 4, "d": 16, "seed": 0},
    "d": 16, "n_layers": 1, "n_heads": 2, "max_seq_len": 96,
    "batch_size": 8, "peak_lr": 1e-3,
}


def _write_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY_CFG))
    return str(path)


def _gen(tmp_path, seed=3, levels_count=3, out="data"):
    out_dir = tmp_path / out
    rc = main(["gen", "--out", str(out_dir), "--levels-count", str(levels_count),
               "--seed", str(seed), "--val-fraction", "0.1"])
    assert rc == 0
    return out_dir


def _train(tmp_path, data_dir, epochs=1, seed=5):
    ckpt = tmp_path / "model.json"
    rc = main(["train", "--train", str(data_dir / "train.jsonl"),
               "--val", str(data_dir / "val.jsonl"),
               "--epochs", str(epochs), "--config", _write_cfg(tmp_path),
               "--seed", str(seed), "--out-checkpoint", str(ckpt)])
    assert rc == 0
    return ckpt


def _tiny_model():
    cfg = ModelConfig(**{k: v for k, v in TINY_CFG.items() if k not in ("batch_size", "peak_lr")})
    return QualityModel(cfg, Vocab(words=["fox"]), init_params(cfg, 5, child_rng(0)))


def test_full_pipeline_smoke(tmp_path, capsys):
    data = _gen(tmp_path)
    for name in ("train.jsonl", "val.jsonl", "report.json", "manifest.json"):
        assert (data / name).exists()
    report = json.loads((data / "report.json").read_text())
    assert report["n_train"] + report["n_val"] == 24  # 3 per level x 4 x 2 modalities

    rc = main(["cluster", "--embeddings-from", str(data / "train.jsonl"),
               "--k", "3", "--per-cluster", "2", "--seed", "1",
               "--out", str(tmp_path / "clusters.json")])
    assert rc == 0
    clusters = json.loads((tmp_path / "clusters.json").read_text())
    assert set(clusters["assignments"].values()) <= {0, 1, 2}
    assert clusters["selected_ids"] == sorted(clusters["selected_ids"])

    ckpt = _train(tmp_path, data)
    assert ckpt.exists()
    assert (tmp_path / "vocab.json").exists()
    manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
    assert manifest["subcommand"] == "train"
    assert manifest["config"]["train"]["epochs"] == 1  # flag beat the config file

    rc = main(["eval", "--checkpoint", str(ckpt), "--val", str(data / "val.jsonl"),
               "--out", str(tmp_path / "eval.json")])
    assert rc == 0
    eval_obj = json.loads((tmp_path / "eval.json").read_text())
    assert 0.0 <= eval_obj["accuracy"] <= 1.0
    assert "Validation Acc" in capsys.readouterr().out

    rc = main(["score", "--checkpoint", str(ckpt), "--in", str(data / "train.jsonl"),
               "--out", str(tmp_path / "scores.jsonl"), "--batch-size", "4"])
    assert rc == 0
    scores = [json.loads(l) for l in (tmp_path / "scores.jsonl").read_text().splitlines()]
    n_train = len((data / "train.jsonl").read_text().splitlines())
    assert len(scores) == n_train
    assert all({"id", "score", "modality"} <= set(s) for s in scores)

    rc = main(["filter", "--scores", str(tmp_path / "scores.jsonl"),
               "--in", str(data / "train.jsonl"), "--fraction", "0.30",
               "--out", str(tmp_path / "filtered.jsonl")])
    assert rc == 0
    kept = (tmp_path / "filtered.jsonl").read_text().splitlines()
    import math

    assert len(kept) == math.ceil(0.30 * n_train)


def test_filter_fraction_one_keeps_everything(tmp_path):
    data = _gen(tmp_path, seed=11, levels_count=2)
    ckpt = _train(tmp_path, data)
    main(["score", "--checkpoint", str(ckpt), "--in", str(data / "val.jsonl"),
          "--out", str(tmp_path / "s.jsonl")])
    rc = main(["filter", "--scores", str(tmp_path / "s.jsonl"),
               "--in", str(data / "val.jsonl"), "--fraction", "1.0",
               "--out", str(tmp_path / "f.jsonl")])
    assert rc == 0
    assert len((tmp_path / "f.jsonl").read_text().splitlines()) == \
        len((data / "val.jsonl").read_text().splitlines())


def test_identical_invocations_are_byte_identical(tmp_path):
    data_a = _gen(tmp_path, seed=21, out="a")
    data_b = _gen(tmp_path, seed=21, out="b")
    for name in ("train.jsonl", "val.jsonl", "report.json"):
        assert (data_a / name).read_bytes() == (data_b / name).read_bytes()
    # manifests may differ only in wall time
    ma = json.loads((data_a / "manifest.json").read_text())
    mb = json.loads((data_b / "manifest.json").read_text())
    ma.pop("wall_time_s"), mb.pop("wall_time_s")
    ma["outputs"] = mb["outputs"] = None  # paths contain the run dir
    assert ma == mb


def test_dfn_filter_pack_stats_cli(tmp_path):
    data = _gen(tmp_path, seed=8, levels_count=2)
    ckpt = _train(tmp_path, data)

    from unifilter.records import InterleavedDoc, read_records, write_records

    # a caption is its one-image document: kept unchanged, or a reject
    records = [r.record for r in read_records(data / "train.jsonl", "labeled")]
    assert any(r.modality == "caption" for r in records)
    write_records(tmp_path / "unchanged.jsonl", records)
    rc = main(["dfn-filter", "--in", str(data / "train.jsonl"),
               "--threshold", "-1.0", "--out", str(tmp_path / "mixed.jsonl")])
    assert rc == 0
    assert (tmp_path / "mixed.jsonl").read_bytes() == (tmp_path / "unchanged.jsonl").read_bytes()
    rc = main(["dfn-filter", "--in", str(data / "train.jsonl"),
               "--threshold", "1.5", "--out", str(tmp_path / "mixed.jsonl")])
    assert rc == 0      # no cosine reaches 1.5: every record is a reject
    assert (tmp_path / "mixed.jsonl").read_text() == ""
    rejects = [json.loads(line) for line in
               (tmp_path / "mixed.rejects.jsonl").read_text().splitlines()]
    assert [r["id"] for r in rejects] == [r.id for r in records]

    docs_only = tmp_path / "docs.jsonl"
    docs = [r for r in records if isinstance(r, InterleavedDoc)]
    write_records(docs_only, docs)
    rc = main(["dfn-filter", "--in", str(docs_only), "--threshold", "-1.0",
               "--out", str(tmp_path / "dfn.jsonl")])
    assert rc == 0
    assert len((tmp_path / "dfn.jsonl").read_text().splitlines()) == len(docs)

    rc = main(["pack", "--in", str(docs_only), "--context-len", "128",
               "--vocab", str(tmp_path / "vocab.json"), "--t", "4",
               "--out", str(tmp_path / "packed.jsonl")])
    assert rc == 0
    packed = [json.loads(l) for l in (tmp_path / "packed.jsonl").read_text().splitlines()]
    assert all(len(p["tokens"]) == 128 for p in packed)

    rc = main(["stats", "--in", str(docs_only), "--image-token-equiv", "16",
               "--out", str(tmp_path / "stats.json")])
    assert rc == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["n_records"] == len(docs)
    assert stats["avg_doc_len"] == pytest.approx(
        stats["avg_text_len"] + 16 * stats["avg_images_per_doc"], abs=1e-9)


def _grid(width, seed):
    return ImagePayload(patches=child_rng(seed, "grid").normal(size=(4, 4, width)))


def test_cluster_and_dfn_filter_take_patch_grids_of_any_width(tmp_path):
    corpus = tmp_path / "grids.jsonl"
    write_records(corpus, [CaptionSample(id=f"g{i}", image=_grid(16, i), text="the fox runs")
                           for i in range(6)])
    assert main(["cluster", "--embeddings-from", str(corpus), "--k", "2", "--per-cluster", "1",
                 "--seed", "1", "--out", str(tmp_path / "clusters.json")]) == 0
    assert json.loads((tmp_path / "clusters.json").read_text())["n"] == 6
    assert main(["dfn-filter", "--in", str(corpus), "--threshold", "-1.0",
                 "--out", str(tmp_path / "dfn.jsonl")]) == 0
    assert (tmp_path / "dfn.jsonl").read_bytes() == corpus.read_bytes()


@pytest.mark.parametrize("records, where", [
    ([CaptionSample(id="p", text="the fox",
                    image=ImagePayload(pixels=child_rng(0, "px").uniform(size=(1, 16, 16)))),
      CaptionSample(id="g", image=_grid(16, 1), text="the fox")], "corpus"),
    ([InterleavedDoc(id="d", items=[DocItem(kind="image", image=_grid(8, 2)),
                                    DocItem(kind="text", text="the fox"),
                                    DocItem(kind="image", image=_grid(16, 3))])], "doc 'd'"),
], ids=["pixels-and-wide-grids", "one-doc-two-widths"])
def test_cluster_refuses_mixed_image_widths(tmp_path, capsys, records, where):
    corpus = tmp_path / "mixed.jsonl"
    write_records(corpus, records)
    capsys.readouterr()
    rc = main(["cluster", "--embeddings-from", str(corpus), "--k", "1",
               "--out", str(tmp_path / "clusters.json")])
    err = capsys.readouterr().err
    assert rc == 3 and "Traceback" not in err
    message = json.loads(err)["message"]
    assert where in message and "mixes image embedding widths [8, 16]" in message
    assert not (tmp_path / "clusters.json").exists()


@pytest.mark.filterwarnings("error")     # an overflow warning would be stray stderr output
def test_cluster_refuses_an_image_whose_embedding_overflows(tmp_path, capfd):
    """Finite pixels of 1e308 overflow the patch embedding: exit 3, one JSON error."""
    rng = child_rng(0, "px")
    corpus = tmp_path / "huge.jsonl"
    write_records(corpus, [CaptionSample(id=f"c{i}", text="the fox", image=ImagePayload(
        pixels=np.full((3, 8, 8), 1e308) if i == 0 else rng.uniform(size=(3, 8, 8))))
        for i in range(4)])
    capfd.readouterr()
    rc = main(["cluster", "--embeddings-from", str(corpus), "--k", "2",
               "--out", str(tmp_path / "clusters.json")])
    err = capfd.readouterr().err
    assert rc == 3 and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "data", "message": "image embedding has a non-finite "
                                                           "norm; cannot normalize"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.jsonl"]


def test_a_grid_not_d_v_wide_is_a_score_reject_and_an_eval_error(tmp_path, capsys):
    save_model(tmp_path / "model.json", _tiny_model())        # d_v 8
    corpus = tmp_path / "corpus.jsonl"
    write_records(corpus, [CaptionSample(id="ok", image=_grid(8, 0), text="the fox"),
                           CaptionSample(id="wide", image=_grid(16, 1), text="the fox")])
    assert main(["score", "--checkpoint", str(tmp_path / "model.json"), "--in", str(corpus),
                 "--out", str(tmp_path / "scores.jsonl")]) == 0
    rejects = (tmp_path / "scores.rejects.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in rejects] == [
        {"id": "wide", "error": "precomputed patch grid has dim 16, encoder expects 8"}]

    labeled = tmp_path / "labeled.jsonl"
    write_records(labeled, [LabeledSample(record=CaptionSample(id="wide", image=_grid(16, 1),
                                                               text="the fox"),
                                          label=3, level_name="positive")])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "model.json"), "--val", str(labeled),
                 "--out", str(tmp_path / "eval.json")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "precomputed patch grid has dim 16, encoder expects 8"
    assert not (tmp_path / "eval.json").exists()


def test_bench_cli(tmp_path):
    data = _gen(tmp_path, seed=13, levels_count=2)
    ckpt = _train(tmp_path, data)
    rc = main(["bench", "--checkpoint", str(ckpt), "--sizes", "4,8",
               "--batches", "1,2", "--repeats", "1",
               "--out", str(tmp_path / "bench.json")])
    assert rc == 0
    bench = json.loads((tmp_path / "bench.json").read_text())
    assert bench["precision"] == "float64"
    assert len(bench["rows"]) == 4
    assert all(row["samples_per_s"] > 0 for row in bench["rows"])


def test_duplicate_record_ids_exit_3_before_scoring(tmp_path, capsys):
    data = _gen(tmp_path, seed=2, levels_count=2)
    ckpt = _train(tmp_path, data)
    lines = (data / "val.jsonl").read_text().splitlines()
    corpus = tmp_path / "dup.jsonl"
    corpus.write_text("\n".join(lines + lines[:1]) + "\n")
    capsys.readouterr()
    out = tmp_path / "dup_scores.jsonl"
    rc = main(["score", "--checkpoint", str(ckpt), "--in", str(corpus), "--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data"
    assert "duplicate record id" in err["message"]
    assert not out.exists()


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "data"
    assert main(["gen", "--out", str(out), "--levels-count", "2", "--seed", "3",
                 "--val-fraction", "0.1"]) == 0
    return out


@pytest.mark.parametrize("config, field", [
    ({**TINY_CFG, "epochs": 0}, "epochs"),
    ({**TINY_CFG, "epochs": 2.5}, "epochs"),
    ({**TINY_CFG, "batch_size": 0}, "batch_size"),
    ({**TINY_CFG, "batch_size": True}, "batch_size"),
    ({**TINY_CFG, "peak_lr": 0.0}, "peak_lr"),
    ({**TINY_CFG, "peak_lr": -1e-3}, "peak_lr"),
    ({**TINY_CFG, "peak_lr": float("nan")}, "peak_lr"),
    ({**TINY_CFG, "peak_lr": float("inf")}, "peak_lr"),
    ({**TINY_CFG, "peak_lr": "fast"}, "peak_lr"),
    ({**TINY_CFG, "warmup_frac": 1.0}, "warmup_frac"),
    ({**TINY_CFG, "warmup_frac": -0.1}, "warmup_frac"),
    ({**TINY_CFG, "beta1": 1.0}, "beta1"),
    ({**TINY_CFG, "beta2": -0.5}, "beta2"),
    ({**TINY_CFG, "eps": 0.0}, "eps"),
    ({**TINY_CFG, "weight_decay": -0.01}, "weight_decay"),
    ({**TINY_CFG, "weight_decay": float("inf")}, "weight_decay"),
    ({**TINY_CFG, "vocab_min_count": 0}, "vocab_min_count"),
    ({**TINY_CFG, "encoder": {**TINY_CFG["encoder"], "patch_sz": 4}}, "patch_sz"),
    ({**TINY_CFG, "d": "64"}, "d="),
    ({**TINY_CFG, "n_heads": 0}, "n_heads"),
    ({**TINY_CFG, "max_seq_len": 0}, "max_seq_len"),
    ({**TINY_CFG, "n_layers": 1.5}, "n_layers"),
    ({**TINY_CFG, "encoder": {**TINY_CFG["encoder"], "t": 0}}, "t="),
    ({**TINY_CFG, "encoder": {**TINY_CFG["encoder"], "patch_size": 0}}, "patch_size"),
    ({**TINY_CFG, "encoder": {**TINY_CFG["encoder"], "d_v": "8"}}, "d_v"),
    ({**TINY_CFG, "encoder": {**TINY_CFG["encoder"], "seed": 0.5}}, "seed"),
    ({**TINY_CFG, "encoder": {**TINY_CFG["encoder"], "seed": -1}}, "seed"),
    ({**TINY_CFG, "encoder": [4, 8]}, "encoder"),
    ({**TINY_CFG, "encoder": "big"}, "encoder"),
    ([TINY_CFG], "JSON object"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_bad_train_config_exits_3_without_a_checkpoint(tmp_path, capsys, small_data, config, field):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    ckpt = tmp_path / "model.json"
    capsys.readouterr()
    rc = main(["train", "--train", str(small_data / "train.jsonl"),
               "--val", str(small_data / "val.jsonl"), "--config", str(cfg_path),
               "--out-checkpoint", str(ckpt)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    obj = json.loads(err)
    assert obj["error"] == "data"
    assert field in obj["message"]
    assert not list(tmp_path.glob("model.json*"))  # no checkpoint, no manifest


_DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_train_config_exits_3_without_a_checkpoint(tmp_path, capsys, small_data):
    cfg_path = tmp_path / "deep.json"
    cfg_path.write_text(_DEEP_JSON, encoding="utf-8")
    ckpt = tmp_path / "model.json"
    capsys.readouterr()
    rc = main(["train", "--train", str(small_data / "train.jsonl"),
               "--val", str(small_data / "val.jsonl"), "--config", str(cfg_path),
               "--out-checkpoint", str(ckpt)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    obj = json.loads(err)
    assert obj["error"] == "data"
    assert str(cfg_path) in obj["message"]
    assert not list(tmp_path.glob("model.json*"))


@pytest.mark.parametrize("text, problem", [
    (None, "missing"),
    ('{"format": ', "invalid JSON"),
    (_DEEP_JSON, "nested too deeply"),
    (b"{\"a\": \"\xff\"}", "UTF-8"),
    ("[1]", "JSON object"),
], ids=["missing", "truncated", "deep", "not-utf-8", "array"])
def test_json_file_errors_name_the_path(tmp_path, text, problem):
    path = tmp_path / "in.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=problem) as exc:
        read_json_file(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("argv, code", [
    (["gen", "--levels-count", "2", "--seed", "-1"], 2),
    (["gen", "--levels-count", "2", "--val-fraction", "2"], 3),
    (["gen", "--levels-count", "2", "--val-fraction", "-0.5"], 3),
    (["gen", "--levels-count", "-1"], 3),
    (["cluster", "--embeddings-from", "{train}", "--k", "2", "--per-cluster", "-3"], 3),
    (["cluster", "--embeddings-from", "{train}", "--k", "2", "--per-cluster", "0"], 3),
    (["pack", "--in", "{train}", "--vocab", "{vocab}", "--t", "0"], 3),
    (["stats", "--in", "{train}", "--image-token-equiv", "-5"], 3),
    (["bench", "--checkpoint", "{ckpt}", "--sizes", "0"], 3),
    (["cluster", "--embeddings-from", "{scores}", "--k", "1"], 3),
    (["stats", "--in", "{scores}"], 3),
    (["pack", "--in", "{scores}", "--vocab", "{vocab}"], 3),
    (["score", "--checkpoint", "{truncated}", "--in", "{train}"], 3),
    (["pack", "--in", "{train}", "--vocab", "{truncated}"], 3),
    (["score", "--checkpoint", "{deep}", "--in", "{train}"], 3),
    (["eval", "--checkpoint", "{deep}", "--val", "{train}"], 3),
    (["pack", "--in", "{train}", "--vocab", "{deep}"], 3),
    (["pack", "--in", "{train}", "--vocab", "{array}"], 3),
    (["gen", "--levels-count", "0"], 3),
    (["dfn-filter", "--in", "{train}", "--threshold", "nan"], 3),
    (["stats", "--in", "{train}", "--out", "{missing}"], 3),
    (["gen", "--levels-count", "2"], 3),
], ids=["gen-seed-negative", "gen-val-fraction-2", "gen-val-fraction-negative",
        "gen-levels-count-negative", "cluster-per-cluster-negative", "cluster-per-cluster-0",
        "pack-t-0", "stats-image-token-equiv-negative", "bench-sizes-0",
        "cluster-on-scores", "stats-on-scores", "pack-on-scores",
        "score-checkpoint-truncated", "pack-vocab-truncated", "score-checkpoint-deep",
        "eval-checkpoint-deep", "pack-vocab-deep", "pack-vocab-array", "gen-levels-count-0",
        "dfn-filter-threshold-nan", "out-in-missing-directory", "gen-empty-val"])
def test_out_of_range_inputs_exit_cleanly_without_output(tmp_path, capsys, small_data,
                                                         argv, code):
    vocab = tmp_path / "vocab.json"
    Vocab(words=["fox"]).save(vocab)
    ckpt = tmp_path / "model.json"
    save_model(ckpt, _tiny_model())
    scores = tmp_path / "scores.jsonl"
    write_records(scores, [ScoredRecord(id="s", score=1.0, modality="caption")])
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"format": ', encoding="utf-8")
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP_JSON, encoding="utf-8")
    array = tmp_path / "array.json"
    array.write_text("[1]", encoding="utf-8")
    out = tmp_path / "out"
    missing = tmp_path / "missing" / "s.json"
    argv = [arg.format(train=small_data / "train.jsonl", vocab=vocab, ckpt=ckpt, scores=scores,
                       truncated=truncated, deep=deep, array=array, missing=missing)
            for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    capsys.readouterr()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out*"))  # no primary output, no manifest
    assert not missing.parent.exists()
    if code == 3:
        obj = json.loads(err)
        assert obj["error"] == "data"
        assert ".tmp" not in obj["message"]     # a path the user gave, never a temporary
        if str(missing) in argv:
            assert str(missing) in obj["message"]


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


@pytest.mark.parametrize("subcommand, breaks, problem", [
    ("score", lambda ck: {"format": ck["format"]}, "tensors"),
    ("eval", lambda ck: {**ck, "meta": {k: v for k, v in ck["meta"].items() if k != "config"}},
     "model config"),
    ("score", lambda ck: {**ck, "tensors": {**ck["tensors"],
                                            "head_b": {"shape": [3], "b64": _b64([1, 2])}}},
     "head_b"),
    ("eval", lambda ck: {**ck, "meta": {**ck["meta"],
                                        "config": {**ck["meta"]["config"], "depth": 3}}},
     "depth"),
    ("pack", lambda vocab: {k: v for k, v in vocab.items() if k != "words"}, "words"),
    ("score", lambda ck: {**ck, "tensors": {k: v for k, v in ck["tensors"].items()
                                            if k != "tok_emb"}}, "tok_emb"),
    ("eval", lambda ck: {**ck, "tensors": {**ck["tensors"], "blocks.0.wq": {
        "shape": [16, 8], "b64": _b64([0.0] * 128)}}}, "blocks.0.wq"),
    # checked against the file's shapes, never allocated: 10**9 x 16 doubles are 128 GB
    ("score", lambda ck: {**ck, "meta": {**ck["meta"], "config": {
        **ck["meta"]["config"], "max_seq_len": 10**9}}}, "pos_emb"),
    ("score", lambda ck: {**ck, "tensors": {**ck["tensors"], "head_b": {
        "shape": [1], "b64": "AAAAAA*AAAAA="}}}, "head_b"),
    ("eval", lambda ck: {**ck, "format": "unifilter-tensors-v1"}, "'unifilter-tensors-v1'"),
    # reshape would infer the -1 and the config's shape check would pass
    ("score", lambda ck: {**ck, "tensors": {**ck["tensors"], "tok_emb": {
        **ck["tensors"]["tok_emb"], "shape": [-1, 16]}}}, "tok_emb"),
], ids=["no-tensors", "no-config", "short-data", "unknown-config-key", "vocab-no-words",
        "no-tok-emb", "wq-wrong-shape", "huge-max-seq-len", "bad-base64", "v1-format",
        "negative-shape"])
def test_malformed_checkpoint_and_vocab_exit_3_naming_the_path(tmp_path, capsys, small_data,
                                                               subcommand, breaks, problem):
    path = tmp_path / "broken.json"
    if subcommand == "pack":
        Vocab(words=["fox"]).save(path)
    else:
        save_model(path, _tiny_model())
    path.write_text(json.dumps(breaks(json.loads(path.read_text()))))
    records = str(small_data / "val.jsonl")
    argv = {"score": ["score", "--checkpoint", str(path), "--in", records],
            "eval": ["eval", "--checkpoint", str(path), "--val", records],
            "pack": ["pack", "--in", records, "--vocab", str(path)]}[subcommand]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data"
    assert str(path) in err["message"] and problem in err["message"]
    assert not list(tmp_path.glob("out*"))


def test_eval_non_finite_score_exits_4_without_a_report(tmp_path, capsys, small_data):
    model = _tiny_model()
    model.params["head_b"][:] = float("nan")
    ckpt = tmp_path / "nan.json"
    save_model(ckpt, model)
    out = tmp_path / "eval.json"
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(ckpt), "--val", str(small_data / "val.jsonl"),
               "--out", str(out)])
    assert rc == 4
    assert json.loads(capsys.readouterr().err)["error"] == "numeric"
    assert not list(tmp_path.glob("eval.json*"))


def test_diverging_training_exits_4_without_a_checkpoint(tmp_path, capsys, small_data):
    cfg_path = tmp_path / "hot.json"
    cfg_path.write_text(json.dumps({**TINY_CFG, "peak_lr": 1e6, "epochs": 2}))
    capsys.readouterr()
    rc = main(["train", "--train", str(small_data / "train.jsonl"),
               "--val", str(small_data / "val.jsonl"), "--config", str(cfg_path),
               "--out-checkpoint", str(tmp_path / "model.json")])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numeric" and "diverged" in err["message"]
    assert not list(tmp_path.glob("model.json*")) and not (tmp_path / "vocab.json").exists()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_too_long_training_record_exits_3_with_one_json_error(tmp_path, capfd, small_data):
    # At max_seq_len 160 every generated record fits (the longest has 155
    # positions), so the too-long one is its batch's costliest sample.  It
    # goes to the training process's group, which fails at once while the
    # forked worker is still busy with the other group.
    lines = (small_data / "train.jsonl").read_text().splitlines()
    doc = next(json.loads(line) for line in lines if json.loads(line)["kind"] == "interleaved")
    items = doc["record"]["items"]
    image = next(item for item in items if item["kind"] == "image")
    text = next(item for item in items if item["kind"] == "text")
    doc["record"] = {"id": "too-long", "items": [image] * 11 + [text]}  # 11 x 16 > 160
    train_path = tmp_path / "train.jsonl"
    train_path.write_text("\n".join(lines + [json.dumps(doc)]) + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_CFG, "max_seq_len": 160}))
    capfd.readouterr()
    rc = main(["train", "--train", str(train_path), "--val", str(small_data / "val.jsonl"),
               "--config", str(cfg_path), "--out-checkpoint", str(tmp_path / "model.json")])
    assert rc == 3
    err = json.loads(capfd.readouterr().err)     # one JSON object, no worker traceback
    assert err["error"] == "data" and "'too-long'" in err["message"]
    assert "exceed max_seq_len" in err["message"]
    assert not (tmp_path / "model.json").exists()


def _kill_the_worker_at_its_first_assembly(monkeypatch):
    """The forked worker SIGKILLs itself inside its first task; this process
    assembles as usual."""
    from unifilter import classifier

    parent, real = os.getpid(), classifier.assemble

    def assemble(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(classifier, "assemble", assemble)


def _assert_one_dead_worker_error(capfd):
    err = capfd.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    obj = json.loads(err)
    assert obj["error"] == "data" and f"killed by signal {signal.SIGKILL}" in obj["message"]
    assert multiprocessing.active_children() == []


def _kill_the_idle_worker_at_the_first_adam_step(monkeypatch):
    """This process SIGKILLs the worker, and waits for it to die, while the
    worker waits for its next task."""
    from unifilter import classifier

    real = classifier.adam_step

    def adam_step(*args):
        for child in multiprocessing.active_children():
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=30)
            assert not child.is_alive()
        return real(*args)

    monkeypatch.setattr(classifier, "adam_step", adam_step)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
@pytest.mark.parametrize("kill", [_kill_the_worker_at_its_first_assembly,
                                  _kill_the_idle_worker_at_the_first_adam_step],
                         ids=["in-task", "idle"])
def test_train_worker_death_exits_3_with_one_json_error(tmp_path, capfd, small_data,
                                                        monkeypatch, kill):
    kill(monkeypatch)
    capfd.readouterr()
    rc = main(["train", "--train", str(small_data / "train.jsonl"),
               "--val", str(small_data / "val.jsonl"), "--config", _write_cfg(tmp_path),
               "--out-checkpoint", str(tmp_path / "model.json")])
    assert rc == 3
    _assert_one_dead_worker_error(capfd)
    assert not list(tmp_path.glob("model.json*")) and not (tmp_path / "vocab.json").exists()


def test_score_worker_death_exits_3_with_one_json_error(tmp_path, capfd, small_data,
                                                        monkeypatch):
    save_model(tmp_path / "model.json", _tiny_model())
    _kill_the_worker_at_its_first_assembly(monkeypatch)
    capfd.readouterr()
    rc = main(["score", "--checkpoint", str(tmp_path / "model.json"),
               "--in", str(small_data / "train.jsonl"), "--out", str(tmp_path / "scores.jsonl"),
               "--batch-size", "2", "--workers", "2"])    # at 1 the worker gets no record
    assert rc == 3
    _assert_one_dead_worker_error(capfd)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_gen_removed_generator_flags_are_usage_errors(tmp_path):
    # the mock is the only generator: no remote config, no --mock, no --num-words;
    # its source pools are always exactly large enough
    for extra in (["--generator-config", "x.json"], ["--mock"], ["--num-words", "50"],
                  ["--caption-images", "8"], ["--docs", "8"]):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", str(tmp_path / "data"), *extra])
        assert exc.value.code == 2, extra
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--checkpoint", "m.json", "--val", "v.jsonl", "--seed", "1"],
    ["score", "--checkpoint", "m.json", "--in", "r.jsonl", "--seed", "1"],
    ["filter", "--scores", "s.jsonl", "--in", "r.jsonl", "--seed", "1"],
    ["dfn-filter", "--in", "r.jsonl", "--seed", "1"],
    ["pack", "--in", "r.jsonl", "--vocab", "v.json", "--seed", "1"],
    ["stats", "--in", "r.jsonl", "--seed", "1"],
    ["pack", "--in", "r.jsonl", "--vocab", "v.json", "--caption-chunk-marker"],
], ids=["eval-seed", "score-seed", "filter-seed", "dfn-filter-seed", "pack-seed", "stats-seed",
        "pack-caption-chunk-marker"])
def test_removed_no_op_flags_are_usage_errors(tmp_path, argv):
    # --seed stays only on gen, train, cluster and bench, which draw random numbers
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_train_removed_config_flags_are_usage_errors(tmp_path):
    # batch size and peak lr are config keys only; --epochs is the one flag
    for extra in (["--peak-lr", "1e-3"], ["--batch-size", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--train", "t.jsonl", "--val", "v.jsonl",
                  "--out-checkpoint", str(tmp_path / "model.json"), *extra])
        assert exc.value.code == 2, extra
    assert not list(tmp_path.iterdir())


def test_train_missing_checkpoint_dir_exits_3_before_reading_data(tmp_path, capsys):
    ckpt = tmp_path / "nodir" / "model.json"
    rc = main(["train", "--train", str(tmp_path / "nope.jsonl"),
               "--val", str(tmp_path / "nope.jsonl"), "--out-checkpoint", str(ckpt)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    obj = json.loads(err)
    assert obj["error"] == "data"
    assert "checkpoint directory" in obj["message"]  # not the missing train input
    assert not list(tmp_path.iterdir())  # no checkpoint, no manifest


def test_missing_input_exits_3(tmp_path, capsys):
    rc = main(["score", "--checkpoint", str(tmp_path / "nope.json"),
               "--in", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "out.jsonl")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_numeric_blowup_exits_4(tmp_path, capsys):
    data = _gen(tmp_path, seed=4, levels_count=2)
    cfg = dict(TINY_CFG)
    cfg["peak_lr"] = 1e200  # first update overflows the forward pass
    cfg_path = tmp_path / "hot.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["train", "--train", str(data / "train.jsonl"),
               "--val", str(data / "val.jsonl"), "--epochs", "3",
               "--config", str(cfg_path), "--seed", "0",
               "--out-checkpoint", str(tmp_path / "m.json")])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numeric"


def test_workers_flag_sets_score_workers(tmp_path):
    data = _gen(tmp_path, seed=6, levels_count=2)
    ckpt = _train(tmp_path, data)
    score = ["score", "--checkpoint", str(ckpt), "--in", str(data / "val.jsonl")]
    assert main([*score, "--out", str(tmp_path / "s_default.jsonl")]) == 0
    manifest = json.loads((tmp_path / "s_default.jsonl.manifest.json").read_text())
    assert manifest["config"]["workers"] == len(os.sched_getaffinity(0))
    default = (tmp_path / "s_default.jsonl").read_bytes()
    assert default
    # the worker count never changes the scores
    for workers in (3, 2, 1):
        out = tmp_path / f"s_{workers}.jsonl"
        assert main([*score, "--out", str(out), "--workers", str(workers)]) == 0
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["config"]["workers"] == workers
        assert out.read_bytes() == default


def test_score_rejects_from_both_processes_match_one_process(tmp_path, capfd):
    """Each score process's group of the one batch holds an over-length
    record and an image too small to pool; --workers 2 writes --workers 1's
    bytes."""
    model = _tiny_model()       # max_seq_len 96, t = 4
    save_model(tmp_path / "model.json", model)
    rng = child_rng(0, "cli-both-processes")

    def image(side=16):
        return ImagePayload(pixels=rng.uniform(size=(1, side, side)))

    records = [CaptionSample(id=f"c{i}", image=image(), text="the fox runs") for i in range(8)]
    for slot, rid in ((1, "long0"), (4, "small0"), (6, "long1"), (9, "small1")):
        if rid.startswith("long"):      # 7 x 16 image tokens exceed max_seq_len 96
            items = [DocItem(kind="image", image=image()) for _ in range(7)]
            items.append(DocItem(kind="text", text="fox"))
            records.insert(slot, InterleavedDoc(id=rid, items=items))
        else:                           # a 2 x 2 patch grid cannot pool to 4 x 4
            records.insert(slot, CaptionSample(id=rid, image=image(side=8), text="fox"))
    groups = balanced_groups([_cost(r, model.config) for r in records], TASK_GROUPS)
    for group in groups:        # one of each kind in each process's group
        assert sorted(records[i].id[:-1] for i in group if records[i].id[0] != "c") \
            == ["long", "small"]
    write_records(tmp_path / "corpus.jsonl", records)

    capfd.readouterr()
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"scores{workers}.jsonl"
        assert main(["score", "--checkpoint", str(tmp_path / "model.json"),
                     "--in", str(tmp_path / "corpus.jsonl"), "--out", str(out),
                     "--workers", workers]) == 0
        rejects_path = tmp_path / f"scores{workers}.rejects.jsonl"
        outputs.append((out.read_bytes(), rejects_path.read_bytes()))
    assert outputs[0] == outputs[1]
    rejects = [json.loads(line) for line in outputs[0][1].decode().splitlines()]
    assert [r["id"] for r in rejects] == ["long0", "small0", "long1", "small1"]
    assert "exceed max_seq_len" in rejects[0]["error"] and "smaller than" in rejects[1]["error"]
    assert len(outputs[0][0].decode().splitlines()) == 8
    assert "Traceback" not in capfd.readouterr().err


def _score_bytes(tmp_path, name, *flags):
    out = tmp_path / f"{name}.jsonl"
    assert main(["score", "--checkpoint", str(tmp_path / "model.json"),
                 "--in", str(tmp_path / "corpus.jsonl"), "--out", str(out), *flags]) == 0
    return out.read_bytes(), (tmp_path / f"{name}.rejects.jsonl").read_bytes()


def test_score_bytes_do_not_depend_on_the_batch_size(tmp_path, capfd):
    """Batches of 1, 2 and 5 records, on one process and two, write the
    default run's bytes.  The first batch of 5 puts a reject in each
    process's group, and a later batch holds one more."""
    model = _tiny_model()       # max_seq_len 96, t = 4
    save_model(tmp_path / "model.json", model)
    rng = child_rng(0, "cli-batches")

    def image(side=16):
        return ImagePayload(pixels=rng.uniform(size=(1, side, side)))

    records = [CaptionSample(id=f"c{i}", image=image(), text="the fox runs") for i in range(18)]
    for slot, rid in ((1, "long0"), (4, "small0"), (13, "long1")):
        if rid.startswith("long"):      # 7 x 16 image tokens exceed max_seq_len 96
            items = [DocItem(kind="image", image=image()) for _ in range(7)]
            items.append(DocItem(kind="text", text="fox"))
            records.insert(slot, InterleavedDoc(id=rid, items=items))
        else:                           # a 2 x 2 patch grid cannot pool to 4 x 4
            records.insert(slot, CaptionSample(id=rid, image=image(side=8), text="fox"))
    first = records[:5]
    assert "long1" in [r.id for r in records[len(first):]]
    groups = balanced_groups([_cost(r, model.config) for r in first], TASK_GROUPS)
    assert [sorted(first[i].id for i in group if first[i].id[0] != "c") for group in groups] \
        in ([["long0"], ["small0"]], [["small0"], ["long0"]])
    write_records(tmp_path / "corpus.jsonl", records)

    capfd.readouterr()
    default = _score_bytes(tmp_path, "default")
    rejects = [json.loads(line)["id"] for line in default[1].decode().splitlines()]
    assert rejects == ["long0", "small0", "long1"]
    assert len(default[0].decode().splitlines()) == 18
    for batch_size in ("1", "2", "5"):
        for workers in ("1", "2"):
            assert _score_bytes(tmp_path, f"b{batch_size}-{workers}", "--batch-size", batch_size,
                                "--workers", workers) == default, (batch_size, workers)
    assert "Traceback" not in capfd.readouterr().err


def test_a_duplicate_id_in_a_later_batch_exits_3_without_scores(tmp_path, capfd):
    save_model(tmp_path / "model.json", _tiny_model())
    rng = child_rng(0, "cli-late-duplicate")
    records = [CaptionSample(id=f"c{i}", image=ImagePayload(pixels=rng.uniform(size=(1, 16, 16))),
                             text="the fox runs") for i in range(12)]
    records.append(records[3])      # arrives in the third batch of --batch-size 5
    write_records(tmp_path / "corpus.jsonl", records)
    capfd.readouterr()
    rc = main(["score", "--checkpoint", str(tmp_path / "model.json"),
               "--in", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "scores.jsonl"),
               "--batch-size", "5", "--workers", "2"])
    err = capfd.readouterr().err
    assert rc == 3
    assert "Traceback" not in err and len(err.splitlines()) == 1
    obj = json.loads(err)
    assert obj["error"] == "data" and obj["message"] == "duplicate record id 'c3'"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "model.json"]
    assert multiprocessing.active_children() == []


def test_blas_thread_policy_in_a_fresh_interpreter(tmp_path):
    """Importing unifilter first sets one BLAS thread unless the user chose a
    count; after numpy, OpenBLAS keeps its own count and the manifest says so."""
    data = _gen(tmp_path, seed=6, levels_count=2)
    ckpt = _train(tmp_path, data)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(unifilter.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cli = "import sys; from unifilter.cli import main; sys.exit(main(sys.argv[1:]))"
    for name, first, user_value, expected in (("policy", "", None, "1"), ("user", "", "2", "2"),
                                              ("numpy-first", "import numpy; ", None, None)):
        run_env = dict(env, **({} if user_value is None else {"OPENBLAS_NUM_THREADS": user_value}))
        out = tmp_path / f"s_blas_{name}.jsonl"
        subprocess.run([sys.executable, "-c", first + cli, "score", "--checkpoint", str(ckpt),
                        "--in", str(data / "val.jsonl"), "--out", str(out)],
                       env=run_env, check=True, timeout=120)
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["blas_threads"] == expected, name
        assert manifest["config"]["workers"] == len(os.sched_getaffinity(0))


def test_the_package_root_loads_only_the_thread_policy():
    """import unifilter loads no numpy and no submodule yet sets one BLAS
    thread; import unifilter.nn loads nn and common, not the pipeline."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(unifilter.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import json, os, sys; mods = lambda: sorted("
             "m for m in sys.modules if m.split('.')[0] in ('numpy', 'unifilter')); "
             "import unifilter; root = mods(); import unifilter.nn; "
             "print(json.dumps([root, os.environ['OPENBLAS_NUM_THREADS'], unifilter.BLAS_THREADS, "
             "mods()]))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    root, env_value, blas_threads, with_nn = json.loads(out)
    assert root == ["unifilter"]
    assert env_value == blas_threads == "1"
    assert "unifilter.nn" in with_nn
    assert not {"unifilter.synthgen", "unifilter.clustering", "unifilter.filtering",
                "unifilter.cli"} & set(with_nn)


def test_the_cli_runs_without_scipy(tmp_path):
    """scipy is only the tests' oracle: importing the CLI loads none of it, and
    gen -> train -> score with scipy's import blocked writes the checkpoint and
    scores of an unblocked run."""
    env = dict(os.environ)
    src = str(Path(unifilter.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    loaded = subprocess.run([sys.executable, "-c", "import sys, unifilter.cli; "
                             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                            env=env, check=True, timeout=120, capture_output=True, text=True)
    assert loaded.stdout.strip() == "[]"

    data = _gen(tmp_path, seed=6, levels_count=2)
    ckpt = _train(tmp_path, data)
    assert main(["score", "--checkpoint", str(ckpt), "--in", str(data / "val.jsonl"),
                 "--out", str(tmp_path / "scores.jsonl")]) == 0
    blocked = tmp_path / "blocked"
    cli = ("import sys; sys.modules['scipy'] = None; "
           "from unifilter.cli import main; sys.exit(main(sys.argv[1:]))")
    for argv in (["gen", "--out", str(blocked), "--levels-count", "2", "--seed", "6",
                  "--val-fraction", "0.1"],
                 ["train", "--train", str(blocked / "train.jsonl"), "--val", str(blocked / "val.jsonl"),
                  "--epochs", "1", "--config", _write_cfg(tmp_path), "--seed", "5",
                  "--out-checkpoint", str(blocked / "model.json")],
                 ["score", "--checkpoint", str(blocked / "model.json"),
                  "--in", str(blocked / "val.jsonl"), "--out", str(blocked / "scores.jsonl")]):
        subprocess.run([sys.executable, "-c", cli, *argv], env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
    assert (blocked / "model.json").read_bytes() == ckpt.read_bytes()
    assert (blocked / "scores.jsonl").read_bytes() == (tmp_path / "scores.jsonl").read_bytes()


def test_every_subcommand_writes_a_manifest(tmp_path):
    data = _gen(tmp_path, seed=9, levels_count=2)
    assert (data / "manifest.json").exists()
    ckpt = _train(tmp_path, data)
    main(["score", "--checkpoint", str(ckpt), "--in", str(data / "val.jsonl"),
          "--out", str(tmp_path / "sc.jsonl")])
    manifest = json.loads((tmp_path / "sc.jsonl.manifest.json").read_text())
    assert {"subcommand", "config", "seed", "inputs", "outputs",
            "version", "wall_time_s", "blas_threads"} <= set(manifest)
    assert manifest["seed"] is None  # score draws no random numbers
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["seed"] == 9 and "seed" not in manifest["config"]
