"""End-to-end pipeline runs through the command line entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unifilter
from unifilter.classifier import ModelConfig, QualityModel, init_params, save_model
from unifilter.cli import main
from unifilter.common import DataError, child_rng, read_json_file
from unifilter.packing import Vocab
from unifilter.records import ScoredRecord, write_records

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

    rc = main(["dfn-filter", "--in", str(data / "train.jsonl"),
               "--threshold", "-1.0", "--out", str(tmp_path / "dfn.jsonl")])
    assert rc == 3  # caption records in the stream are a data error

    docs_only = tmp_path / "docs.jsonl"
    from unifilter.records import InterleavedDoc, LabeledSample, read_records, write_records

    docs = [r.record for r in read_records(data / "train.jsonl", "labeled")
            if isinstance(r.record, InterleavedDoc)]
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
], ids=["gen-seed-negative", "gen-val-fraction-2", "gen-val-fraction-negative",
        "gen-levels-count-negative", "cluster-per-cluster-negative", "cluster-per-cluster-0",
        "pack-t-0", "stats-image-token-equiv-negative", "bench-sizes-0",
        "cluster-on-scores", "stats-on-scores", "pack-on-scores",
        "score-checkpoint-truncated", "pack-vocab-truncated", "score-checkpoint-deep",
        "eval-checkpoint-deep", "pack-vocab-deep", "pack-vocab-array"])
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
    argv = [arg.format(train=small_data / "train.jsonl", vocab=vocab, ckpt=ckpt, scores=scores,
                       truncated=truncated, deep=deep, array=array)
            for arg in argv]
    capsys.readouterr()
    try:
        rc = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out*"))  # no primary output, no manifest
    if code == 3:
        assert json.loads(err)["error"] == "data"


@pytest.mark.parametrize("subcommand, breaks, problem", [
    ("score", lambda ck: {"format": ck["format"]}, "tensors"),
    ("eval", lambda ck: {**ck, "meta": {k: v for k, v in ck["meta"].items() if k != "config"}},
     "model config"),
    ("score", lambda ck: {**ck, "tensors": {**ck["tensors"],
                                            "head_b": {"shape": [3], "data": [1, 2]}}},
     "head_b"),
    ("eval", lambda ck: {**ck, "meta": {**ck["meta"],
                                        "config": {**ck["meta"]["config"], "depth": 3}}},
     "depth"),
    ("pack", lambda vocab: {k: v for k, v in vocab.items() if k != "words"}, "words"),
    ("score", lambda ck: {**ck, "tensors": {k: v for k, v in ck["tensors"].items()
                                            if k != "tok_emb"}}, "tok_emb"),
    ("eval", lambda ck: {**ck, "tensors": {**ck["tensors"], "blocks.0.wq": {
        "shape": [16, 8], "data": [0.0] * 128}}}, "blocks.0.wq"),
    # checked against the file's shapes, never allocated: 10**9 x 16 doubles are 128 GB
    ("score", lambda ck: {**ck, "meta": {**ck["meta"], "config": {
        **ck["meta"]["config"], "max_seq_len": 10**9}}}, "pos_emb"),
], ids=["no-tensors", "no-config", "short-data", "unknown-config-key", "vocab-no-words",
        "no-tok-emb", "wq-wrong-shape", "huge-max-seq-len"])
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


def test_blas_thread_policy_in_a_fresh_interpreter(tmp_path):
    """Importing unifilter first sets one BLAS thread unless the user chose a count."""
    data = _gen(tmp_path, seed=6, levels_count=2)
    ckpt = _train(tmp_path, data)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(unifilter.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for user_value, expected in ((None, "1"), ("2", "2")):
        if user_value is not None:
            env["OPENBLAS_NUM_THREADS"] = user_value
        out = tmp_path / f"s_blas_{expected}.jsonl"
        subprocess.run([sys.executable, "-m", "unifilter.cli", "score", "--checkpoint", str(ckpt),
                        "--in", str(data / "val.jsonl"), "--out", str(out)],
                       env=env, check=True, timeout=120)
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["blas_threads"] == expected
        assert manifest["config"]["workers"] == len(os.sched_getaffinity(0))


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
