"""Shared plumbing: error types, seed derivation, deterministic JSON output.

Everything downstream assumes two things from this module: exceptions map onto
CLI exit codes (DataError -> 3, NumericError -> 4), and any randomness flows
through child_rng so one --seed reproduces the whole pipeline byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__version__ = "0.1.0"


class DataError(Exception):
    """Malformed records, schema violations, missing files, bad user input."""


class SchemaError(DataError):
    """A record failed validation; carries the offending line when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class NumericError(Exception):
    """Non-finite values, divergent training, failed gradient checks."""


def check_field(cfg, name: str, ok, rule: str) -> None:
    """DataError unless the field is a finite real number (not a bool) that passes ok."""
    value = getattr(cfg, name)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and math.isfinite(value) and ok(value)):
        raise DataError(f"{name}={value!r}: must be {rule}")


def config_from(cls, fields, what: str):
    """cls(**fields); DataError unless fields is an object holding only cls's fields."""
    if not isinstance(fields, dict):
        raise DataError(f"{what} must be a JSON object, got {fields!r}")
    unknown = set(fields) - set(cls.__dataclass_fields__)
    if unknown:
        raise DataError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**fields)


def check_counts(cfg, *names: str) -> None:
    """check_field for each name: an integer >= 1."""
    for name in names:
        check_field(cfg, name, lambda v: isinstance(v, int) and v >= 1, "an integer >= 1")


def unit_vector(vec: np.ndarray) -> np.ndarray | None:
    """vec divided by its L2 norm; None when that norm is 0 or not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(vec))
    return vec / norm if norm != 0.0 and math.isfinite(norm) else None


# --- seeding ---------------------------------------------------------------
#
# Child streams are derived from (seed, path components) through SeedSequence
# so that independent pipeline stages never share or reuse a stream.  String
# components are hashed; ints pass through.


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def child_seed(seed: int, *path) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(_key_part(p) for p in path))


def child_rng(seed: int, *path) -> np.random.Generator:
    """Generator for one purpose, e.g. child_rng(seed, "kmeans", restart_idx)."""
    return np.random.default_rng(child_seed(seed, *path))


# --- json ------------------------------------------------------------------


def dump_json_line(obj) -> str:
    """One JSONL line. repr-based floats survive a round trip exactly."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


@contextmanager
def atomic_write(path):
    """A text file to write that replaces path only once the block succeeds.

    The file is a temporary beside path, renamed over it by os.replace, so a
    run that fails or dies mid-write leaves no partial file at path; a failure
    raised in the block also removes the temporary.  Nothing is fsynced: this
    guards against the process dying, not against the machine losing power.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", encoding="utf-8")
    except OSError as exc:      # name the path the caller gave, not the temporary
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json_file(path, obj) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def read_json_file(path) -> dict:
    """The JSON object in a file; DataError names the path when there is none."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"missing input file: {path}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise DataError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: must be a JSON object, got {type(obj).__name__}")
    return obj
