"""Append-only result cache keyed by operation + age + inputs + params.

Caching is off unless ARROWBENCH_CACHE_DIR is set (or a directory is
passed explicitly); --no-cache bypasses it per run.  Entries are whole
machine reports, so a cache hit replays byte-identical output.  Each
input enters the key in its normal form (the serialized structure), not
its isomorphism type, because a witness is written over the labeling of
the run that found it; a relabeled input gets an entry of its own.  A
tool version bump invalidates every entry because the version
participates in the key.  Writes go through a temp file and an atomic
rename.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

from arrowbench import __version__

ENV_VAR = "ARROWBENCH_CACHE_DIR"


def cache_dir(explicit: str | None = None) -> str | None:
    return explicit or os.environ.get(ENV_VAR)


def cache_key(operation: str, input_codes, params: dict, age: bytes = b"") -> str:
    h = hashlib.sha256()
    h.update(__version__.encode())
    h.update(operation.encode())
    h.update(b"\x02" + age)
    for code in input_codes:
        h.update(b"\x00")
        h.update(code if isinstance(code, bytes) else str(code).encode())
    for k in sorted(params):
        h.update(f"\x01{k}={params[k]!r}".encode())
    return h.hexdigest()


def lookup(directory: str | None, key: str) -> str | None:
    if not directory:
        return None
    path = os.path.join(directory, key + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def store(directory: str | None, key: str, report_text: str) -> None:
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, key + ".json")
    if os.path.exists(path):
        return  # append-only: first write wins
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(report_text)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
