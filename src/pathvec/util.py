"""Small shared helpers: stable seed derivation, file hashing and
atomic file writes."""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


def derive_seed(seed: int, *salts: object) -> int:
    """Derive a stream seed from a base seed plus arbitrary salt values.

    Stable across processes and platforms (unlike builtin hash), so a
    stream keyed by (seed, file path, ...) is the same in every run,
    whatever order the files are processed in.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode("utf-8"))
    for salt in salts:
        h.update(b"\x1f")
        h.update(str(salt).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@contextmanager
def atomic_open(path: str | Path, mode: str, **kwargs) -> Iterator[IO]:
    """open(path, mode, **kwargs) for writing a whole file atomically.

    The data goes to a temporary file in path's directory, which is renamed
    over path when the block ends without an exception. So path holds
    either its old content or all of the new, and a failed write leaves no
    temporary file behind.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
