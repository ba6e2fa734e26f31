"""Binary matrix file format and CSV interchange.

Layout of a `.mat` file: the 8-byte magic ``CTFMAT01``, a little-endian
u64 row count, a little-endian u64 column count, then rows*cols
little-endian float64 values in row-major order. Writes are atomic
(temp file + rename). CSV files hold one time step per row with
full-precision decimal values. JSON documents (manifests, scorecards,
leaderboards) are written with sorted keys, a 2-space indent and a
trailing newline.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .exceptions import CTFBenchError, MatrixFormatError

MAGIC = b"CTFMAT01"
_HEADER = struct.Struct("<QQ")


def _as_matrix(x: np.ndarray) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise MatrixFormatError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    return a


def problem(x: np.ndarray, shape: tuple[int, int]) -> str | None:
    """Why `x` is not an acceptable matrix of `shape` (wrong shape or a
    non-finite value), or None when it is."""
    if x.shape != shape:
        return f"shape {tuple(x.shape)} does not match required {shape}"
    if not np.all(np.isfinite(x)):
        return "contains non-finite values"
    return None


def make_dir(path: Path) -> None:
    """Create directory `path` and its parents; a file in the way or a
    missing permission raises CTFBenchError naming `path`."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CTFBenchError(f"{path}: cannot create directory: {exc.strerror}") from exc


@contextmanager
def _atomic_file(path: str | Path):
    """Yield a binary file that replaces `path` only once the block completes:
    a temp file in the same directory, renamed over `path` at the end. When
    the temp file cannot be made or renamed, CTFBenchError names `path`."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    except OSError as exc:
        raise CTFBenchError(
            f"{path}: cannot write into {str(path.parent)!r}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise CTFBenchError(f"{path}: cannot replace: {exc.strerror}") from exc
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write bytes to `path` via a temp file in the same directory + rename."""
    with _atomic_file(path) as fh:
        fh.write(payload)


def write_matrix(path: str | Path, x: np.ndarray) -> None:
    """Write a 2-D float64 matrix in the binary format."""
    a = np.ascontiguousarray(_as_matrix(x), dtype="<f8")
    with _atomic_file(path) as fh:
        fh.write(MAGIC + _HEADER.pack(*a.shape))
        fh.write(a.data.cast("B"))


def read_matrix(path: str | Path) -> np.ndarray:
    """Read a matrix written by `write_matrix`, validating header and size."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + _HEADER.size:
        raise MatrixFormatError(f"{path}: file too short for a matrix header")
    if raw[: len(MAGIC)] != MAGIC:
        raise MatrixFormatError(f"{path}: bad magic {raw[:8]!r}, expected {MAGIC!r}")
    rows, cols = _HEADER.unpack_from(raw, len(MAGIC))
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"{path}: invalid header dimensions [{rows}, {cols}]")
    body = raw[len(MAGIC) + _HEADER.size :]
    expected = rows * cols * 8
    if len(body) != expected:
        raise MatrixFormatError(
            f"{path}: shape mismatch, header says [{rows}, {cols}] "
            f"({expected} payload bytes) but file holds {len(body)}"
        )
    return np.frombuffer(body, dtype="<f8").reshape(rows, cols).astype(np.float64)


def write_csv(path: str | Path, x: np.ndarray) -> None:
    """Write a matrix as comma-separated decimal text, one time step per row.

    Values use 17 significant digits, enough to round-trip float64 exactly.
    """
    a = _as_matrix(x)
    row_format = ",".join(["%.17g"] * a.shape[1])
    lines = [row_format % tuple(row) for row in a.tolist()]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_csv(path: str | Path) -> np.ndarray:
    """Read a matrix from comma-separated text."""
    try:
        a = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: malformed CSV matrix: {exc}") from exc
    if a.size == 0:
        raise MatrixFormatError(f"{path}: empty CSV matrix")
    return a


def read_any(path: str | Path) -> np.ndarray:
    """Read a matrix by extension: `.mat` binary or `.csv` text."""
    path = Path(path)
    if path.suffix == ".csv":
        return read_csv(path)
    return read_matrix(path)


def dump_json(doc: dict) -> str:
    """The JSON document form: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, doc: dict) -> None:
    """Write `doc` atomically in the JSON document form."""
    atomic_write_bytes(path, dump_json(doc).encode())


def read_json(path: str | Path, error: type[CTFBenchError] = CTFBenchError) -> dict:
    """Read a JSON object; an unreadable file, invalid JSON or a top-level
    value that is not an object raises `error`."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise error(f"{path}: not a readable JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc
