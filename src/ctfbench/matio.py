"""Binary matrix file format and CSV interchange.

Layout of a `.mat` file: the 8-byte magic ``CTFMAT01``, a little-endian
u64 row count, a little-endian u64 column count, then rows*cols
little-endian float64 values in row-major order. Writes are atomic
(temp file + rename). Every read goes through one `MatrixReader`: it
checks the header against the file size before it allocates, then either
streams the payload in blocks of rows through one reused buffer of a few
MB, each a multiple of `SUM_BLOCK_ROWS` rows, or reads it straight into
one array (`read_matrix`: one copy of the bytes). `file_equals` compares a
file with an array as it streams, and `ctfbench score` streams each
prediction through its metrics, so the header, size and truncation
messages are the same on every read. `problem` checks finiteness in one
pass over a contiguous float64 array, writing nothing; `_once` keeps such
a verdict, or other work on an array, once per `truth_table()` block. CSV
files hold one time step per row with full-precision decimal values. JSON
documents (manifests, scorecards, leaderboards) are written with sorted
keys, a 2-space indent and a trailing newline, and never hold NaN or
Infinity; `encode` and `decode` are the one mapping between each document
and its dataclass.
"""

from __future__ import annotations

import errno
import functools
import json
import math
import os
import struct
import sys
import tempfile
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Any, Literal, get_args, get_origin, get_type_hints

import numpy as np

from .exceptions import CTFBenchError, MatrixFormatError

MAGIC = b"CTFMAT01"
_HEADER = struct.Struct("<QQ")


def _as_matrix(x: np.ndarray) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise MatrixFormatError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    return a


#: `problem`'s verdict on a matrix that holds a NaN or an infinity.
NON_FINITE = "contains non-finite values"


def misfit(got: tuple[int, ...], shape: tuple[int, int]) -> str | None:
    """Why a matrix of shape `got` is not one of `shape`, or None."""
    return None if got == shape else f"shape {tuple(got)} does not match required {shape}"


def problem(x: np.ndarray, shape: tuple[int, int]) -> str | None:
    """Why `x` is not an acceptable matrix of `shape` (wrong shape or a
    non-finite value), or None when it is."""
    return misfit(x.shape, shape) or (None if _all_finite(x) else NON_FINITE)


def _all_finite(x: np.ndarray) -> bool:
    """Whether every value of `x` is finite. For a C- or F-contiguous float64
    array, `x·x` decides in one pass that writes nothing: it is finite
    exactly when every value is finite and no square overflows. Any other
    array, and a non-finite `x·x` (a NaN, an infinity, or a value such as
    1e200 whose square overflows), take the element-wise scan, so the verdict
    is exact whatever the BLAS kernel or thread count."""
    if type(x) is np.ndarray and x.dtype == np.float64 and (
            x.flags.c_contiguous or x.flags.f_contiguous):
        v = x.ravel(order="K")
        with np.errstate(over="ignore"):
            if math.isfinite(np.dot(v, v)):
                return True
    return bool(np.all(np.isfinite(x)))


#: The table of the outermost open `truth_table()` block; None outside one.
_TRUTHS: ContextVar[dict | None] = ContextVar("ctfbench_truths", default=None)


@contextmanager
def truth_table():
    """Check and transform each distinct array once in this block: `_once`
    keeps the result of each piece of work on an array in one table, keyed by
    the array's identity, for `read_pack`'s and `validate_pack`'s checks, the
    referee's truth checks and the truth side of each metric. An array
    replaced by another is a new entry; one changed in place keeps its first
    results until the block ends. Nested blocks share one table.
    """
    token = _TRUTHS.set({}) if _TRUTHS.get() is None else None
    try:
        yield
    finally:
        if token is not None:
            _TRUTHS.reset(token)


def _once(x: np.ndarray, key, work):
    """`work()` for `x` and `key`, once per truth table or, outside one,
    every time. Work that raises is not stored: it raises again next time."""
    truths = _TRUTHS.get()
    if truths is None:
        return work()
    hit = truths.get((id(x), key))
    if hit is None:
        # The entry holds `x`, so its id is not reused while the table lives.
        hit = truths[id(x), key] = (x, work())
    return hit[1]


def make_dir(path: Path) -> None:
    """Create directory `path` and its parents; a file in the way or a
    missing permission raises CTFBenchError naming `path`."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CTFBenchError(f"{path}: cannot create directory: {exc.strerror}") from exc


def _temp_beside(path: Path) -> tuple[int, str]:
    """Open a new temp file in `path`'s directory; when that directory takes
    no new file, CTFBenchError names `path`."""
    try:
        return tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    except OSError as exc:
        raise CTFBenchError(
            f"{path}: cannot write into {str(path.parent)!r}: {exc.strerror}") from exc


def check_writable(path: str | Path) -> None:
    """Raise the CTFBenchError that writing `path` would raise when its
    directory takes no new file, leaving nothing behind."""
    fd, tmp = _temp_beside(Path(path))
    os.close(fd)
    os.unlink(tmp)


@contextmanager
def _atomic_file(path: str | Path):
    """Yield a binary file that replaces `path` only once the block completes:
    a temp file in the same directory, renamed over `path` at the end. When
    the temp file cannot be made or renamed, CTFBenchError names `path`."""
    path = Path(path)
    fd, tmp = _temp_beside(path)
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


def _header(fh, path: str | Path) -> tuple[int, int]:
    """The (rows, cols) that the header of the matrix file open as `fh`
    declares, once the file's size is the payload they need; any other
    header raises MatrixFormatError. Leaves `fh` at the payload."""
    head = fh.read(len(MAGIC) + _HEADER.size)
    if len(head) < len(MAGIC) + _HEADER.size:
        raise MatrixFormatError(f"{path}: file too short for a matrix header")
    if head[: len(MAGIC)] != MAGIC:
        raise MatrixFormatError(f"{path}: bad magic {head[:8]!r}, expected {MAGIC!r}")
    rows, cols = _HEADER.unpack_from(head, len(MAGIC))
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"{path}: invalid header dimensions [{rows}, {cols}]")
    expected = rows * cols * 8
    held = os.fstat(fh.fileno()).st_size - len(head)
    if held != expected:
        raise MatrixFormatError(
            f"{path}: shape mismatch, header says [{rows}, {cols}] "
            f"({expected} payload bytes) but file holds {held}"
        )
    return rows, cols


#: Bytes of the one buffer that a `MatrixReader` streams a payload through.
_CHUNK_BYTES = 4 << 20

#: Rows per block of every Frobenius norm (`metrics._sum_sq`). Part of the
#: metrics' definition: the order of the float sums, so the last bits of S,
#: follow it. A `MatrixReader` block holds a multiple of it, so no norm block
#: spans two reads.
SUM_BLOCK_ROWS = 64


class MatrixReader:
    """A matrix file open for reading, whose header has passed the checks
    of `_header`: `shape` is the (rows, cols) it declares. `blocks()` yields
    the payload as (first row, rows) pairs, each a view of one reused buffer
    of about `_CHUNK_BYTES` that the next block overwrites, and each but the
    last a multiple of `SUM_BLOCK_ROWS` rows; `read()` reads it whole into a
    new array. A file that cannot be opened or read, or whose payload ends
    early, raises MatrixFormatError naming it. Close it after use (`close()`,
    or a `with` block)."""

    def __init__(self, path: str | Path):
        self.path, self._got = path, 0
        self._fh = self._io(open, path, "rb", buffering=0)
        try:
            self.shape = self._io(_header, self._fh, path)
        except BaseException:
            self._fh.close()
            raise

    def _io(self, call, *args, **kwargs):
        """`call(*args, **kwargs)`, an OSError raised as a MatrixFormatError."""
        try:
            return call(*args, **kwargs)
        except OSError as exc:
            raise MatrixFormatError(f"{self.path}: cannot read: {exc.strerror}") from exc

    def _fill(self, part: np.ndarray) -> None:
        """Read the next `part.nbytes` bytes of the payload into `part`, with
        as many reads as the file needs, or to its end."""
        view, got = memoryview(part).cast("B"), 0
        while got < part.nbytes and (n := self._io(self._fh.readinto, view[got:])):
            got += n
        self._got += got
        if got != part.nbytes:
            raise MatrixFormatError(f"{self.path}: payload ends after {self._got} of "
                                    f"{self.shape[0] * self.shape[1] * 8} bytes")

    def blocks(self):
        """The payload as (first row, rows) pairs, through one reused buffer."""
        rows, cols = self.shape
        step = max(1, _CHUNK_BYTES // (8 * cols * SUM_BLOCK_ROWS)) * SUM_BLOCK_ROWS
        buf = np.empty((min(step, rows), cols), dtype="<f8")
        for start in range(0, rows, step):
            part = buf[: rows - start]
            self._fill(part)
            yield start, part

    def read(self) -> np.ndarray:
        """The whole payload, read straight into a new array."""
        a = np.empty(self.shape, dtype="<f8")
        self._fill(a)
        return a.astype(np.float64, copy=False)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> MatrixReader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_matrix(path: str | Path) -> np.ndarray:
    """Read a matrix written by `write_matrix`, validating header and size
    before allocating; a file that cannot be read raises MatrixFormatError."""
    with MatrixReader(path) as m:
        return m.read()


def file_equals(path: str | Path, x: np.ndarray) -> bool:
    """Whether the matrix file at `path` holds `x`: its shape, and equal
    values (`==`, as `np.array_equal`), compared as the file streams through
    one reused buffer of at most a few MB. False for any file that
    `read_matrix` would reject, and for one that it cannot read."""
    try:
        with MatrixReader(path) as m:
            return m.shape == x.shape and all(
                np.array_equal(part, x[start:start + len(part)]) for start, part in m.blocks())
    except MatrixFormatError:
        return False


def write_csv(path: str | Path, x: np.ndarray) -> None:
    """Write a matrix as comma-separated decimal text, one time step per row.

    Values use 17 significant digits, enough to round-trip float64 exactly.
    """
    with _atomic_file(path) as fh:
        np.savetxt(fh, _as_matrix(x), fmt="%.17g", delimiter=",")


def read_csv(path: str | Path) -> np.ndarray:
    """Read a matrix from comma-separated text; an unreadable file is a MatrixFormatError."""
    try:
        a = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: malformed CSV matrix: {exc}") from exc
    except OSError as exc:
        # numpy raises FileNotFoundError for a missing path without an errno.
        why = exc.strerror or os.strerror(errno.ENOENT)
        raise MatrixFormatError(f"{path}: cannot read: {why}") from exc
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
    """The JSON document form: sorted keys, 2-space indent, trailing newline.
    A NaN or infinite float raises ValueError."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: str | Path, doc: dict) -> None:
    """Write `doc` atomically in the JSON document form."""
    atomic_write_bytes(path, dump_json(doc).encode())


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def read_json(path: str | Path, error: type[CTFBenchError] = CTFBenchError) -> dict:
    """Read a JSON object; an unreadable file, invalid JSON (NaN and Infinity
    included) or a top-level value that is not an object raises `error`."""
    try:
        doc = json.loads(Path(path).read_text(), parse_constant=_no_constant)
    except (OSError, ValueError) as exc:
        raise error(f"{path}: not a readable JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def encode(value: Any) -> Any:
    """The JSON value of `value`: a dataclass becomes an object holding each field
    under its dotted key path, `field(metadata={"key": ...})` or its name, and a
    tuple an array."""
    if is_dataclass(value):
        doc: dict = {}
        for f in fields(value):
            *parents, leaf = f.metadata.get("key", f.name).split(".")
            node = doc
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = encode(getattr(value, f.name))
        return doc
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def _join(at: str, key: str) -> str:
    return f"{at}.{key}" if at else key


_ABSENT = object()


def difference(got: Any, want: Any, at: str = "") -> str | None:
    """Where JSON values `got` and `want` first differ, compared type for type
    (1024.0 is not 1024): `<key>: <entry> <got> is not <want>`, naming the
    top-level key and the key path below it; None when they are the same."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in dict.fromkeys([*want, *got]):
            why = difference(got.get(key, _ABSENT), want.get(key, _ABSENT), _join(at, key))
            if why is not None:
                return why
        return None
    got, want = ("absent" if v is _ABSENT else f"{json.dumps(v):.40}" for v in (got, want))
    if got == want:
        return None
    key, _, entry = at.partition(".")
    return f"{key}: " + " ".join(filter(None, (entry, got, "is not", want)))


def _check(value: Any, tp: type, at: str) -> None:
    """Refuse a `value` of another type than `tp`. A float is finite, and may
    be an integer that converts to a finite float."""
    if type(value) not in ((int, float) if tp is float else (tp,)) or (
            tp is float and not abs(value) <= sys.float_info.max):
        raise ValueError(f"{at}: expected {tp.__name__}, got {json.dumps(value):.40}")


@functools.cache
def _layout(tp: type) -> tuple[tuple[str, tuple[str, ...], Any], ...]:
    """Each field of dataclass `tp` as (name, key path, annotation), version
    fields first, so that a document of another version is named as such.
    Cached: evaluating the string annotations costs more than a decode."""
    hints = get_type_hints(tp)
    return tuple(
        (f.name, tuple(f.metadata.get("key", f.name).split(".")), hints[f.name])
        for f in sorted(fields(tp), key=lambda f: get_origin(hints[f.name]) is not Literal)
    )


@functools.cache
def _key_tree(tp: type) -> dict:
    """The keys that `encode` writes for dataclass `tp`: each maps to the
    keys below it, none below a field's own key."""
    tree: dict = {}
    for _, parts, _ in _layout(tp):
        node = tree
        for part in parts:
            node = node.setdefault(part, {})
    return tree


def _only_keys(node: dict, tree: dict, at: str) -> None:
    """Refuse a key of `node` that `tree` does not hold, at any depth of `tree`."""
    for key in node:
        if key not in tree:
            raise ValueError(f"{_join(at, key)}: unexpected key")
        if tree[key]:
            _only_keys(node[key], tree[key], _join(at, key))


def decode(tp: Any, value: Any, at: str = "") -> Any:
    """`value`, read from JSON, as annotation `tp`: `str`, `int`, `float` (finite;
    an integer stays one), `X | None`, `list[X]`, a tuple of X (from a JSON
    array), `dict[str, X]`, a `Literal` version, or a dataclass laid out as
    `encode` writes it, with no other key, whose `validate()` then runs.
    A misfit, or a rule that the dataclass's constructor or `validate()`
    raises, is a ValueError at `at`."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal:
        if value not in args:
            raise ValueError(f"{at}: version mismatch: {value!r:.40} != {args[0]!r}")
        return value
    if origin is UnionType:  # X | None
        return None if value is None else decode(args[0], value, at)
    if not is_dataclass(tp):
        _check(value, list if origin is tuple else origin or tp, at)
        if origin in (list, tuple):
            return origin(decode(args[0], v, f"{at}[{i}]") for i, v in enumerate(value))
        if origin is dict:
            return {k: decode(args[1], v, _join(at, k)) for k, v in value.items()}
        return value
    kwargs = {}
    for name, parts, hint in _layout(tp):
        node, path = value, at
        for part in parts:
            _check(node, dict, path)
            if part not in node:
                raise ValueError(f"{_join(path, part)}: missing")
            node, path = node[part], _join(path, part)
        kwargs[name] = decode(hint, node, path)
    _only_keys(value, _key_tree(tp), at)
    try:
        obj = tp(**kwargs)
        getattr(obj, "validate", lambda: None)()
    except (ValueError, CTFBenchError) as exc:
        raise ValueError(_join(at, str(exc))) from exc
    return obj


def read_document(path: str | Path, cls: type, error: type[CTFBenchError] = CTFBenchError):
    """Read the JSON document at `path` as dataclass `cls`; an unreadable
    document or a value that does not fit raises `error` naming `path`."""
    try:
        return decode(cls, read_json(path, error))
    except ValueError as exc:
        raise error(f"{path}: malformed {cls.__name__.lower()} document: {exc}") from exc
