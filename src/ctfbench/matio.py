"""Matrix files, CSV interchange and JSON documents.

A `.mat` file holds the 8-byte magic ``CTFMAT01``, a little-endian u64 row
count and a u64 column count, then rows*cols little-endian float64 values
in row-major order. `MatrixWriter` writes every one and `MatrixReader`
reads every one. `CsvReader` reads a CSV matrix through the same
interface: it counts the rows in one pass over the file's bytes, then
parses them block by block as they stream. `row_blocks` cuts an array
into the same blocks of rows, so `equal` and `problem` take files and
arrays alike. Every file is written atomically (`_AtomicFile`).
`dump_json` owns the JSON document form, and `encode` and `decode` map
each document to its dataclass.
"""

from __future__ import annotations

import codecs
import collections
import errno
import functools
import itertools
import json
import math
import os
import struct
import sys
import tempfile
import warnings
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Any, Literal, get_args, get_origin, get_type_hints

import numpy as np

from .exceptions import CTFBenchError, MatrixFormatError

MAGIC = b"CTFMAT01"
_HEADER = struct.Struct("<QQ")
#: Byte offset of a matrix file's first value.
_PAYLOAD = len(MAGIC) + _HEADER.size


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


def problem(x, shape: tuple[int, int], blocks=None) -> str | None:
    """Why `x`, an array or a `MatrixReader`, is not a finite matrix of
    `shape`, or None. The values are checked by `blocks`, by default
    `row_blocks(x)`, as far as the first non-finite one."""
    blocks = row_blocks(x) if blocks is None else blocks
    return misfit(x.shape, shape) or (
        None if all(_all_finite(block) for _, block in blocks) else NON_FINITE)


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
    """Do each piece of work on a matrix once in this block: `_once` keeps
    its result in one table, keyed by the identity of the array or
    `MatrixReader` that holds the matrix. A matrix replaced by another is a
    new entry; one changed in place keeps its first results until the block
    ends. Nested blocks share one table."""
    token = _TRUTHS.set({}) if _TRUTHS.get() is None else None
    try:
        yield
    finally:
        if token is not None:
            _TRUTHS.reset(token)


def _once(x: np.ndarray, key, work):
    """`work()` for `x` and `key`, once per `truth_table` block or, outside
    one, every time; work that raises is not stored."""
    truths = _TRUTHS.get()
    if truths is None:
        return work()
    hit = truths.get((id(x), key))
    if hit is None:
        # The entry holds `x`, so its id is not reused while the table lives.
        hit = truths[id(x), key] = (x, work())
    return hit[1]


def verdict(x, shape: tuple[int, int], *blocks) -> str | None:
    """`problem(x, shape, *blocks)`, once per `truth_table` block
    (`_once`): the one key of a matrix's verdict, whoever judges it."""
    return _once(x, shape, lambda: problem(x, shape, *blocks))


def _kept(x: np.ndarray, key) -> bool:
    """Whether the open truth table holds `_once`'s result for `x` and `key`."""
    return (id(x), key) in (_TRUTHS.get() or {})


@contextmanager
def named(prefix: str, catch=OSError, error: type[Exception] = CTFBenchError):
    """Raise an exception of `catch` in this block as `error("<prefix>:
    <why>")`, from it: `why` is an OSError's strerror, or the exception
    itself when it has none or is of another kind."""
    try:
        yield
    except catch as exc:
        raise error(f"{prefix}: {getattr(exc, 'strerror', None) or exc}") from exc


def make_dir(path: Path) -> None:
    """Create directory `path` and its parents, or raise CTFBenchError naming it."""
    with named(f"{path}: cannot create directory"):
        path.mkdir(parents=True, exist_ok=True)


def remove_file(path: Path) -> None:
    """Remove the file `path` if there is one, or raise CTFBenchError naming it."""
    with named(f"{path}: cannot remove"):
        path.unlink(missing_ok=True)


def _temp_beside(path: Path) -> tuple[int, str]:
    """Open a new temp file beside `path`, or raise CTFBenchError naming it."""
    with named(f"{path}: cannot write into {str(path.parent)!r}"):
        return tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")


def check_writable(path: str | Path) -> None:
    """Raise the CTFBenchError that writing `path` would raise when its
    directory takes no new file, leaving nothing behind."""
    fd, tmp = _temp_beside(Path(path))
    os.close(fd)
    os.unlink(tmp)


class _AtomicFile:
    """A temp file beside `path` for binary writes: `close()` renames it over
    `path`, and `abandon()` removes it, as does any exception, an interrupt
    included, in a `with` block, the constructor or `close()`. An OSError is
    a CTFBenchError `<path>: cannot write: <why>`, or `cannot replace` from
    the rename."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        fd, self._tmp = _temp_beside(self.path)
        try:
            self._fh = os.fdopen(fd, "wb")
        except BaseException:
            os.close(fd)
            os.unlink(self._tmp)
            raise

    def write(self, data) -> None:
        with named(f"{self.path}: cannot write"):
            self._fh.write(data)

    def close(self) -> None:
        try:
            with named(f"{self.path}: cannot write"):
                self._fh.close()
            with named(f"{self.path}: cannot replace"):
                os.replace(self._tmp, self.path)
        except BaseException:
            self.abandon()
            raise

    def abandon(self) -> None:
        with suppress(OSError):  # the flush that failed may fail again
            self._fh.close()
        with suppress(FileNotFoundError):
            os.unlink(self._tmp)

    def __enter__(self):
        return self

    def __exit__(self, kind, *_) -> None:
        if kind is None:
            self.close()
        else:
            self.abandon()


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write bytes to `path` via a temp file in the same directory + rename."""
    with _AtomicFile(path) as fh:
        fh.write(payload)


#: Bytes of a block of rows: of the one buffer that a `MatrixReader` streams
#: a payload through, and of each block that `write_matrix` writes.
_CHUNK_BYTES = 4 << 20

#: Rows per block of every Frobenius norm (`metrics._sum_sq`). Part of the
#: metrics' definition: the order of the float sums, so the last bits of S,
#: follow it. A `MatrixReader` block holds a multiple of it, so no norm block
#: spans two reads.
SUM_BLOCK_ROWS = 64


def _block_rows(cols: int) -> int:
    """Rows per block of `cols` values: a multiple of `SUM_BLOCK_ROWS`."""
    return max(1, _CHUNK_BYTES // (8 * max(1, cols) * SUM_BLOCK_ROWS)) * SUM_BLOCK_ROWS


def row_blocks(x, stop: int | None = None):
    """The rows of `x` before row `stop` (all of them by default) as (first
    row, rows) pairs of `_block_rows` rows each, the last shorter: views of
    an array, or, for a `MatrixReader`, its `blocks(stop)`."""
    if isinstance(x, MatrixReader):
        return x.blocks(stop)
    step = _block_rows(math.prod(x.shape[1:]))
    stop = len(x) if stop is None else min(stop, len(x))
    return ((start, x[start:min(start + step, stop)]) for start in range(0, stop, step))


def column_mean(x, centre: np.ndarray | None = None) -> np.ndarray:
    """`x.mean(axis=0)`, or with `centre` `x.var(axis=0)`'s mean of `(x -
    centre)**2`, with numpy's bits in every layout. An array that numpy sums
    pairwise down axis 0 (one column, or not C-ordered) is summed whole, by
    `np.add.reduce`; any other `x`, a `MatrixReader` too, is summed row by
    row, so it streams by `row_blocks`, each block after the first led by
    the running sum."""
    whole = isinstance(x, np.ndarray) and not (x.flags.c_contiguous and x.size > len(x))
    total = buf = None
    for _, block in [(0, x)] if whole else row_blocks(x):
        if total is None:  # in the layout numpy gives it, so summed as numpy sums it
            rows = part = block if centre is None else block - centre
        else:
            buf = np.empty((len(block) + 1,) + block.shape[1:]) if buf is None else buf
            rows, part, buf[0] = buf[:len(block) + 1], buf[1:len(block) + 1], total
            np.subtract(block, 0.0 if centre is None else centre, out=part)  # x - 0.0 is x
        if centre is not None:
            np.multiply(part, part, out=part)
        total = np.add.reduce(rows, axis=0)
    return total / x.shape[0]


class MatrixWriter(_AtomicFile):
    """A matrix file of `shape` written by rows in order (`write`), the
    mirror of `MatrixReader`. `close()` replaces `path` once the whole
    payload is in, and abandons the file with a MatrixFormatError if not."""

    def __init__(self, path: str | Path, shape: tuple[int, int]):
        super().__init__(path)
        self.shape, self._left = shape, 8 * shape[0] * shape[1]
        try:
            with named(f"{self.path}: cannot write"):
                self._fh.write(MAGIC + _HEADER.pack(*shape))
                self._fh.flush()  # so that no process forked later writes it again
        except BaseException:
            self.abandon()
            raise

    def write(self, block: np.ndarray) -> None:
        """Append the rows of `block`, made contiguous here if they are not."""
        a = np.ascontiguousarray(block, dtype="<f8")
        super().write(a.data.cast("B"))
        self._left -= a.nbytes

    def close(self) -> None:
        if self._left:
            self.abandon()
            need = 8 * self.shape[0] * self.shape[1]
            raise MatrixFormatError(f"{self.path}: {need - self._left} payload bytes written "
                                    f"where shape {self.shape} needs {need}")
        super().close()


def write_matrix(path: str | Path, x: np.ndarray) -> None:
    """Write a 2-D float64 matrix in the binary format, by `row_blocks`."""
    a = _as_matrix(x)
    with MatrixWriter(path, a.shape) as out:
        for _, block in row_blocks(a):
            out.write(block)


def _header(fh, path: str | Path) -> tuple[int, int]:
    """The (rows, cols) of the matrix file open as `fh`, left at its payload,
    once the file's size fits them; any other header is a MatrixFormatError."""
    head = fh.read(_PAYLOAD)
    if len(head) < _PAYLOAD:
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


class MatrixReader:
    """A matrix file open for reading; `shape` is its header's (rows, cols)
    (`_header`). `blocks()` and `read()` seek in the one open file, so one
    renamed over it later is never read; one stream at a time. A read fault,
    a short payload or a read after `close()` is a MatrixFormatError."""

    def __init__(self, path: str | Path):
        self.path, self._got = path, 0
        self._fh = self._io(open, path, "rb", buffering=0)
        try:
            self.shape = self._io(_header, self._fh, path)
        except BaseException:
            self._fh.close()
            raise

    def _io(self, call, *args, **kwargs):
        """`call(*args, **kwargs)`, an OSError or a ValueError (a closed file)
        raised as a MatrixFormatError."""
        with named(f"{self.path}: cannot read", (OSError, ValueError), MatrixFormatError):
            return call(*args, **kwargs)

    def _seek(self, row: int) -> None:
        """Go to the first value of row `row`."""
        self._got = 8 * row * self.shape[1]
        self._io(self._fh.seek, _PAYLOAD + self._got)

    def _fill(self, part: np.ndarray) -> None:
        """Fill `part` from the payload, with as many reads as the file needs."""
        view, got = memoryview(part).cast("B"), 0
        while got < part.nbytes and (n := self._io(self._fh.readinto, view[got:])):
            got += n
        self._got += got
        if got != part.nbytes:
            raise MatrixFormatError(f"{self.path}: payload ends after {self._got} of "
                                    f"{self.shape[0] * self.shape[1] * 8} bytes")

    def blocks(self, stop: int | None = None):
        """`row_blocks` of the file, views of one buffer that the next block
        overwrites."""
        rows, cols = self.shape
        rows, step = rows if stop is None else min(stop, rows), _block_rows(cols)
        buf = np.empty((min(step, rows), cols), dtype="<f8")
        self._seek(0)
        for start in range(0, rows, step):
            part = buf[: rows - start]
            self._fill(part)
            yield start, part

    def read(self, first: int = 0) -> np.ndarray:
        """The rows from row `first` on, read straight into a new array."""
        a = np.empty((self.shape[0] - first, self.shape[1]), dtype="<f8")
        self._seek(first)
        self._fill(a)
        return a.astype(np.float64, copy=False)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> MatrixReader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _csv_rows(fh, path: str | Path) -> int:
    """The rows of the CSV text that binary `fh` holds, counted in one pass
    over its bytes by `np.loadtxt`'s line rules: a line ends at LF, CR LF
    or a lone CR, and is a row unless it is empty or starts with `#`. So a
    row starts at the first byte and after each LF and CR, at any byte but
    those two and `#`. The pass decodes each chunk that is not ASCII as
    UTF-8: a byte that does not decode is a MatrixFormatError that names
    its offset in the file and its line."""
    rows, last, utf8 = 0, b"\n", codecs.getincrementaldecoder("utf-8")()
    try:
        while chunk := fh.read(_CHUNK_BYTES // 4):  # a quarter block: faster in cache
            b = np.frombuffer(last + chunk, np.uint8)
            cut = np.flatnonzero(b[:-1] <= 13)  # each LF and CR, and any other control byte
            head = b[cut[(b[cut] == 10) | (b[cut] == 13)] + 1]  # the first byte of a later line
            rows += int(np.count_nonzero((head != 10) & (head != 13) & (head != 35)))
            if utf8.getstate()[0] or not chunk.isascii():  # held: a character cut short
                utf8.decode(chunk)
            last = chunk[-1:]
        utf8.decode(b"", final=True)
    except UnicodeDecodeError as exc:  # exc.object: the bytes held, then the chunk
        at = fh.tell() - len(exc.object) + exc.start
        fh.seek(0)
        before = fh.read(at)
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise MatrixFormatError(f"{path}: malformed CSV matrix: byte 0x{exc.object[exc.start]:02x} "
                                f"at offset {at} (line {line}) is not UTF-8: {exc.reason}") from exc
    return rows


class CsvReader(MatrixReader):
    """A CSV matrix file open for reading, with `MatrixReader`'s interface
    and `read_csv`'s values and errors. Its rows are counted in one pass
    over the file's bytes (`_csv_rows`), and its columns are one more than
    the commas of its first row. Its rows are parsed by `np.loadtxt` as
    they are read, at most `_block_rows` rows a call, from one UTF-8 text
    handle. A file with no row, and a block that does not parse or parses
    to another column count, raise `read_csv`'s error for the whole file,
    so row numbers count from its top. Leaving a `with` block other than by
    an interrupt parses the file to its end if no stream has, so its parse
    error replaces whatever the block returned or raised, as when a CSV
    file was parsed whole at open."""

    def __init__(self, path: str | Path):
        self.path, self._parsed = path, False
        self._fh = self._io(open, path, encoding="utf-8")
        try:
            rows = self._io(_csv_rows, self._fh.buffer, path)
            self._seek(0)
            self.shape = rows, 1 + self._io(next, self._rows(), "").partition("#")[0].count(",")
            if not rows:
                self._failed()
        except BaseException:
            self._fh.close()
            raise

    def _rows(self):
        """The lines of the text handle, from where it is, that are rows."""
        return (line for line in self._fh if not line.startswith(("\n", "#")))

    def _seek(self, row: int) -> None:
        self._first = self._row = row
        self._io(self._fh.seek, 0)
        self._io(collections.deque, itertools.islice(self._rows(), row), 0)

    def _fill(self, part: np.ndarray) -> None:
        step = _block_rows(self.shape[1])
        for lo in range(0, len(part), step):
            rows = part[lo:lo + step]
            rows[...] = self._next(len(rows))
            self._row += len(rows)
        self._parsed |= self._first == 0 and self._row == self.shape[0]

    def _next(self, rows: int) -> np.ndarray:
        """The next `rows` rows of the file, parsed now, else `read_csv`'s
        error for the file."""
        with warnings.catch_warnings(), suppress(ValueError):
            warnings.filterwarnings("ignore", "Input line", UserWarning)  # a line skipped
            with named(f"{self.path}: cannot read", OSError, MatrixFormatError):
                block = np.loadtxt(self._fh, delimiter=",", ndmin=2, max_rows=rows)
            if block.shape == (rows, self.shape[1]):
                return block
        self._failed()

    def _failed(self) -> None:
        """Raise `read_csv`'s error for the file, or, if it reads, say that
        the file changed."""
        self._parsed = True  # by read_csv, now
        read_csv(self.path)
        raise MatrixFormatError(f"{self.path}: CSV matrix changed while it was read")

    def __exit__(self, kind, *_) -> None:
        try:
            if not (self._parsed or self._fh.closed) and (
                    kind is None or issubclass(kind, Exception)):
                collections.deque(self.blocks(), 0)
        finally:
            self.close()


def read_matrix(path: str | Path) -> np.ndarray:
    """Read a matrix written by `write_matrix` whole, by `MatrixReader.read`."""
    with MatrixReader(path) as m:
        return m.read()


def tail(x, rows: int) -> np.ndarray:
    """The last `rows` rows of `x` (all of them when it has fewer): a view of
    an array, or read from a `MatrixReader`'s file."""
    first = max(0, x.shape[0] - rows)
    return x.read(first) if isinstance(x, MatrixReader) else x[first:]


def equal(a, b) -> bool:
    """Whether `a` and `b`, each an array or a `MatrixReader`, are
    `np.array_equal`, compared by `row_blocks` in lockstep."""
    return a.shape == b.shape and all(
        np.array_equal(p, q) for (_, p), (_, q) in zip(row_blocks(a), row_blocks(b)))


def write_csv(path: str | Path, x) -> None:
    """Write a matrix, an array or an open `MatrixReader`, as comma-separated
    decimal text, one time step per row, with 17 significant digits, enough
    to round-trip float64 exactly. It writes by `row_blocks`, each block the
    bytes it has in the whole matrix, so a reader's is never held whole."""
    x = x if isinstance(x, MatrixReader) else _as_matrix(x)
    with _AtomicFile(path) as fh:
        for _, block in row_blocks(x):
            np.savetxt(fh, block, fmt="%.17g", delimiter=",")


def read_csv(path: str | Path) -> np.ndarray:
    """Read a matrix from comma-separated UTF-8 text; an unreadable file is a
    MatrixFormatError."""
    try:
        with open(path, "rb") as fh:
            rows = _csv_rows(fh, path)  # a byte that is not UTF-8 is named first, as by `CsvReader`
        if not rows:  # before `np.loadtxt`, which would warn that it read no data
            raise MatrixFormatError(f"{path}: empty CSV matrix")
        with named(f"{path}: malformed CSV matrix", ValueError, MatrixFormatError):
            a = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2, encoding="utf-8")
    except OSError as exc:
        # numpy raises FileNotFoundError for a missing path without an errno.
        why = exc.strerror or os.strerror(errno.ENOENT)
        raise MatrixFormatError(f"{path}: cannot read: {why}") from exc
    if a.size == 0:
        raise MatrixFormatError(f"{path}: empty CSV matrix")
    return a


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
    included), one nested too deep to decode, or a top-level value that is
    not an object raises `error`."""
    try:
        doc = json.loads(Path(path).read_text(), parse_constant=_no_constant)
    except (OSError, ValueError, RecursionError) as exc:
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
    """Refuse a `value` of another type than `tp`; a float is finite, or an
    integer that converts to a finite float."""
    if type(value) not in ((int, float) if tp is float else (tp,)) or (
            tp is float and not abs(value) <= sys.float_info.max):
        raise ValueError(f"{at}: expected {tp.__name__}, got {json.dumps(value, default=repr):.40}")


def _check_fields(obj) -> None:
    """Hold each `str`, `int` and `float` field of dataclass `obj`, and each
    element of a tuple field, to what `decode` reads back (`_held`), so a
    setting the codec could not write back is refused when it is made."""
    for name, _, hint in _layout(type(obj)):
        value = getattr(obj, name)
        if get_origin(hint) is tuple:
            value = tuple(_held(v, get_args(hint)[0], f"{name}[{i}]") for i, v in enumerate(value))
        elif hint in (str, int, float):
            value = _held(value, hint, name)
        else:
            continue
        object.__setattr__(obj, name, value)


def _held(value: Any, tp: type, at: str) -> Any:
    """`value`, a numpy scalar as the equal Python value, once `_check` passes it."""
    value = value.item() if isinstance(value, np.generic) else value
    _check(value, tp, at)
    return value


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
    with named(f"{path}: malformed {cls.__name__.lower()} document", ValueError, error):
        return decode(cls, read_json(path, error))
