import copy
import errno
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctfbench import matio, referee
from ctfbench.exceptions import CTFBenchError, MatrixFormatError
from conftest import traced_peak


@pytest.fixture
def mat(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(17, 5)) * 10.0 ** rng.integers(-8, 8, size=(17, 5))
    path = tmp_path / "x.mat"
    matio.write_matrix(path, x)
    return path, x


def test_round_trip_exact(mat):
    path, x = mat
    assert np.array_equal(matio.read_matrix(path), x)


def test_rewrite_is_byte_identical(mat, tmp_path):
    path, x = mat
    other = tmp_path / "y.mat"
    matio.write_matrix(other, x)
    assert path.read_bytes() == other.read_bytes()


def test_header_layout(mat):
    path, x = mat
    raw = path.read_bytes()
    assert raw[:8] == b"CTFMAT01"
    assert int.from_bytes(raw[8:16], "little") == 17
    assert int.from_bytes(raw[16:24], "little") == 5
    assert len(raw) == 24 + 17 * 5 * 8


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"NOTAMAT1" + b"\x00" * 32)
    with pytest.raises(MatrixFormatError, match="magic"):
        matio.read_matrix(path)


def test_truncated_payload_is_shape_mismatch(mat):
    path, _ = mat
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(MatrixFormatError, match="shape mismatch"):
        matio.read_matrix(path)


def test_oversized_header_rejected_before_allocating(tmp_path):
    # The payload this header claims (2**66 bytes) could never be allocated.
    path = tmp_path / "huge.mat"
    path.write_bytes(b"CTFMAT01" + (2**31).to_bytes(8, "little") * 2 + b"\x00" * 64)
    with pytest.raises(MatrixFormatError, match="shape mismatch"):
        matio.read_matrix(path)


@pytest.mark.parametrize("cut, held", [(-1, 17 * 5 * 8 - 1), (1, 17 * 5 * 8 + 1)],
                         ids=["missing_byte", "trailing_byte"])
def test_payload_off_by_one_byte_is_shape_mismatch(mat, cut, held):
    path, _ = mat
    raw = path.read_bytes()
    path.write_bytes(raw[:cut] if cut < 0 else raw + b"\x00" * cut)
    with pytest.raises(MatrixFormatError, match=f"shape mismatch.* but file holds {held}$"):
        matio.read_matrix(path)


def test_read_allocates_the_payload_once(tmp_path):
    x = np.random.default_rng(2).normal(size=(1000, 1024))
    path = tmp_path / "big.mat"
    matio.write_matrix(path, x)
    a, peak = traced_peak(matio.read_matrix, path)
    assert np.array_equal(a, x)
    assert peak <= 1.1 * x.nbytes


def test_read_is_a_bit_exact_native_writable_array(tmp_path):
    info = np.finfo(np.float64)
    x = np.array([[-0.0, np.inf, -np.inf, np.nan],
                  [5e-324, info.max, -info.max, info.tiny]])
    path = tmp_path / "x.mat"
    matio.write_matrix(path, x)
    a = matio.read_matrix(path)
    assert a.dtype == np.float64 and a.dtype.isnative
    assert a.flags.c_contiguous and a.flags.writeable and a.flags.owndata
    assert a.tobytes() == x.tobytes()
    a[0, 0] = 1.0
    assert matio.read_matrix(path)[0, 0] == 0.0


def test_file_shorter_than_fstat_says_is_error(mat, monkeypatch):
    # The file loses its last value after the size check: the read comes up
    # short, and no partly filled array is returned.
    path, _ = mat
    path.write_bytes(path.read_bytes()[:-8])
    real_fstat = os.fstat
    monkeypatch.setattr(matio.os, "fstat",
                        lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
    with pytest.raises(MatrixFormatError, match="payload ends after 672 of 680 bytes"):
        matio.read_matrix(path)


@pytest.mark.parametrize("rows_left, got", [(100, 4000), (0, 0)], ids=["mid_block", "all"])
def test_file_truncated_while_streaming_is_named_error(tmp_path, monkeypatch, rows_left, got):
    # Blocks of 64 rows: the file loses its payload from row `rows_left` on
    # after the reader has checked its size, so a later block comes up short.
    x = np.random.default_rng(5).normal(size=(200, 5))
    path = tmp_path / "x.mat"
    matio.write_matrix(path, x)
    monkeypatch.setattr(matio, "_CHUNK_BYTES", 64 * 5 * 8)
    message = f"^{re.escape(str(path))}: payload ends after {got} of 8000 bytes$"
    with matio.MatrixReader(path) as reader:
        assert reader.shape == (200, 5)
        os.truncate(path, 24 + rows_left * 5 * 8)
        read = []
        with pytest.raises(MatrixFormatError, match=message):
            for start, block in reader.blocks():
                read.append(start)
                assert np.array_equal(block, x[start:start + 64])
    assert read == list(range(0, rows_left - 63, 64))


def test_unreadable_file_is_named_error(mat, monkeypatch):
    path, _ = mat

    def denied(file, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))

    monkeypatch.setattr(matio, "open", denied, raising=False)
    message = f"^{re.escape(str(path))}: cannot read: Permission denied$"
    with pytest.raises(MatrixFormatError, match=message):
        matio.read_matrix(path)


def test_header_of_no_rows_rejected(tmp_path):
    path = tmp_path / "empty.mat"
    path.write_bytes(b"CTFMAT01" + (0).to_bytes(8, "little") + (3).to_bytes(8, "little"))
    with pytest.raises(MatrixFormatError) as err:
        matio.read_matrix(path)
    assert str(err.value) == f"{path}: invalid header dimensions [0, 3]"


def test_too_short_file_rejected(tmp_path):
    path = tmp_path / "short.mat"
    path.write_bytes(b"CTFMAT01")
    with pytest.raises(MatrixFormatError, match="too short"):
        matio.read_matrix(path)


def test_non_2d_rejected(tmp_path):
    with pytest.raises(MatrixFormatError):
        matio.write_matrix(tmp_path / "v.mat", np.zeros(5))


def test_write_into_missing_directory_names_the_path(tmp_path):
    path = tmp_path / "nodir" / "x.json"
    with pytest.raises(CTFBenchError, match="x.json: cannot write into .*nodir"):
        matio.write_json(path, {})


def test_write_over_a_directory_leaves_no_temp_file(tmp_path):
    (tmp_path / "x.json").mkdir()
    with pytest.raises(CTFBenchError, match="x.json: cannot replace"):
        matio.write_json(tmp_path / "x.json", {})
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


@pytest.mark.parametrize("blocks, written", [(1, 48), (3, 144)], ids=["short", "long"])
def test_writer_closed_off_its_shape_publishes_nothing(tmp_path, blocks, written):
    path = tmp_path / "x.mat"
    matio.write_matrix(path, np.ones((4, 3)))
    before = path.read_bytes()
    with pytest.raises(MatrixFormatError,
                       match=rf"x.mat: {written} payload bytes written where shape \(4, 3\) needs 96"):
        with matio.MatrixWriter(path, (4, 3)) as out:
            for _ in range(blocks):
                out.write(np.zeros((2, 3)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.mat"]


def test_interrupt_opening_the_temp_file_leaves_nothing(tmp_path, monkeypatch):
    opened = []

    def fdopen(fd, *args):
        opened.append(fd)
        raise KeyboardInterrupt

    monkeypatch.setattr(matio.os, "fdopen", fdopen)
    with pytest.raises(KeyboardInterrupt):
        matio.write_json(tmp_path / "board.json", {})
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(OSError) as closed:
        os.fstat(opened[0])
    assert closed.value.errno == errno.EBADF


def test_interrupt_in_the_header_write_leaves_nothing(tmp_path, monkeypatch):
    def write(self, data):
        raise KeyboardInterrupt

    monkeypatch.setattr(matio._AtomicFile, "write", write)
    with pytest.raises(KeyboardInterrupt):
        matio.write_matrix(tmp_path / "x.mat", np.ones((4, 3)))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("parent", ["nodir", "afile"])
def test_check_writable_names_the_path_and_leaves_nothing(tmp_path, parent):
    (tmp_path / "afile").write_text("")
    path = tmp_path / parent / "x.json"
    with pytest.raises(CTFBenchError, match=f"x.json: cannot write into .*{parent}"):
        matio.check_writable(path)
    matio.check_writable(tmp_path / "y.json")
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_make_dir_below_a_file_is_named_error(tmp_path):
    (tmp_path / "afile").write_text("")
    with pytest.raises(CTFBenchError, match="afile/x: cannot create directory"):
        matio.make_dir(tmp_path / "afile" / "x")


def _boom(*args, **kwargs):
    raise OSError("boom")


def _hold_store_lock(path):
    with referee._store_lock(path / "store.json"):
        pass


@pytest.mark.parametrize("target, call, message", [
    ((Path, "mkdir"), lambda p: matio.make_dir(p / "d"), "{p}/d: cannot create directory"),
    ((Path, "unlink"), lambda p: matio.remove_file(p / "f"), "{p}/f: cannot remove"),
    ((matio.tempfile, "mkstemp"), lambda p: matio.write_json(p / "x.json", {}),
     "{p}/x.json: cannot write into '{p}'"),
    ((matio, "open"), lambda p: matio.MatrixReader(p / "x.mat"), "{p}/x.mat: cannot read"),
    ((referee.os, "open"), _hold_store_lock,
     "{p}/store.json: cannot open the leaderboard store's directory '{p}'"),
], ids=["make_dir", "remove_file", "temp_file", "reader", "store_lock"])
def test_os_error_without_strerror_is_named_by_its_text(tmp_path, monkeypatch, target, call,
                                                        message):
    # OSError("boom") has no strerror; the error names it by its text.
    monkeypatch.setattr(*target, _boom, raising=False)
    with pytest.raises(CTFBenchError) as info:
        call(tmp_path)
    assert str(info.value) == message.format(p=tmp_path) + ": boom"


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(9, 3)) * np.pi
    path = tmp_path / "x.csv"
    matio.write_csv(path, x)
    assert np.array_equal(matio.read_csv(path), x)


def test_csv_single_row(tmp_path):
    path = tmp_path / "row.csv"
    matio.write_csv(path, np.array([[1.5, -2.5]]))
    out = matio.read_csv(path)
    assert out.shape == (1, 2)
    assert np.array_equal(out, [[1.5, -2.5]])


def test_malformed_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\nnot,numbers\n")
    with pytest.raises(MatrixFormatError, match="malformed"):
        matio.read_csv(path)


@pytest.mark.parametrize("make,why", [
    (lambda p: None, "No such file or directory"),
    (lambda p: p.mkdir(), "Is a directory"),
], ids=["missing", "directory"])
def test_unreadable_csv_is_named_error(tmp_path, make, why):
    path = tmp_path / "x.csv"
    make(path)
    with pytest.raises(MatrixFormatError, match=f"^{re.escape(str(path))}: cannot read: {why}$"):
        matio.read_csv(path)


def test_csv_bytes_equal_per_value_format(tmp_path):
    # The reference is the per-value formatting `write_csv` used before it
    # formatted whole rows: signed zero, the smallest subnormal, the largest
    # float, the smallest normal, non-finite values and ordinary ones.
    info = np.finfo(np.float64)
    x = np.array([[-0.0, 5e-324, info.max, info.tiny],
                  [-info.max, np.inf, -np.inf, np.nan],
                  [0.1, -1.0 / 3.0, 1e22, 123456789.0]])
    path = tmp_path / "x.csv"
    matio.write_csv(path, x)
    expected = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in x)
    assert path.read_bytes() == expected.encode("ascii")


def test_csv_of_a_reader_streams_the_bytes_of_its_array(tmp_path, monkeypatch):
    # Blocks of 64 rows over 150: each block's text is the whole matrix's.
    x = np.random.default_rng(8).normal(size=(150, 5))
    matio.write_matrix(tmp_path / "x.mat", x)
    monkeypatch.setattr(matio, "_CHUNK_BYTES", 64 * 5 * 8)
    with matio.MatrixReader(tmp_path / "x.mat") as reader:
        assert len(list(matio.row_blocks(reader))) == 3
        matio.write_csv(tmp_path / "reader.csv", reader)
    matio.write_csv(tmp_path / "array.csv", x)
    expected = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in x)
    for name in ("reader.csv", "array.csv"):
        assert (tmp_path / name).read_text() == expected, name


def _csv_lines(rows=150, cols=2):
    x = np.random.default_rng(9).normal(size=(rows, cols)) * 1e3
    return [",".join(format(v, ".17g") for v in row) for row in x]


_LINES = _csv_lines()

#: case -> the bytes of a CSV file; with blocks of 64 rows, 150 rows make
#: three blocks, the last one short.
CSV_CASES = {
    "plain": "\n".join(_LINES) + "\n",
    "no_final_newline": "\n".join(_LINES),
    "crlf": "\r\n".join(_LINES) + "\r\n",
    "lone_cr": "\r".join(_LINES) + "\r",
    "comments": "# head\n" + "\n".join(_LINES[:70] + ["# middle"] + _LINES[70:]) + "\n",
    "blank_line": "\n".join(_LINES[:70] + [""] + _LINES[70:]) + "\n",
    "leading_blank_line": "\n" + "\n".join(_LINES) + "\n",
    "trailing_blank_lines": "\n".join(_LINES) + "\n\n\n",
    "whitespace_only_line": "\n".join(_LINES[:100] + ["  "] + _LINES[100:]) + "\n",
    "trailing_whitespace": "\n".join(_LINES) + "\n  ",
    "one_row": _LINES[0] + "\n",
    "one_column": "".join(f"{v}\n" for v in range(150)),
    "one_value": "7\n",
    "rows_a_block_multiple": "\n".join(_LINES[:128]) + "\n",
    "nan_inf": "\n".join(_LINES[:80] + ["nan,inf", "-inf,NaN"] + _LINES[82:]) + "\n",
    "ragged_in_first_block": "\n".join(_LINES[:10] + ["1,2,3"] + _LINES[11:]) + "\n",
    "ragged_in_last_block": "\n".join(_LINES[:140] + ["1"] + _LINES[141:]) + "\n",
    "wider_later_block": "\n".join(_LINES[:64] + [r + ",0" for r in _LINES[64:]]) + "\n",
    "non_number": "\n".join(_LINES[:100] + ["1,abc"] + _LINES[101:]) + "\n",
    "empty_field": "\n".join(_LINES[:3] + ["1,"] + _LINES[4:]) + "\n",
    "empty": "",
    "only_newlines": "\n\n",
    "non_ascii_utf8": "\n".join(_LINES[:100] + ["1,2é"] + _LINES[101:]) + "\n",
    # The two bytes of "é" are bytes 15 and 16: a 16-byte chunk ends between them.
    "non_ascii_comment": "#" + " " * 14 + "é\n" + "\n".join(_LINES) + "\n",
}
CSV_BYTES = {**{k: v.encode() for k, v in CSV_CASES.items()},
             "non_utf8_byte": ("\n".join(_LINES[:100]) + "\n1,\xff\n").encode("latin-1")}
#: The readable cases with CR line ends, a comment, an empty line, no final
#: newline or a non-ASCII byte: each has 150 rows, as "plain" has.
READABLE = ("crlf", "lone_cr", "comments", "blank_line", "leading_blank_line",
            "no_final_newline", "non_ascii_comment")


def _outcome(call):
    """`call()`'s array, or the type and text of the error it raised."""
    try:
        return call()
    except MatrixFormatError as exc:
        return f"{type(exc).__name__}: {exc}"


def _streamed(path):
    with matio.CsvReader(path) as reader:
        blocks = [block.copy() for _, block in reader.blocks()]
        assert reader.shape == (sum(map(len, blocks)), blocks[0].shape[1])
        return np.concatenate(blocks)


def _read(path):
    with referee.open_prediction(path.parent, path.stem) as reader:
        return reader.read()


@pytest.mark.parametrize("case", CSV_BYTES)
def test_csv_reader_gives_the_bits_or_error_of_read_csv(tmp_path, monkeypatch, case):
    # 16-byte chunks for the count pass, blocks of 64 rows for the parse.
    monkeypatch.setattr(matio, "_CHUNK_BYTES", 16)
    path = tmp_path / "x.csv"
    path.write_bytes(CSV_BYTES[case])
    # No case warns ("empty" and "only_newlines" fail before `np.loadtxt`
    # could), and the test config makes a UserWarning an error.
    want = _outcome(lambda: matio.read_csv(path))
    for how in (_streamed, _read):
        got = _outcome(lambda: how(path))
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(st.lists(st.sampled_from(["1", "2.5", ",", " ", "#", "\n", "\r", "\r\n", "é"]),
                max_size=16))
@settings(max_examples=300, deadline=None)
def test_csv_reader_gives_the_outcome_of_read_csv_for_any_text(pieces):
    # Line ends of every kind, comments, blank and whitespace lines, and
    # characters cut by the 4-byte reads of the count pass.
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(matio, "_CHUNK_BYTES", 16):
        path = Path(tmp) / "x.csv"
        path.write_bytes("".join(pieces).encode())
        want, got = _outcome(lambda: matio.read_csv(path)), _outcome(lambda: _streamed(path))
    assert type(got) is type(want)
    assert got == want if isinstance(want, str) else (
        (got.shape, got.tobytes()) == (want.shape, want.tobytes()))


def test_csv_reader_streams_every_readable_file(tmp_path, monkeypatch):
    # No readable file is parsed whole, at open or later.
    monkeypatch.setattr(matio, "_CHUNK_BYTES", 16)
    monkeypatch.setattr(matio, "read_csv", lambda path: pytest.fail(f"{path} parsed whole"))
    for case in ("plain", *READABLE):
        path = tmp_path / f"{case}.csv"
        path.write_bytes(CSV_BYTES[case])
        with matio.CsvReader(path) as reader:
            assert repr(reader.shape) == "(150, 2)" and len(list(reader.blocks())) == 3, case


def test_csv_reader_reads_from_any_row(tmp_path, monkeypatch):
    # Each row skipped on the way to the first is a row, not a line.
    monkeypatch.setattr(matio, "_CHUNK_BYTES", 16)
    for case in ("plain", *READABLE):
        path = tmp_path / f"{case}.csv"
        path.write_bytes(CSV_BYTES[case])
        want = matio.read_csv(path)
        with matio.CsvReader(path) as reader:
            for first in (0, 1, 63, 64, 149):
                assert np.array_equal(reader.read(first), want[first:]), (case, first)
                assert np.array_equal(matio.tail(reader, 20), want[-20:]), case


@pytest.mark.parametrize("data,offset,line,why", [
    (("\n".join(_LINES[:100]) + "\n1,\xff\n").encode("latin-1"),
     len("\n".join(_LINES[:100])) + 3, 101, "invalid start byte"),
    (b"1,2\n" * 5000 + b"1,\xff\n", 20002, 5001, "invalid start byte"),
    (b"1,2\r\n# \r\r1,2\r\xc3", 13, 5, "unexpected end of data"),
    (b"1,2\r1,\xc3\xa9\xa9\n", 8, 2, "invalid start byte"),
    (b"1,2\n1,2\xc34\n5,6\n", 7, 2, "invalid continuation byte"),
], ids=["non_utf8_byte", "late_line", "crlf_cut_short", "after_a_character",
        "cut_short_before_an_ascii_read"])
def test_csv_byte_not_utf8_is_named_by_offset_and_line(tmp_path, monkeypatch, data, offset,
                                                       line, why):
    # The offset counts from the file's first byte, and the line from 1, a
    # CR LF ending one line.
    monkeypatch.setattr(matio, "_CHUNK_BYTES", 16)
    path = tmp_path / "x.csv"
    path.write_bytes(data)
    want = (f"{path}: malformed CSV matrix: byte 0x{data[offset]:02x} at offset {offset} "
            f"(line {line}) is not UTF-8: {why}")
    for how in (matio.read_csv, matio.CsvReader):
        with pytest.raises(MatrixFormatError) as info:
            how(path)
        assert str(info.value) == want


@pytest.mark.parametrize("case", ["ragged_in_last_block", "non_number"])
def test_csv_reader_left_early_raises_the_parse_error(tmp_path, monkeypatch, case):
    # Leaving the block after the first rows, by a return or an error,
    # parses the rest: the file's error comes first, as if parsed whole.
    monkeypatch.setattr(matio, "_CHUNK_BYTES", 16)
    path = tmp_path / "x.csv"
    path.write_text(CSV_CASES[case])
    want = _outcome(lambda: matio.read_csv(path))
    for leave in (lambda: None, lambda: 1 / 0):
        with pytest.raises(MatrixFormatError) as info:
            with matio.CsvReader(path) as reader:
                next(reader.blocks())
                leave()
        assert f"MatrixFormatError: {info.value}" == want and reader._fh.closed
    with pytest.raises(KeyboardInterrupt):  # an interrupt is not held up by a parse
        with matio.CsvReader(path) as reader:
            raise KeyboardInterrupt
    assert reader._fh.closed


def test_closed_csv_reader_is_named_error(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(CSV_CASES["plain"])
    reader = matio.CsvReader(path)
    reader.close()
    with pytest.raises(MatrixFormatError, match=f"^{re.escape(str(path))}: cannot read: "):
        reader.read()


def test_csv_reader_names_a_changed_file(tmp_path, monkeypatch):
    monkeypatch.setattr(matio, "_CHUNK_BYTES", 16)
    path = tmp_path / "x.csv"
    path.write_text(CSV_CASES["plain"])
    with matio.CsvReader(path) as reader:
        path.write_text("\n".join(_LINES[:100]) + "\n")
        with pytest.raises(MatrixFormatError,
                           match=f"^{re.escape(str(path))}: CSV matrix changed while it was read$"):
            list(reader.blocks())


def test_codec_tuple_round_trip():
    @dataclass
    class Doc:
        values: tuple[float, float, float]

    doc = matio.encode(Doc((1.5, 2, 3.0)))
    assert doc == {"values": [1.5, 2, 3.0]}
    decoded = matio.decode(Doc, doc)
    assert decoded == Doc((1.5, 2, 3.0)) and type(decoded.values) is tuple
    assert type(decoded.values[1]) is int
    with pytest.raises(ValueError, match="values: expected list"):
        matio.decode(Doc, {"values": 1.5})
    with pytest.raises(ValueError, match=r"values\[1\]: expected float"):
        matio.decode(Doc, {"values": [1.5, "x", 3.0]})


def test_codec_refuses_keys_it_does_not_write():
    @dataclass
    class Inner:
        lo: float = field(metadata={"key": "range.lo"})
        hi: float = field(metadata={"key": "range.hi"})
        table: dict[str, int]

    @dataclass
    class Doc:
        inner: list[Inner]

    doc = matio.encode(Doc([Inner(0.0, 1.0, {"any": 1})]))
    assert matio.decode(Doc, doc) == Doc([Inner(0.0, 1.0, {"any": 1})])
    for path, why in [(("extra",), "^extra: unexpected key$"),
                      (("inner", 0, "extra"), r"^inner\[0\]\.extra: unexpected key$"),
                      (("inner", 0, "range", "mid"), r"^inner\[0\]\.range\.mid: unexpected key$")]:
        edited = copy.deepcopy(doc)
        node = edited
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 0.5
        with pytest.raises(ValueError, match=why):
            matio.decode(Doc, edited)


def test_difference_names_the_first_differing_entry():
    want = {"a": 1, "b": {"c": 1024, "d": [1.0]}}
    assert matio.difference(want, want) is None
    assert matio.difference({**want, "a": 1.0}, want) == "a: 1.0 is not 1"
    assert matio.difference({**want, "b": {"c": 1024.0, "d": [1.0]}}, want) == \
        "b: c 1024.0 is not 1024"
    assert matio.difference({**want, "b": {"d": [1.0]}}, want) == "b: c absent is not 1024"
    assert matio.difference({**want, "e": "x"}, want) == 'e: "x" is not absent'


def test_dump_json_refuses_nan():
    with pytest.raises(ValueError):
        matio.dump_json({"x": float("nan")})


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_read_json_refuses_non_finite_constants(tmp_path, constant):
    path = tmp_path / "doc.json"
    path.write_text(f'{{"x": {constant}}}')
    with pytest.raises(CTFBenchError, match="not a readable JSON document"):
        matio.read_json(path)


@pytest.mark.parametrize("chunk", [1 << 22, 3 * 5 * 8, 5 * 8], ids=["whole", "3_rows", "1_row"])
def test_equal_compares_shape_and_values(mat, monkeypatch, chunk):
    # A chunk holds at least 64 rows, so each of these reads the 17 rows at
    # once; test_equal_streams_in_blocks reads in several. A reader of the
    # file and an array of it compare alike, with each other and with arrays.
    monkeypatch.setattr(matio, "_CHUNK_BYTES", chunk)
    path, x = mat
    with matio.MatrixReader(path) as m, matio.MatrixReader(path) as twin:
        assert matio.equal(m, twin)
        for a in (m, x.copy()):
            assert matio.equal(a, x) and matio.equal(x, a)
            assert matio.equal(a, np.asfortranarray(x))
            for r, c in ((0, 0), (16, 4), (7, 2)):
                other = x.copy()
                other[r, c] = np.nextafter(other[r, c], np.inf)
                assert not matio.equal(a, other), (r, c)
            assert not matio.equal(a, x[:16])
            assert not matio.equal(a, x.reshape(5, 17))


@pytest.mark.parametrize("chunk", [1, 64 * 5 * 8, 3 * 64 * 5 * 8 - 1])
def test_equal_streams_in_blocks(tmp_path, monkeypatch, chunk):
    # Blocks of 64 rows, or of 128 (a chunk of just under 192 rows rounds
    # down to a multiple of 64), over 150 rows: the last block is short. A
    # reader is compared with an array, and two readers in lockstep.
    x = np.random.default_rng(6).normal(size=(150, 5))
    path, other_path = tmp_path / "x.mat", tmp_path / "other.mat"
    matio.write_matrix(path, x)
    monkeypatch.setattr(matio, "_CHUNK_BYTES", chunk)
    with matio.MatrixReader(path) as reader:
        starts = [start for start, _ in reader.blocks()]
        assert starts == ([0, 128] if chunk > 2 * 64 * 5 * 8 else [0, 64, 128])
        assert matio.equal(reader, x)
        for r in (0, 63, 64, 149):
            other = x.copy()
            other[r, 2] = np.nextafter(other[r, 2], np.inf)
            assert not matio.equal(reader, other), r
            matio.write_matrix(other_path, other)
            with matio.MatrixReader(other_path) as other_reader:
                assert not matio.equal(reader, other_reader), r


def test_equal_is_value_equality(tmp_path):
    # As np.array_equal: -0.0 equals 0.0, and a NaN equals nothing.
    path = tmp_path / "x.mat"
    zero = np.array([[0.0, 1.0], [np.inf, 2.0]])
    matio.write_matrix(path, np.array([[-0.0, 1.0], [np.inf, 2.0]]))
    with matio.MatrixReader(path) as m:
        assert matio.equal(m, zero)
        assert matio.equal(m.read(), zero)
    nan = np.array([[np.nan, 1.0]])
    matio.write_matrix(path, nan)
    with matio.MatrixReader(path) as m, matio.MatrixReader(path) as twin:
        assert not matio.equal(m, nan)
        assert not matio.equal(m, twin)
        assert not matio.equal(nan, nan)


def test_equal_holds_one_small_buffer(tmp_path):
    x = np.random.default_rng(3).normal(size=(4000, 1024))
    path = tmp_path / "big.mat"
    matio.write_matrix(path, x)
    with matio.MatrixReader(path) as m:
        same, peak = traced_peak(matio.equal, m, x)
    assert same
    assert peak <= matio._CHUNK_BYTES * 1.25 + 65536 < x.nbytes / 4


def test_closed_reader_is_named_error(mat):
    path, _ = mat
    m = matio.MatrixReader(path)
    m.close()
    for read in (m.read, lambda: list(m.blocks())):
        with pytest.raises(MatrixFormatError, match=f"^{re.escape(str(path))}: cannot read: "):
            read()


_SPECIAL = [np.nan, np.inf, -np.inf, 1e200, -1e200, -0.0, 0.0, 5e-324, -5e-324,
            np.finfo(np.float64).max, np.finfo(np.float64).tiny]


@settings(max_examples=300, deadline=None)
@given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                    elements=st.one_of(st.floats(), st.sampled_from(_SPECIAL))),
       layout=st.sampled_from(["C", "F", "strided"]))
def test_finiteness_verdict_is_isfinite(x, layout):
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        x = x[:, ::2]
    verdict = matio.problem(x, x.shape)
    assert (verdict is None) == bool(np.isfinite(x).all())
    assert verdict in (None, "contains non-finite values")


@pytest.mark.parametrize("x, finite", [
    (np.array([[1e30, -1e30]], dtype=np.float32), True),
    (np.array([[1.0, np.inf]], dtype=np.float32), False),
    (np.array([[2**62, -(2**62)]], dtype=np.int64), True),
    (np.asfortranarray([[1e200, 2.0], [3.0, 4.0]]), True),
    (np.asfortranarray([[1.0, 2.0], [np.nan, 4.0]]), False),
    (np.array([[1e200, np.nan, 3.0, np.inf]])[:, ::2], True),
    (np.array([[1.0, np.nan, -np.inf, 0.0]])[:, ::2], False),
    (np.array([[1e200, 1.0]], dtype=">f8"), True),
    (np.array([[np.nan, 1.0]], dtype=">f8"), False),
], ids=["float32_1e30", "float32_inf", "int64", "fortran", "fortran_nan", "strided",
        "strided_inf", "big_endian", "big_endian_nan"])
def test_finiteness_verdict_of_other_dtypes_and_layouts(x, finite):
    assert (matio.problem(x, x.shape) is None) == finite


def test_finiteness_check_writes_no_temporary():
    x = np.random.default_rng(4).normal(size=(2000, 1024))
    verdict, peak = traced_peak(matio.problem, x, x.shape)
    assert verdict is None
    assert peak < 65536
