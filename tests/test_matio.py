import errno
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ctfbench import matio
from ctfbench.exceptions import CTFBenchError, MatrixFormatError


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
    tracemalloc.start()
    try:
        a = matio.read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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


def test_unreadable_file_is_named_error(mat, monkeypatch):
    path, _ = mat

    def denied(file, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))

    monkeypatch.setattr(matio, "open", denied, raising=False)
    message = f"^{re.escape(str(path))}: cannot read: Permission denied$"
    with pytest.raises(MatrixFormatError, match=message):
        matio.read_matrix(path)


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


def test_read_any_dispatches_on_suffix(tmp_path):
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    matio.write_matrix(tmp_path / "a.mat", x)
    matio.write_csv(tmp_path / "a.csv", x)
    assert np.array_equal(matio.read_any(tmp_path / "a.mat"), x)
    assert np.array_equal(matio.read_any(tmp_path / "a.csv"), x)


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
