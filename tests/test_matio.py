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
