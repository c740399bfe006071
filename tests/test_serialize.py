"""Binary formats, JSON fixtures, and operator descriptors."""

import numpy as np
import pytest

from cosamp import prng
from cosamp.operators import (
    PartialFourierOperator,
    dense_operator,
    gaussian_operator,
    identity_operator,
    partial_fourier_operator,
)
from cosamp.serialize import (
    json_int,
    json_number,
    operator_descriptor,
    operator_from_descriptor,
    read_matrix,
    read_signal,
    signal_from_json,
    signal_to_json,
    write_matrix,
    write_signal,
)


def special_values():
    """Every pairing of +-0.0, +-inf, NaN and 1.5 as (real, imag) parts."""
    parts = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5])
    x = np.empty(parts.size**2, dtype=np.complex128)
    x.real = np.repeat(parts, parts.size)
    x.imag = np.tile(parts, parts.size)
    return x


class TestSignalFormat:
    def test_real_roundtrip(self, tmp_path):
        x = prng.normals(1, 17)
        path = tmp_path / "x.csk1"
        write_signal(path, x)
        back = read_signal(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, x)

    def test_complex_roundtrip(self, tmp_path):
        x = prng.complex_normals(2, 9)
        path = tmp_path / "x.csk1"
        write_signal(path, x)
        back = read_signal(path)
        assert back.dtype == np.complex128
        assert np.array_equal(back, x)

    def test_complex_special_values_roundtrip_bit_for_bit(self, tmp_path):
        x = special_values()
        path = tmp_path / "x.csk1"
        write_signal(path, x)
        back = read_signal(path)
        assert back.dtype == np.complex128
        assert back.tobytes() == x.tobytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.csk1"
        write_signal(path, np.array([1.0]))
        raw = path.read_bytes()
        assert raw[:4] == b"CSK1"
        assert raw[4:8] == (1).to_bytes(4, "little")
        assert raw[8] == 0  # real scalar kind
        assert len(raw) == 9 + 8

    @pytest.mark.parametrize("x, kind, payload", [
        (np.array([1.0, -2.5]), 0, b"\x00" * 6 + b"\xf0\x3f" + b"\x00" * 6 + b"\x04\xc0"),
        (np.array([1.0 - 2.5j]), 1, b"\x00" * 6 + b"\xf0\x3f" + b"\x00" * 6 + b"\x04\xc0"),
        (np.array([3], dtype=np.int32), 0, b"\x00" * 6 + b"\x08\x40"),
    ], ids=["real", "complex", "int32 read as real"])
    def test_bytes_written_per_scalar_kind(self, tmp_path, x, kind, payload):
        # CSK1 is magic, u32 length, u8 kind, then little-endian f8 (re, im) values
        path = tmp_path / "x.csk1"
        write_signal(path, x)
        assert path.read_bytes() == b"CSK1" + x.size.to_bytes(4, "little") + bytes([kind]) + payload
        assert read_signal(path).tobytes() == x.astype(read_signal(path).dtype).tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.csk1"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(ValueError, match="magic"):
            read_signal(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.csk1"
        write_signal(path, np.ones(4))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_signal(path)


class TestMatrixFormat:
    def test_real_matrix_roundtrip(self, tmp_path):
        mat = prng.normals(3, 12).reshape(3, 4)
        path = tmp_path / "m.cskm"
        write_matrix(path, mat)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, mat)

    def test_complex_matrix_roundtrip(self, tmp_path):
        mat = prng.complex_normals(4, 6).reshape(2, 3)
        path = tmp_path / "m.cskm"
        write_matrix(path, mat)
        assert np.array_equal(read_matrix(path), mat)

    def test_complex_special_values_roundtrip_bit_for_bit(self, tmp_path):
        mat = special_values().reshape(4, 9)
        path = tmp_path / "m.cskm"
        write_matrix(path, mat)
        back = read_matrix(path)
        assert back.dtype == np.complex128
        assert back.tobytes() == mat.tobytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.cskm"
        write_matrix(path, np.ones((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == b"CSKM"
        assert raw[4:8] == (2).to_bytes(4, "little")
        assert raw[8:12] == (3).to_bytes(4, "little")
        assert len(raw) == 12 + 2 * 3 * 16


class TestJsonFixtures:
    def test_real_roundtrip(self):
        x = np.array([1.5, -2.0])
        assert np.array_equal(signal_from_json(signal_to_json(x)), x)

    def test_complex_roundtrip(self):
        x = np.array([1 + 2j, -0.5j])
        back = signal_from_json(signal_to_json(x))
        assert back.dtype == np.complex128
        assert np.array_equal(back, x)


class TestOperatorDescriptors:
    def test_identity(self):
        op = operator_from_descriptor(operator_descriptor(identity_operator(6)))
        assert op.n == 6 and op.m == 6

    def test_gaussian_reproduces_matrix(self):
        op = gaussian_operator(8, 16, seed=5)
        back = operator_from_descriptor(operator_descriptor(op))
        assert np.array_equal(back.matrix, op.matrix)

    def test_partial_fourier_seeded(self):
        op = partial_fourier_operator(4, 16, seed=6)
        back = operator_from_descriptor(operator_descriptor(op))
        assert np.array_equal(back.rows, op.rows)

    def test_partial_fourier_explicit_rows(self):
        op = partial_fourier_operator(3, 8, rows=[0, 2, 7])
        desc = operator_descriptor(op)
        assert desc["rows"] == [0, 2, 7]
        back = operator_from_descriptor(desc)
        assert np.array_equal(back.rows, op.rows)

    def test_partial_fourier_explicit_rows_win_over_a_seed(self):
        op = PartialFourierOperator(4, 16, seed=5, rows=[0, 3, 7, 9])
        assert op.seed is None
        back = operator_from_descriptor(operator_descriptor(op))
        assert back.rows.tolist() == [0, 3, 7, 9]

    def test_dense_inline(self):
        mat = prng.normals(7, 6).reshape(2, 3)
        back = operator_from_descriptor(operator_descriptor(dense_operator(mat)))
        assert np.allclose(back.matrix, mat, rtol=0, atol=1e-15)

    def test_dense_from_matrix_file(self, tmp_path):
        mat = prng.normals(8, 6).reshape(2, 3)
        path = tmp_path / "op.cskm"
        write_matrix(path, mat)
        op = operator_from_descriptor({"kind": "dense", "path": str(path)})
        assert np.array_equal(op.matrix, mat)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown operator kind"):
            operator_from_descriptor({"kind": "toeplitz"})


class TestConfigNumbers:
    def test_int_stays_exact_at_the_top_of_the_seed_range(self):
        value = json_int(2**64 - 1)
        assert type(value) is int and value == 2**64 - 1

    @pytest.mark.parametrize("value", [True, "3", 2.5, float("nan"), float("inf"), -float("inf")])
    def test_int_refuses(self, value):
        with pytest.raises(ValueError, match="expected an integer"):
            json_int(value)

    @pytest.mark.parametrize("value", [0, 3, -2.5, 1e-300, 2**64 - 1, 1.7976931348623157e308])
    def test_number_reads_finite_ints_and_floats(self, value):
        number = json_number(value)
        assert type(number) is float and number == float(value)

    @pytest.mark.parametrize(
        "value", [True, False, "0.5", float("nan"), float("inf"), -float("inf"), 10**400, -(10**400)]
    )
    def test_number_refuses_with_a_value_error(self, value):
        with pytest.raises(ValueError, match="expected a finite number"):
            json_number(value)
