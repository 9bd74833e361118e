import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxcorr.volume import DisplacementField, ScalarVolume
from voxcorr.vvol import VvolError, read_raw, vvol_read, vvol_write, write_raw


def test_scalar_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    vol = ScalarVolume(rng.random((8, 8, 8), dtype=np.float32), (5.0, 5.0, 5.0))
    p = tmp_path / "v.vvol"
    vvol_write(p, vol)
    back = vvol_read(p)
    assert isinstance(back, ScalarVolume)
    assert back.voxel_size == (5.0, 5.0, 5.0)
    assert back.data.tobytes() == vol.data.tobytes()


def test_field_roundtrip_preserves_channel_order(tmp_path):
    rng = np.random.default_rng(1)
    field = DisplacementField(rng.standard_normal((3, 4, 5, 6)).astype(np.float32))
    p = tmp_path / "f.vvol"
    vvol_write(p, field)
    back = vvol_read(p)
    assert isinstance(back, DisplacementField)
    np.testing.assert_array_equal(back.data, field.data)


def test_file_is_header_metadata_and_payload(tmp_path):
    # the payload streams from the array: the bytes are those of one joined blob
    data = np.random.default_rng(2).standard_normal((3, 6, 5, 4)).astype(np.float32)
    view = data.transpose(0, 3, 2, 1)  # not C-contiguous: written in C order of the view
    p = tmp_path / "x.vvol"
    write_raw(p, view, (1.5, 2.0, 2.5), meta={"k": [1, 2]})
    meta = json.dumps({"k": [1, 2]}, sort_keys=True).encode("utf-8")
    header = struct.pack("<4sII IIII fff I", b"VVOL", 1, 0, 3, 6, 5, 4, 1.5, 2.0, 2.5, len(meta))
    assert p.read_bytes() == header + meta + np.ascontiguousarray(view).tobytes()
    back, voxel_size, back_meta = read_raw(p)
    assert back.tobytes() == np.ascontiguousarray(view).tobytes() and back.flags.writeable
    assert voxel_size == (1.5, 2.0, 2.5) and back_meta == {"k": [1, 2]}


def written(tmp_path, meta=None):
    p = tmp_path / "x.vvol"
    write_raw(p, np.ones((4, 4, 4), dtype=np.float32), meta=meta)
    return p, bytearray(p.read_bytes())


def test_bad_magic(tmp_path):
    p, blob = written(tmp_path)
    blob[:4] = b"XXXX"
    p.write_bytes(bytes(blob))
    with pytest.raises(VvolError, match="bad magic"):
        vvol_read(p)


def test_unsupported_version(tmp_path):
    p, blob = written(tmp_path)
    blob[4] = 9
    p.write_bytes(bytes(blob))
    with pytest.raises(VvolError, match="unsupported version 9"):
        vvol_read(p)


def test_unsupported_dtype_code(tmp_path):
    p, blob = written(tmp_path)
    blob[8] = 1  # the retired uint8 code
    p.write_bytes(bytes(blob))
    with pytest.raises(VvolError, match="dtype code 1"):
        vvol_read(p)


@pytest.mark.parametrize("keep", [0, 20, 44, -10])
def test_truncated(tmp_path, keep):
    # keep 0 and 20 bytes: inside the header; 44: the header only; -10: short payload
    p, blob = written(tmp_path)
    p.write_bytes(bytes(blob[:keep]))
    with pytest.raises(VvolError, match="truncated"):
        vvol_read(p)


def test_trailing_bytes_rejected(tmp_path):
    p, blob = written(tmp_path)
    p.write_bytes(bytes(blob) + b"\x00")
    with pytest.raises(VvolError, match="1 trailing bytes"):
        read_raw(p)


@pytest.mark.parametrize("at, byte", [(6, 0xFF), (7, ord("]"))], ids=["bad-utf8", "bad-json"])
def test_unreadable_metadata_rejected(tmp_path, at, byte):
    p, blob = written(tmp_path, meta={"k": 1})
    assert blob[44:52] == b'{"k": 1}'  # the metadata follows the 44-byte header
    blob[44 + at] = byte
    p.write_bytes(bytes(blob))
    with pytest.raises(VvolError, match="unreadable metadata"):
        read_raw(p)


def test_write_rejects_non_float32(tmp_path):
    for dtype in (np.float64, np.uint8):
        with pytest.raises(VvolError, match="float32"):
            write_raw(tmp_path / "x.vvol", np.zeros((2, 2, 2), dtype=dtype))


def test_write_rejects_unknown_object(tmp_path):
    with pytest.raises(VvolError):
        vvol_write(tmp_path / "x.vvol", object())


@settings(max_examples=25, deadline=None)
@given(
    channels=st.sampled_from([1, 3]),
    nx=st.integers(1, 6),
    ny=st.integers(1, 6),
    nz=st.integers(1, 6),
    seed=st.integers(0, 2 ** 31),
)
def test_raw_roundtrip_property(tmp_path_factory, channels, nx, ny, nz, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((channels, nz, ny, nx)).astype(np.float32)
    p = tmp_path_factory.mktemp("vvol") / "r.vvol"
    write_raw(p, data, (1.0, 2.0, 3.0), {"k": int(seed)})
    back, voxel_size, meta = read_raw(p)
    assert back.tobytes() == data.tobytes()
    assert voxel_size == (1.0, 2.0, 3.0)
    assert meta == {"k": int(seed)}
