import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxcorr.volume import DisplacementField, ScalarVolume, VolumeError, blocks
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


def inject(p, flat_index, value):
    """Overwrite payload value flat_index of the VVOL file p with float32 value."""
    blob = bytearray(p.read_bytes())
    _, _, _, c, nx, ny, nz = struct.unpack_from("<4sII IIII", blob)
    at = len(blob) - 4 * (c * nz * ny * nx - flat_index)
    blob[at : at + 4] = np.float32(value).tobytes()
    p.write_bytes(bytes(blob))


@settings(max_examples=25, deadline=None)
@given(
    channels=st.sampled_from([1, 3]),
    nx=st.integers(1, 6),
    ny=st.integers(1, 6),
    nz=st.integers(1, 6),
    seed=st.integers(0, 2 ** 31),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_raw_roundtrip_property(tmp_path_factory, channels, nx, ny, nz, seed, bad):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((channels, nz, ny, nx)).astype(np.float32)
    p = tmp_path_factory.mktemp("vvol") / "r.vvol"
    write_raw(p, data, (1.0, 2.0, 3.0), {"k": int(seed)})
    back, voxel_size, meta = read_raw(p)
    assert back.tobytes() == data.tobytes()
    assert voxel_size == (1.0, 2.0, 3.0)
    assert meta == {"k": int(seed)}
    # one injected non-finite value: write_raw refuses it, and vvol_read
    # rejects a file that holds it, which read_raw returns bit for bit
    at = int(rng.integers(data.size))
    data.flat[at] = bad
    q = p.with_name("bad.vvol")
    with pytest.raises(VvolError, match="non-finite"):
        write_raw(q, data)
    assert not q.exists()
    inject(p, at, bad)
    assert read_raw(p)[0].tobytes() == data.tobytes()
    with pytest.raises(VolumeError, match="non-finite"):
        vvol_read(p)


def chunk_edges(shape_zyx):
    """Flat indices of one [z, y, x] grid to test: the first and last voxel, and
    the voxels on each side of the first boundary of its blocks."""
    nz, ny, nx = shape_zyx
    z = blocks(shape_zyx)[1][0].start
    return [0, z * ny * nx - 1, z * ny * nx, nz * ny * nx - 1]


SHAPE = (40, 32, 32)  # 16 planes per block: three blocks


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", range(4), ids=["first", "chunk-end", "chunk-start", "last"])
@pytest.mark.parametrize("channels", [1, 3], ids=["scalar", "field-channel-2"])
def test_read_rejects_nonfinite_voxel(tmp_path, bad, where, channels):
    assert len(blocks(SHAPE)) > 1
    p = tmp_path / "v.vvol"
    data = np.random.default_rng(0).random((channels, *SHAPE), dtype=np.float32)
    write_raw(p, data)
    at = (channels - 1) * data[0].size + chunk_edges(SHAPE)[where]
    inject(p, at, bad)
    with pytest.raises(VolumeError, match="non-finite") as e:
        vvol_read(p)
    assert str(p) in str(e.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", range(4), ids=["first", "chunk-end", "chunk-start", "last"])
def test_write_refuses_nonfinite_and_leaves_no_file(tmp_path, bad, where):
    field = np.zeros((3, *SHAPE), dtype=np.float32)
    field[2].flat[chunk_edges(SHAPE)[where]] = bad
    p = tmp_path / "f.vvol"
    with pytest.raises(VvolError, match="non-finite") as e:
        vvol_write(p, DisplacementField(field))
    assert str(p) in str(e.value) and not p.exists()


def test_write_refuses_a_value_beyond_float32(tmp_path):
    data = np.ones((4, 4, 4))
    data[1, 2, 3] = 1e39  # finite in float64, inf once cast to float32
    p = tmp_path / "v.vvol"
    with pytest.raises(VvolError, match="non-finite"):
        vvol_write(p, ScalarVolume(data))
    assert not p.exists()


def test_read_rejects_infinite_voxel_size(tmp_path):
    p = tmp_path / "v.vvol"
    write_raw(p, np.ones((2, 2, 2), dtype=np.float32), (1.0, np.inf, 1.0))
    with pytest.raises(VolumeError, match="voxel_size"):
        vvol_read(p)
