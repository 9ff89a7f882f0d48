"""Binary tensor format and manifest round-trips."""

from pathlib import Path

import numpy as np
import pytest

import painforge
from painforge.errors import DataError
from painforge.fileio import (dump_json_line, load_tensor, read_manifest,
                              save_tensor, write_manifest)


class TestTensorFormat:
    @pytest.mark.parametrize("dtype,code", [(np.float32, 1), (np.float64, 2),
                                            (np.uint8, 3)])
    def test_round_trip_exact(self, tmp_path, dtype, code):
        rng = np.random.default_rng(0)
        if dtype is np.uint8:
            arr = rng.integers(0, 256, size=(3, 5, 2)).astype(dtype)
        else:
            arr = rng.normal(size=(3, 5, 2)).astype(dtype)
        path = tmp_path / "t.p3dt"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)

    def test_header_layout(self, tmp_path):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "t.p3dt"
        save_tensor(path, arr)
        raw = path.read_bytes()
        assert raw[:4] == b"P3DT"
        assert raw[4] == 1          # version
        assert raw[5] == 1          # dtype code f32
        assert raw[6] == 2          # rank
        assert raw[7] == 0          # reserved
        dims = np.frombuffer(raw[8:16], dtype="<u4")
        assert list(dims) == [2, 3]
        payload = np.frombuffer(raw[16:], dtype="<f4")
        assert np.array_equal(payload, arr.reshape(-1))

    def test_save_load_save_bytes_identical(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=(4, 4))
        a, b = tmp_path / "a.p3dt", tmp_path / "b.p3dt"
        save_tensor(a, arr)
        save_tensor(b, load_tensor(a))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.p3dt"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(DataError):
            load_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.p3dt"
        save_tensor(path, np.ones((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError):
            load_tensor(path)

    @pytest.mark.parametrize("keep,rank", [(10, None), (16, 200)])
    def test_truncated_dims_header_rejected(self, tmp_path, keep, rank):
        path = tmp_path / "t.p3dt"
        save_tensor(path, np.ones((4, 4), dtype=np.float32))
        raw = bytearray(path.read_bytes()[:keep])
        if rank is not None:
            raw[6] = rank  # a bogus rank whose dims run past the file
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="too short"):
            load_tensor(path)

    def test_payload_cut_mid_element_rejected(self, tmp_path):
        path = tmp_path / "t.p3dt"
        save_tensor(path, np.ones((4, 4), dtype=np.float64))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataError, match="payload"):
            load_tensor(path)

    @pytest.mark.parametrize("make", ["missing", "directory"])
    def test_unreadable_file_is_a_data_error_naming_it(self, tmp_path, make):
        path = tmp_path / "t.p3dt"
        if make == "directory":
            path.mkdir()
        with pytest.raises(DataError, match=f"{path}: cannot read tensor file"):
            load_tensor(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(DataError):
            save_tensor(tmp_path / "t.p3dt", np.ones(3, dtype=np.int64))


class TestManifest:
    def test_round_trip(self, tmp_path):
        rows = [{"identity_id": 0, "pspi": 3, "camera_yaw": -30.0,
                 "heatmap_path": None},
                {"identity_id": 1, "pspi": 0, "camera_yaw": 0.0,
                 "heatmap_path": "h.p3dt"}]
        path = tmp_path / "m.jsonl"
        write_manifest(path, rows)
        assert read_manifest(path) == rows

    def test_canonical_line_is_order_free(self):
        assert dump_json_line({"b": 1, "a": 2}) == dump_json_line({"a": 2, "b": 1})

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            read_manifest(tmp_path / "nope.jsonl")

    def test_corrupt_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"ok": 1}\n{broken\n')
        with pytest.raises(DataError):
            read_manifest(path)

    def test_line_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"ok": 1}\n\n[1, 2]\n')
        with pytest.raises(DataError, match=r"m\.jsonl: line 3 is not a JSON object"):
            read_manifest(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b'{"name": "\xff"}\n')
        with pytest.raises(DataError, match="not UTF-8"):
            read_manifest(path)


def test_only_fileio_writes_files():
    # One writer keeps a change to how files are written, such as an atomic
    # rename, to one module.
    src = Path(painforge.__file__).parent
    writers = [f"{path.relative_to(src)}: {call}"
               for path in sorted(src.rglob("*.py")) if path != src / "fileio.py"
               for call in ("write_text", "write_bytes", "open(")
               if call in path.read_text(encoding="utf-8")]
    assert writers == []
