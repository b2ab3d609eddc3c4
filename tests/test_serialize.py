import sys
import threading

import numpy as np
import pytest

from petquant.serialize import write_bytes_atomic, write_text_atomic


class TestAtomicWriter:
    def test_concurrent_writers_to_one_target(self, tmp_path):
        target = tmp_path / "out.bin"
        payloads = [b"a" * 1_000_000, b"b" * 1_500_000]
        start = threading.Barrier(len(payloads))
        errors = []

        def writer(payload):
            try:
                start.wait(timeout=10)
                for _ in range(50):
                    write_bytes_atomic(target, payload)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert target.read_bytes() in payloads
        assert list(tmp_path.glob("*.tmp")) == []
        plain = tmp_path / "plain.bin"
        with open(plain, "wb"):
            pass
        assert target.stat().st_mode == plain.stat().st_mode

    def test_text_is_utf8(self, tmp_path):
        write_text_atomic(tmp_path / "t.csv", "patient_id\nZoë\n")
        assert (tmp_path / "t.csv").read_bytes() == "patient_id\nZoë\n".encode("utf-8")


class TestHoles:
    """An integer chunk is that many zero bytes, skipped over as a hole."""

    @pytest.mark.parametrize(
        "chunks, want",
        [
            ((3, b"ab"), b"\0\0\0ab"),
            ((b"ab", 4, b"c"), b"ab\0\0\0\0c"),
            ((b"ab", 2), b"ab\0\0"),
            ((5,), b"\0" * 5),
            ((b"a", 0, b"", 1 << 20), b"a" + b"\0" * (1 << 20)),
            ((np.int64(2), b"x", np.intp(1)), b"\0\0x\0"),  # never the integer's own bytes
        ],
    )
    def test_zero_runs(self, tmp_path, chunks, want):
        write_bytes_atomic(tmp_path / "f.bin", *chunks)
        assert (tmp_path / "f.bin").read_bytes() == want

    def test_temp_file_removed_when_the_rename_fails(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()  # a directory: the holes are written, the rename fails
        with pytest.raises(OSError, match="failed writing"):
            write_bytes_atomic(target, b"ab", 3)
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_temp_file_removed_when_a_run_fails(self, tmp_path):
        with pytest.raises(OSError, match="failed writing"):
            write_bytes_atomic(tmp_path / "f.bin", -1, b"ab")  # a seek before the start
        assert list(tmp_path.iterdir()) == []

    def test_temp_file_removed_on_any_exception(self, tmp_path):
        # a chunk that is neither bytes-like nor an integer used to leave the temp file
        with pytest.raises(TypeError):
            write_bytes_atomic(tmp_path / "f.bin", b"a", 2, "text")
        assert list(tmp_path.iterdir()) == []
