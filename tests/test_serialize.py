import sys
import threading

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
