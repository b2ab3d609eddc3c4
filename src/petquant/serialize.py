"""Deterministic report serialization.

Floats are rendered with 17 significant digits (%.17g) in both CSV and
JSON so reports are diff-stable and round-trip bit-exactly; stdlib json
cannot format floats, hence the small recursive emitter.

``write_bytes_atomic`` is the package's one file writer (reports, manifests,
volumes): a temp file in the target's directory, renamed over the target.
Temp names carry the process and thread id, so concurrent writers to one
target never share a temp file; the last rename wins. Its chunks are written
back to back; an integer chunk stands for that many zero bytes, which the
writer skips over, so they become a hole in the file rather than written
blocks (a file ending in one is extended to its full size). A file read back
has the same bytes either way.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from pathlib import Path


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def _json_token(value, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        import json as _json

        return _json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return _json_token(fmt_float(value), indent)  # JSON has no inf/nan
        return fmt_float(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {_json_token(str(k), 0)}: {_json_token(v, indent + 1)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {_json_token(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_json(obj) -> str:
    return _json_token(obj, 0) + "\n"


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    text = str(value)
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def dumps_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(csv_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_bytes_atomic(path: str | os.PathLike, *chunks: bytes | int) -> None:
    p = Path(path)
    # "x" mode: a leftover temp file is an error, never silently shared
    tmp = p.with_name(f"{p.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                if isinstance(chunk, numbers.Integral):  # numpy's integers too
                    fh.seek(chunk, os.SEEK_CUR)  # a hole, read back as zero bytes
                else:
                    fh.write(chunk)
            if chunks and isinstance(chunks[-1], numbers.Integral):
                fh.truncate()  # the size a trailing hole gives the file
        os.replace(tmp, p)
    except BaseException as exc:  # an interrupt or a bad chunk too: no temp file is left
        tmp.unlink(missing_ok=True)
        if not isinstance(exc, OSError):
            raise
        raise OSError(f"failed writing {p}: {exc}") from exc


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))
