"""Bit-exact checkpoint files.

Layout: one JSON header line (format version, metadata, and a manifest
of (section, name, shape, byte offset) entries), a newline, then raw
little-endian float64 blobs in manifest order. Entries are sorted by
(section, name) so identical state always serializes to identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .errors import ValidationError

FORMAT = "sceneact-checkpoint/1"


def save_checkpoint(path, sections: dict[str, dict[str, np.ndarray]], meta: dict | None = None):
    """Write named arrays grouped into sections, plus a metadata echo."""
    entries = []
    blobs = []
    offset = 0
    for section in sorted(sections):
        arrays = sections[section]
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
            blob = arr.astype("<f8").tobytes()
            entries.append(
                {"section": section, "name": name, "shape": list(arr.shape), "offset": offset}
            )
            blobs.append(blob)
            offset += len(blob)
    header = {"format": FORMAT, "meta": meta or {}, "entries": entries}
    payload = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + b"".join(blobs)
    # a run killed mid-write leaves the temporary file, never a half-written checkpoint
    tmp = Path(f"{path}.tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[dict[str, dict[str, np.ndarray]], dict]:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValidationError(f"checkpoint {path} has no header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"checkpoint {path} header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ValidationError(f"checkpoint {path} header is not a JSON object")
    if header.get("format") != FORMAT:
        raise ValidationError(f"unsupported checkpoint format {header.get('format')!r}")
    meta, entries = header.get("meta", {}), header.get("entries")
    if not isinstance(meta, dict) or not isinstance(entries, list):
        raise ValidationError(f"checkpoint {path} header needs a meta object and an entries list")
    body = raw[nl + 1 :]
    sections: dict[str, dict[str, np.ndarray]] = {}
    end = 0
    for entry in entries:
        try:
            section, name = str(entry["section"]), str(entry["name"])
            shape = tuple(int(n) for n in entry["shape"])
            start = int(entry["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"checkpoint {path} has a malformed entry {entry!r}: "
                                  f"{exc!r}") from exc
        if start < 0 or min(shape, default=0) < 0:
            raise ValidationError(f"checkpoint {path}: {section}/{name} has a negative "
                                  f"offset or dimension")
        count = int(np.prod(shape)) if shape else 1
        end = max(end, start + 8 * count)
        if end > len(body):
            raise ValidationError(f"checkpoint {path} is truncated: {section}/"
                                  f"{name} runs past the end of the file")
        data = np.frombuffer(body, dtype="<f8", count=count, offset=start)
        sections.setdefault(section, {})[name] = data.reshape(shape).astype(np.float64)
    if len(body) > end:
        raise ValidationError(f"checkpoint {path} has {len(body) - end} bytes past its entries")
    return sections, meta


def params_hash(arrays: dict[str, np.ndarray]) -> str:
    """Stable digest of named arrays; used for frozen-phase integrity checks."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(arrays[name], dtype=np.float64).tobytes())
    return digest.hexdigest()
