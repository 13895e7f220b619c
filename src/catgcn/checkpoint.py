"""Single-file binary checkpoint.

Layout (all integers little-endian):
  bytes 0..7    magic b"CATGCKPT"
  bytes 8..11   uint32 format version (currently 1)
  bytes 12..19  uint64 header length H
  bytes 20..20+H  UTF-8 JSON header, sorted keys:
      {"config": {...resolved run config...},
       "seed": int,
       "sections": [{"name": str, "shape": [int], "offset": int, "count": int}, ...],
       "version": package version}
  then the section payloads: raw float64 little-endian values, concatenated in
  section order; `offset` counts float64 values from the start of the payload
  block, `count` is the number of values (= prod(shape)).

Byte-for-byte deterministic for identical (params, config, seed).
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .autodiff import Tensor
from .data import DataError
from .model import ModelParams

MAGIC = b"CATGCKPT"
FORMAT_VERSION = 1
_PREAMBLE = 20  # magic, version, header length


def save_checkpoint(path: str, params: ModelParams, config: dict, seed: int) -> None:
    from . import __version__

    sections = []
    payloads = []
    offset = 0
    for name, t in params.named_tensors().items():
        arr = np.ascontiguousarray(t.data, dtype="<f8")
        sections.append(
            {"name": name, "shape": list(arr.shape), "offset": offset, "count": int(arr.size)}
        )
        payloads.append(arr.tobytes())
        offset += arr.size
    header = json.dumps(
        {"config": config, "seed": seed, "sections": sections, "version": __version__},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for p in payloads:
            fh.write(p)


def load_checkpoint(path: str) -> tuple[ModelParams, dict, int]:
    """Returns (params, resolved config dict, seed); round-trips save_checkpoint exactly.

    Raises DataError naming `path` for a file that is not a whole, well-formed
    checkpoint: bad magic or version, a header or payload cut short, or a
    section table that does not fit the payload.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    if len(blob) < _PREAMBLE:
        raise DataError(f"{path}: truncated checkpoint: {len(blob)} bytes, preamble needs {_PREAMBLE}")
    (fmt,) = struct.unpack_from("<I", blob, 8)
    if fmt != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint format version {fmt}")
    (hlen,) = struct.unpack_from("<Q", blob, 12)
    if _PREAMBLE + hlen > len(blob):
        raise DataError(
            f"{path}: truncated checkpoint: {hlen}-byte header overruns the {len(blob)}-byte file"
        )
    try:
        header = json.loads(blob[_PREAMBLE : _PREAMBLE + hlen].decode("utf-8"))
        sections, config, seed = header["sections"], header["config"], header["seed"]
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers bad UTF-8 and JSON
        raise DataError(f"{path}: malformed checkpoint header: {exc}") from None
    if not isinstance(sections, list) or not isinstance(config, dict):
        raise DataError(f"{path}: malformed checkpoint header: bad sections or config")
    payload = blob[_PREAMBLE + hlen :]
    if len(payload) % 8:
        raise DataError(
            f"{path}: truncated checkpoint: {len(payload)}-byte payload is not whole float64 values"
        )
    data = np.frombuffer(payload, dtype="<f8")
    fields: dict[str, Tensor | None] = {n: None for n in ModelParams._ORDER}
    for sec in sections:
        name, shape, offset, count = _section_entry(path, sec)
        if name not in fields:
            raise DataError(f"{path}: unknown checkpoint section {name!r}")
        if offset + count > len(data):
            raise DataError(
                f"{path}: truncated checkpoint: section {name!r} needs float64 values"
                f" {offset}..{offset + count} but the payload holds {len(data)}"
            )
        arr = data[offset : offset + count].reshape(shape)
        fields[name] = Tensor(arr.astype(np.float64), requires_grad=True)
    missing = [n for n in ("embedding", "w_conv", "w_g", "b_g", "w_l", "b_l") if fields[n] is None]
    if missing:
        raise DataError(f"{path}: checkpoint missing sections {missing}")
    return ModelParams(**fields), config, seed


def _section_entry(path: str, sec) -> tuple[str, list, int, int]:
    """(name, shape, offset, count) of a section-table entry, or DataError."""
    def whole(x):
        return isinstance(x, int) and not isinstance(x, bool) and x >= 0

    try:
        name, shape, offset, count = sec["name"], sec["shape"], sec["offset"], sec["count"]
        ok = (isinstance(name, str) and whole(offset) and whole(count)
              and all(whole(d) for d in shape) and math.prod(shape) == count)
    except (KeyError, TypeError):
        ok = False
    if not ok:
        raise DataError(f"{path}: malformed checkpoint section {sec!r}")
    return name, list(shape), offset, count
