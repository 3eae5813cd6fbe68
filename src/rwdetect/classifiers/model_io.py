"""Binary model container: magic, version, length, JSON payload, digest.

Layout (big-endian):

    offset  size  field
    0       8     magic ``b"RWDMODEL"``
    8       2     format version (currently 1)
    10      4     payload byte length
    14      n     canonical JSON payload (sorted keys, no whitespace)
    14+n    32    SHA-256 over bytes [0, 14+n)

Canonical JSON plus repr-exact floats make serialization deterministic:
the same kind, hyperparameters, seed and training data always produce
byte-identical files.  ``training_time`` is measurement, not state, so
it never enters the payload.  ``train`` seals a fit's ``params`` once,
and a model keeps that file, or the one it was loaded from, as
``blob``: ``save_model`` returns it and the fingerprint is its SHA-256.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, fields
from pathlib import Path

from ..errors import (
    ChecksumFailure,
    InvalidHyperparams,
    MalformedModel,
    VersionMismatch,
)
from ..features import N_FEATURES, ScalingParams
from ._arrays import array
from .base import FAMILIES, ClassifierKind, Hyperparams, TrainedModel, validate_hyperparams

MODEL_MAGIC = b"RWDMODEL"
MODEL_FORMAT_VERSION = 1

_HEADER = struct.Struct(">HI")   # version, payload length
_DIGEST_SIZE = 32
_KEYS = ("hyperparams", "kind", "params", "scaler", "train_fingerprint", "zero_addresses")
_SCALER_KEYS = ("fitted_on", "maxs", "mins")


def seal(kind: ClassifierKind, hp: Hyperparams, params: dict, scaler: ScalingParams | None,
         train_fingerprint: str, zero_addresses: bool) -> bytes:
    """The model file of a fit's ``params`` and the metadata it was trained with."""
    payload = {
        "kind": kind.value,
        "hyperparams": asdict(hp),
        "params": params,
        "scaler": None if scaler is None else {
            "mins": scaler.mins.tolist(),
            "maxs": scaler.maxs.tolist(),
            "fitted_on": scaler.fitted_on,
        },
        "train_fingerprint": train_fingerprint,
        "zero_addresses": zero_addresses,
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    blob = MODEL_MAGIC + _HEADER.pack(MODEL_FORMAT_VERSION, len(body)) + body
    return blob + hashlib.sha256(blob).digest()


def save_model(model: TrainedModel) -> bytes:
    """The model file: as ``train`` sealed it, or as ``load_model`` read it."""
    return model.blob


def load_model(data: bytes) -> TrainedModel:
    """Parse container bytes back into a usable model.

    Check order: magic, then version, then length/digest, then payload
    structure.  A short file with an intact magic prefix counts as
    truncation, not a foreign format.
    """
    buf = bytes(data)
    if not buf.startswith(MODEL_MAGIC):
        if MODEL_MAGIC.startswith(buf):
            raise ChecksumFailure("model file truncated before the header")
        raise MalformedModel("bad model magic")
    header_end = len(MODEL_MAGIC) + _HEADER.size
    if len(buf) < len(MODEL_MAGIC) + 2:
        raise ChecksumFailure("model file truncated before the version")
    version = struct.unpack_from(">H", buf, len(MODEL_MAGIC))[0]
    if version != MODEL_FORMAT_VERSION:
        raise VersionMismatch(
            f"model format version {version}, expected {MODEL_FORMAT_VERSION}"
        )
    if len(buf) < header_end:
        raise ChecksumFailure("model file truncated before the length")
    length = struct.unpack_from(">I", buf, len(MODEL_MAGIC) + 2)[0]
    expected_total = header_end + length + _DIGEST_SIZE
    if len(buf) != expected_total:
        raise ChecksumFailure(
            f"model file is {len(buf)} bytes, header implies {expected_total}"
        )
    body_end = header_end + length
    digest = hashlib.sha256(buf[:body_end]).digest()
    if digest != buf[body_end:]:
        raise ChecksumFailure("model checksum mismatch")

    try:
        payload = json.loads(buf[header_end:body_end].decode())
    except (ValueError, RecursionError) as exc:   # bad UTF-8 or JSON, too deep, huge int
        raise MalformedModel(f"model payload is not valid JSON: {exc}") from exc
    try:
        _known(payload, _KEYS)
        kind = ClassifierKind(payload["kind"])
        family = FAMILIES[kind]
        _known(payload["hyperparams"], [f.name for f in fields(family.Params)])
        hp = family.Params(**payload["hyperparams"])
        validate_hyperparams(kind, hp)
        _known(payload["params"], family.KEYS)
        state = family.params_in(payload["params"], hp)
        scaler_obj = payload["scaler"]
        if (scaler_obj is not None) != family.SCALED:
            needs = "needs a" if family.SCALED else "takes no"
            raise ValueError(f"{kind.value} {needs} scaler")
        scaler = None
        if scaler_obj is not None:
            _known(scaler_obj, _SCALER_KEYS)
            mins, maxs = (array(scaler_obj[key], (N_FEATURES,))
                          for key in ("mins", "maxs"))
            if (mins > maxs).any():
                raise ValueError("scaler mins exceed maxs")
            scaler = ScalingParams(mins=mins, maxs=maxs,
                                   fitted_on=_typed(scaler_obj, "fitted_on", str))
        fingerprint = _typed(payload, "train_fingerprint", str)
        zero_addresses = _typed(payload, "zero_addresses", bool)
    except (KeyError, TypeError, ValueError, OverflowError, InvalidHyperparams) as exc:
        raise MalformedModel(f"model payload structure invalid: {exc}") from exc
    return TrainedModel(kind=kind, hyperparams=hp, state=state, scaler=scaler,
                        training_time=0.0, train_fingerprint=fingerprint,
                        blob=buf, zero_addresses=zero_addresses)


def _known(obj: dict, keys) -> None:
    """Require the keys of ``obj`` to be exactly ``keys``: the reader would
    ignore an unknown key, and a missing one would load as a default."""
    unknown, missing = set(obj) - set(keys), set(keys) - set(obj)
    if unknown:
        raise ValueError(f"unknown key {min(unknown)!r}")
    if missing:
        raise ValueError(f"missing key {min(missing)!r}")


def _typed(obj: dict, key: str, kind: type):
    """``obj[key]``, which must be a JSON string (``str``) or bool (``bool``)."""
    if type(obj[key]) is not kind:
        raise ValueError(f"{key} must be {kind.__name__}, got {obj[key]!r}")
    return obj[key]


def model_fingerprint(model: TrainedModel) -> str:
    """SHA-256 hex digest of the model file, ``save_model(model)``."""
    return hashlib.sha256(model.blob).hexdigest()


def read_model(path: str | Path) -> TrainedModel:
    return load_model(Path(path).read_bytes())
