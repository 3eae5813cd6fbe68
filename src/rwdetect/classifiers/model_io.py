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
it never enters the payload.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict
from pathlib import Path

from ..errors import (
    ChecksumFailure,
    InvalidHyperparams,
    MalformedModel,
    VersionMismatch,
)
from ..features import N_FEATURES, ScalingParams
from ._arrays import array
from .base import FAMILIES, ClassifierKind, TrainedModel, validate_hyperparams

MODEL_MAGIC = b"RWDMODEL"
MODEL_FORMAT_VERSION = 1

_HEADER = struct.Struct(">HI")   # version, payload length
_DIGEST_SIZE = 32


def save_model(model: TrainedModel) -> bytes:
    """Serialize a trained model to the container format."""
    payload = {
        "kind": model.kind.value,
        "hyperparams": asdict(model.hyperparams),
        "params": FAMILIES[model.kind].params_out(model.state),
        "scaler": None if model.scaler is None else {
            "mins": model.scaler.mins.tolist(),
            "maxs": model.scaler.maxs.tolist(),
            "fitted_on": model.scaler.fitted_on,
        },
        "train_fingerprint": model.train_fingerprint,
        "zero_addresses": model.zero_addresses,
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    blob = MODEL_MAGIC + _HEADER.pack(MODEL_FORMAT_VERSION, len(body)) + body
    return blob + hashlib.sha256(blob).digest()


def load_model(data: bytes) -> TrainedModel:
    """Parse container bytes back into a usable model.

    Check order: magic, then version, then length/digest, then payload
    structure.  A short file with an intact magic prefix counts as
    truncation, not a foreign format.
    """
    buf = bytes(data)
    if len(buf) < len(MODEL_MAGIC):
        if MODEL_MAGIC.startswith(buf):
            raise ChecksumFailure("model file truncated before the header")
        raise MalformedModel("bad model magic")
    if buf[:len(MODEL_MAGIC)] != MODEL_MAGIC:
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedModel(f"model payload is not valid JSON: {exc}") from exc
    try:
        kind = ClassifierKind(payload["kind"])
        family = FAMILIES[kind]
        hp = family.Params(**payload["hyperparams"])
        validate_hyperparams(kind, hp)
        state = family.params_in(payload["params"], hp)
        scaler_obj = payload["scaler"]
        scaler = None
        if scaler_obj is not None:
            mins, maxs = (array(scaler_obj[key], (N_FEATURES,))
                          for key in ("mins", "maxs"))
            if (mins > maxs).any():
                raise ValueError("scaler mins exceed maxs")
            scaler = ScalingParams(mins=mins, maxs=maxs,
                                   fitted_on=str(scaler_obj["fitted_on"]))
        fingerprint = str(payload["train_fingerprint"])
        zero_addresses = bool(payload["zero_addresses"])
    except (KeyError, TypeError, ValueError, OverflowError, InvalidHyperparams) as exc:
        raise MalformedModel(f"model payload structure invalid: {exc}") from exc
    return TrainedModel(kind=kind, hyperparams=hp, state=state, scaler=scaler,
                        training_time=0.0, train_fingerprint=fingerprint,
                        zero_addresses=zero_addresses)


def model_fingerprint(model: TrainedModel) -> str:
    """SHA-256 hex digest of the serialized model."""
    return hashlib.sha256(save_model(model)).hexdigest()


def write_model(path: str | Path, model: TrainedModel) -> None:
    Path(path).write_bytes(save_model(model))


def read_model(path: str | Path) -> TrainedModel:
    return load_model(Path(path).read_bytes())
