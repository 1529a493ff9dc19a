"""Versioned JSON checkpoints.

A checkpoint is a single self-describing JSON document: schema version,
model kind, configuration, every parameter array (base64-encoded float64
bytes plus shape), the vocabulary, the observable list for quantum models,
and the dataset recipe (path, ratios, split seed) needed to rebuild
compatible splits.  Any format change requires a schema version bump.
"""

from __future__ import annotations

import base64
import dataclasses
import json

import numpy as np

from .attention import ObservableSet
from .data import Vocabulary
from .errors import ParseError
from .sim import PauliString
from .training import MODEL_KINDS, kind_of

SCHEMA_VERSION = 1


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(obj["data"])
        arr = np.frombuffer(raw, dtype=np.float64).copy()
        return arr.reshape(obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed parameter array: {exc}") from exc


def save_checkpoint(path, model, vocabulary: Vocabulary, dataset_meta: dict) -> None:
    kind = kind_of(model)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model_kind": kind.name,
        "model_config": kind.settings(model),
        "params": {key: _encode_array(arr) for key, arr in kind.params(model).items()},
        "vocabulary": list(vocabulary.id_to_token),
        "vocab_sha256": vocabulary.content_hash(),
        "dataset": dataset_meta,
    }
    observables = getattr(model, "observables", None)
    if observables is not None:
        doc["observables"] = [str(obs) for obs in observables.observables]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True)
        handle.write("\n")


def _build_model(doc: dict):
    """A model of the stored kind and shape, filled from the stored arrays."""
    kind = MODEL_KINDS.get(doc["model_kind"])
    if kind is None:
        raise ParseError(f"unknown model kind {doc['model_kind']!r}")
    vocabulary = Vocabulary(list(doc["vocabulary"]))
    if vocabulary.content_hash() != doc["vocab_sha256"]:
        raise ParseError("vocab_sha256 does not match the stored vocabulary")
    model = kind.init(doc["model_config"], vocabulary.size, np.random.default_rng(0))
    if "observables" in doc:
        observables = tuple(PauliString.from_str(text) for text in doc["observables"])
        model = dataclasses.replace(model, observables=ObservableSet(observables))
    params = kind.params(model)
    if set(doc["params"]) != set(params):
        raise ParseError(
            f"{kind.name} checkpoint needs arrays {sorted(params)}, "
            f"found {sorted(doc['params'])}"
        )
    for key, param in params.items():
        stored = _decode_array(doc["params"][key])
        if stored.shape != param.shape:
            raise ParseError(
                f"{key} has shape {stored.shape}, the model config implies {param.shape}"
            )
        if not np.all(np.isfinite(stored)):
            raise ParseError(f"{key} holds non-finite values")
        param[...] = stored
    return model, vocabulary


def load_checkpoint(path):
    """Return (model, vocabulary, full document)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        version = doc["schema_version"]
        if version != SCHEMA_VERSION:
            raise ParseError(f"unsupported checkpoint schema version {version}")
        model, vocabulary = _build_model(doc)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed checkpoint {path}: {exc}") from exc
    return model, vocabulary, doc
