"""Small file helpers: atomic JSON/text/array writes via write-temp-then-rename."""

import json
import os
from pathlib import Path

import numpy as np

# the JSON half of every artifact stored as ``.npy`` arrays plus a manifest
MANIFEST_FILE = "manifest.json"


def write_json_atomic(path, payload) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def write_text_atomic(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_npy_atomic(path, array: np.ndarray) -> None:
    """Write one array in ``.npy`` format, which is byte-deterministic."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.save(fh, array, allow_pickle=False)
    os.replace(tmp, path)
