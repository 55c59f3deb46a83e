"""JSON helpers: complex scalars/matrices as [re, im] pairs, canonical dumps.

Every file the package writes carries the tag ``"format": "aglerkit/1"``.
Serialization is canonical (sorted keys, fixed float repr) so that repeated
runs with the same seed produce byte-identical output.
"""

from __future__ import annotations

import cmath
import json
import os
import tempfile

import numpy as np

FORMAT_TAG = "aglerkit/1"


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(pair) -> complex:
    """[re, im] as a complex; ValueError unless both parts are finite."""
    re, im = pair
    z = complex(float(re), float(im))
    if not cmath.isfinite(z):
        raise ValueError("non-finite number in a [re, im] pair")
    return z


def matrix_to_pairs(mat) -> list:
    """Nested [re, im] lists for a complex ndarray of any shape."""
    arr = np.asarray(mat, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


def pairs_to_matrix(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("expected trailing [re, im] pairs")
    # assigned part by part: re + 1j*im would turn a -0.0 real part into 0.0
    out = np.empty(arr.shape[:-1], dtype=complex)
    out.real = arr[..., 0]
    out.imag = arr[..., 1]
    return out


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json_atomic(path, obj) -> None:
    """Write canonical JSON via a temp file and rename; no partial files on failure."""
    text = canonical_dumps(obj)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".aglerkit-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
