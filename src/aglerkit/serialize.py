"""JSON helpers: complex scalars/matrices as [re, im] pairs, canonical dumps.

Every file the package writes carries the tag ``"format": "aglerkit/1"``.
Serialization is canonical, so that repeated runs with the same seed produce
byte-identical output: canonical_dumps(obj) is exactly the text of
json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) and a newline,
ASCII only, pinned to that stdlib call by tests/test_serialize.py.  It is
written directly, as indent=2 sends json to its pure-Python encoder.
"""

from __future__ import annotations

import cmath
import json
import os
import tempfile

import numpy as np

FORMAT_TAG = "aglerkit/1"
_ESCAPE = json.encoder.encode_basestring_ascii


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
    """Trailing [re, im] pairs as a complex ndarray; ValueError unless every part is finite."""
    arr = np.asarray(obj, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("expected trailing [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite number in a [re, im] pair")
    # assigned part by part: re + 1j*im would turn a -0.0 real part into 0.0
    out = np.empty(arr.shape[:-1], dtype=complex)
    out.real = arr[..., 0]
    out.imag = arr[..., 1]
    return out


def canonical_dumps(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2, allow_nan=False), one newline added."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, newline):
    """obj as JSON; newline is a line break and the indent of the line obj starts on."""
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = "," + inner
        if isinstance(obj[0], float):
            try:  # a float list is one join; a mixed list goes item by item, so the first bad item raises
                return "[" + inner + _finite(sep.join(map(float.__repr__, obj))) + newline + "]"
            except TypeError:
                pass
        return "[" + inner + sep.join([_encode(item, inner) for item in obj]) + newline + "]"
    if isinstance(obj, dict):
        items = [_ESCAPE(_key(k)) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(obj, str):
        return _ESCAPE(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _finite(float.__repr__(obj))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _finite(text):
    """text of float reprs, unless one is NaN or an infinity (ValueError), the only reprs with an "n"."""
    if "n" in text:
        raise ValueError("Out of range float values are not JSON compliant")
    return text


def _key(key):
    """A dict key as json writes it: a str as it is; an int, float, bool or None as its JSON text."""
    if not (key is None or isinstance(key, (str, int, float))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return key if isinstance(key, str) else _encode(key, "")


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
