"""The one JSON decoder and encoder, the one typed-field vocabulary of every
input, and the one artifact writer.

Project configs, GeoJSON layers, MCLP instances and reports are all strict
JSON (RFC 8259): UTF-8 text without ``NaN``, ``Infinity`` or a decimal
number too large for a float, the same JSON the artifacts are written in.

``get`` reads one field of a decoded object as a ``Kind``. A field of the
wrong type fails as ``<source> field <path> must be <kind>, got <value>``,
where the source is ``config``, ``instance`` or ``report``; the path is
formatted only when a field fails, since an instance has thousands.
``columns`` reads the same field of every object in a list at once, and
falls back to ``get`` only to name the first field that fails;
``positions`` types the GeoJSON positions of a layer at once the same way.

``json_text`` is the encoding of every JSON artifact, and
``write_artifacts`` writes a command's files, all or nothing. They live
here, beside the decoder, so that ``solve`` writes its files without
loading the GIS stack.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import reprlib
import sys
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, InputError
from .geo import MODES

_ERRORS = {"config": ConfigError, "instance": InputError, "report": InputError}


def _finite(text: str) -> float:
    """A JSON number as a float. NaN, Infinity and numbers too large for a
    float are rejected: strict JSON has no text for them."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def parse_json(raw: str | bytes, error: type[Exception], name: str):
    """The value of the strict JSON text ``raw`` (bytes must be UTF-8);
    any failure raises ``error`` naming the input ``name``."""
    try:
        text = raw.decode() if isinstance(raw, bytes) else raw
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except UnicodeDecodeError as exc:
        raise error(f"{name} is not UTF-8: {exc}") from None
    except ValueError as exc:  # a syntax error or a non-finite number
        raise error(f"{name} is not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{name} is not valid JSON: nested too deeply") from None


def read_json(path: str | Path, error: type[Exception], name: str):
    """(bytes, value) of the JSON file at ``path``, which is read once."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {name} {path}: {exc}") from None
    return raw, parse_json(raw, error, f"{name} {path}")


def json_text(payload) -> str:
    """The one JSON encoding of every JSON artifact and of report.json."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


Chunks = Iterable[str]


def write_artifacts(out_dir: str | Path, files: Iterable[tuple[str, Chunks]]) -> list[Path]:
    """Write each (name relative to ``out_dir``, text chunks) pair, all or
    nothing.

    Each file's chunks go to a temporary sibling of its target as they
    come, and each is dropped before the next is asked for: the writer
    holds one chunk (about 1 MiB from the formatters), not the file. Only
    once every file is written are they renamed into place, so an error (in
    a formatter, even mid-file, or in a write) leaves the previous files
    untouched and no temporary behind. An exclusive ``flock`` on the directory keeps it to
    one writer; the kernel drops it when the process ends, however it ends.
    An ``out_dir`` that cannot be made a directory, a target whose parent
    cannot, and a target that is a directory raise an ``OSError`` naming
    ``out_dir`` and the path, before any file is replaced.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        fd = os.open(out, os.O_RDONLY)
    except OSError as exc:  # a file at or above ``out``, say
        raise OSError(f"cannot use output directory {out}: {exc.strerror}") from None
    staged: list[tuple[Path, Path]] = []
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise OSError(f"output directory {out} is in use by another run") from None
        for name, chunks in files:
            path = out / name
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:  # a file where a directory goes
                raise _target_error(out, path.parent, exc.strerror) from None
            tmp = path.with_name(f".{path.name}.tmp")
            staged.append((tmp, path))
            with tmp.open("w", encoding="utf-8") as fh:
                # writelines drops each chunk before it takes the next
                fh.writelines(chunks)
        for _, path in staged:
            if path.is_dir() and not path.is_symlink():
                raise _target_error(out, path, "Is a directory")
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    finally:
        os.close(fd)
    return [path for _, path in staged]


def _target_error(out: Path, path: Path, reason: str) -> OSError:
    return OSError(f"cannot use output directory {out}: {path}: {reason}")


_FLOAT_MAX = sys.float_info.max


def is_int(value) -> bool:
    """A JSON integer: an int, not a bool."""
    return type(value) is int


def is_number(value) -> bool:
    """A real number, not a bool, that converts to a finite float (an
    integer beyond the float range does not). A type test, not a
    ``numbers.Real`` one, since it runs once per coordinate."""
    if isinstance(value, float):
        return math.isfinite(value)
    return type(value) is int and -_FLOAT_MAX <= value <= _FLOAT_MAX


class Kind(NamedTuple):
    name: str                     # the <kind> of the message
    read: Callable                # the typed value, or None if not of the kind
    column: Callable | None = None  # a list of values typed at once, or None


def _numbers(values: list) -> np.ndarray | None:
    """``values`` as one float64 array if each is a number (``is_number``),
    else None. Types are tested once per distinct type; the values numpy
    rounds to the float limit or past it are then tested one by one."""
    if not all(t is int or issubclass(t, float) for t in set(map(type, values))):
        return None
    try:
        a = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    edge = np.flatnonzero(~(np.abs(a) < _FLOAT_MAX))  # NaN and infinities too
    return a if all(is_number(values[k]) for k in edge) else None


def _strings(values: list) -> tuple | None:
    if all(issubclass(t, str) for t in set(map(type, values))):
        return tuple(values)
    return None


def _bools(values: list) -> np.ndarray | None:
    return np.array(values, dtype=bool) if set(map(type, values)) <= {bool} else None


def positions(values: list) -> np.ndarray | None:
    """``values`` as one n x 2 float64 array if each is a GeoJSON position:
    a list of at least two numbers (``is_number``), [x, y, ...], whose
    coordinates past the second are ignored. Else None."""
    if not all(issubclass(t, list) for t in set(map(type, values))):
        return None
    lengths = set(map(len, values))
    if lengths <= {2}:
        a = _numbers([c for v in values for c in v])
    elif min(lengths) >= 2:
        a = _numbers([c for v in values for c in v[:2]])
    else:
        return None
    return None if a is None else a.reshape(-1, 2)


def _pairs(values: list) -> np.ndarray | None:
    """``values`` as one n x 2 float64 array if each is an [x, y] pair."""
    if (all(issubclass(t, list) for t in set(map(type, values)))
            and set(map(len, values)) <= {2}):
        return positions(values)
    return None


def one_of(choices: tuple) -> Kind:
    return Kind(f"one of {choices}", lambda v: v if v in choices else None)


NUMBER = Kind("a number", lambda v: float(v) if is_number(v) else None, _numbers)
INTEGER = Kind("an integer", lambda v: v if is_int(v) else None)
STRING = Kind("a string", lambda v: v if isinstance(v, str) else None, _strings)
BOOL = Kind("true or false", lambda v: v if isinstance(v, bool) else None, _bools)
LIST = Kind("a list", lambda v: v if isinstance(v, list) else None)
OBJECT = Kind("an object", lambda v: v if isinstance(v, dict) else None)
XY = Kind("[x, y]", lambda v: (
    (float(v[0]), float(v[1]))
    if isinstance(v, list) and len(v) == 2 and is_number(v[0]) and is_number(v[1])
    else None), _pairs)
MODE = one_of(MODES)

_REQUIRED = object()


def mistyped(source: str, path: str, kind: Kind, value) -> Exception:
    """The error for a ``value`` at ``path`` that is not of ``kind``; an
    [x, y] pair of the right length names its bad coordinate."""
    if kind is XY and isinstance(value, list) and len(value) == 2:
        i = 1 if is_number(value[0]) else 0
        path, kind, value = f"{path}[{i}]", NUMBER, value[i]
    return _ERRORS[source](
        f"{source} field {path} must be {kind.name}, got {reprlib.repr(value)}")


def get(obj, key: str, kind: Kind, source: str, section: str = "",
        index: int | None = None, default=_REQUIRED):
    """``obj[key]`` as ``kind``, where ``obj`` is the object at
    ``section[index]`` ("" at the top level); ``default`` when the key is
    absent and a default is given."""
    try:
        value = obj[key]
    except (KeyError, TypeError):  # no such key, or ``obj`` is no object
        if default is not _REQUIRED and isinstance(obj, dict):
            return default
    else:
        value = kind.read(value)
        if value is not None:
            return value
    where = section if index is None else f"{section}[{index}]"
    if not isinstance(obj, dict):
        if not where:
            raise _ERRORS[source](f"{source} must be a JSON object")
        raise mistyped(source, where, OBJECT, obj)
    path = f"{where}.{key}" if where else key
    if key not in obj:
        raise _ERRORS[source](f"{source} field {path} is missing")
    raise mistyped(source, path, kind, obj[key])


def columns(rows: list, kinds: dict[str, Kind], source: str, section: str,
            defaults: dict | None = None) -> list:
    """``row[key]`` of every object in ``rows``, one column per ``key: kind``
    of ``kinds``, typed at once by ``kind.column``: a tuple of strings, a
    float64 array of numbers, a bool array, an n x 2 float64 array of [x, y]
    pairs. A row without a key of ``defaults`` reads its default. A column
    test accepts exactly what ``get`` accepts, so the rows are read one by
    one with ``get``, in row order, only when a column fails, to raise the
    first bad field's error."""
    defaults = defaults or {}
    out = []
    for key, kind in kinds.items():
        try:
            values = ([row[key] for row in rows] if key not in defaults
                      else [row.get(key, defaults[key]) for row in rows])
        except (KeyError, TypeError, AttributeError):  # no key, or no object
            break
        out.append(kind.column(values))
        if out[-1] is None:
            break
    else:
        return out
    for i, row in enumerate(rows):
        for key, kind in kinds.items():
            get(row, key, kind, source, section, i, default=defaults.get(key, _REQUIRED))
    raise AssertionError(f"a column of {section} failed but every field reads")
