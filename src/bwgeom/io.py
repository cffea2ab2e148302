"""Matrix and manifest files plus deterministic report rendering.

Matrix files are plain text: one row per line, comma-separated decimals,
``#`` starts a comment.  Files written here use 17 significant digits, so
every matrix the tool writes re-parses to bit-identical doubles.  The writer
accepts only what the reader accepts back: a nonempty, finite, square matrix,
symmetric to within ``SYMMETRY_RTOL``.  It streams the file one row at a
time, formats each row's upper triangle with one C-level ``%`` and mirrors
those strings into the rows below, so each symmetric entry is formatted once.
Reports are JSON documents with sorted keys and the same fixed float
formatting, making byte-identical output a function of the inputs alone;
float vectors are formatted with one ``%`` per vector.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, MatrixParseError
from .spectral import symmetrize

# Relative asymmetry allowed in an input matrix before it is rejected.
SYMMETRY_RTOL = 1e-9
# Fixed 17-significant-digit decimal form; round-trips every double and gives
# the same text as ``format(x, ".17g")``.
FLOAT_FORMAT = "%.17g"


def _asymmetric_entry(a: np.ndarray) -> tuple[int, int] | None:
    """Position of the largest asymmetry of a square array when it exceeds
    ``SYMMETRY_RTOL`` relative to the largest entry, else ``None``."""
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    gap = a - a.T
    np.abs(gap, out=gap)
    if float(gap.max(initial=0.0)) <= SYMMETRY_RTOL * scale:
        return None
    i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return int(i), int(j)


def read_matrix(path) -> np.ndarray:
    """Parse a symmetric matrix file; returns the symmetrized array."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw_lines = f.readlines()
    except OSError as e:
        raise MatrixParseError(path, str(e)) from e
    rows: list[tuple[int, list[float]]] = []
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            entries = list(map(float, line.split(",")))
        except ValueError:
            entries = [math.nan]
        if not math.isfinite(sum(entries)):
            # Again entry by entry, to name the bad column; a finite row whose sum overflows passes.
            entries = []
            for colno, part in enumerate(line.split(","), 1):
                text = part.strip()
                try:
                    x = float(text)
                except ValueError:
                    raise MatrixParseError(path, f"not a number: {text!r}", row=lineno, col=colno) from None
                if not math.isfinite(x):
                    raise MatrixParseError(path, f"non-finite entry {text!r}", row=lineno, col=colno)
                entries.append(x)
        rows.append((lineno, entries))
    if not rows:
        raise MatrixParseError(path, "no matrix rows found")
    width = len(rows[0][1])
    for lineno, entries in rows:
        if len(entries) != width:
            raise MatrixParseError(path, f"row has {len(entries)} entries, expected {width}", row=lineno)
    a = np.array([entries for _, entries in rows], dtype=np.float64)
    if a.shape[0] != a.shape[1]:
        raise MatrixParseError(path, f"matrix is {a.shape[0]}x{a.shape[1]}, expected square")
    at = _asymmetric_entry(a)
    if at is not None:
        i, j = at
        raise MatrixParseError(
            path,
            f"asymmetric beyond tolerance at ({i + 1}, {j + 1}): "
            f"{float(a[i, j])!r} vs {float(a[j, i])!r}",
            row=rows[i][0],
            col=j + 1,
        )
    return symmetrize(a)


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form; round-trips every double."""
    return FLOAT_FORMAT % float(x)


def _atomic_write(path, chunks) -> None:
    """Write the text chunks to a temp file beside ``path``, then rename it."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bwgeom-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _symmetric_rows(m: np.ndarray):
    """Yield the text lines of a symmetric matrix, formatting each entry once.

    Line i formats ``m[i, i:]`` with one ``%``.  The strings right of its
    diagonal are kept in reverse, so that line j pops entry (i, j) as its
    column-i entry; at most about n²/4 strings are held at once.
    """
    pending: list[list[str]] = []
    for i in range(m.shape[0]):
        upper = m[i, i:].tolist()
        text = ",".join([FLOAT_FORMAT] * len(upper)) % tuple(upper)
        line = [p.pop() for p in pending]
        pending.append(text.split(",")[:0:-1])
        line.append(text)
        yield ",".join(line) + "\n"


def write_matrix(path, a) -> None:
    """Write a symmetric matrix file atomically (temp file plus rename).

    Raises ``ValueError`` for what ``read_matrix`` would refuse: an empty or
    non-square array, non-finite entries, or asymmetry beyond
    ``SYMMETRY_RTOL``.  Within that
    tolerance the upper triangle is written and mirrored.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"cannot write a {m.shape} array as a matrix file: expected nonempty square")
    if not np.isfinite(m).all():
        raise ValueError("cannot write a matrix with non-finite entries")
    at = _asymmetric_entry(m)
    if at is not None:
        i, j = at
        raise ValueError(
            f"cannot write an asymmetric matrix: ({i + 1}, {j + 1}) is "
            f"{float(m[i, j])!r} vs {float(m[j, i])!r}"
        )
    _atomic_write(path, _symmetric_rows(m))


@dataclass(frozen=True)
class Manifest:
    """Ordered list of operator files with optional labels.

    ``operators`` keeps the paths exactly as written; ``resolved`` are the
    same paths joined against the manifest's directory.
    """

    operators: list[str]
    labels: list[str] | None
    resolved: list[str]


def read_manifest(path) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise MatrixParseError(path, str(e)) from e
    except json.JSONDecodeError as e:
        raise MatrixParseError(path, f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise MatrixParseError(path, "manifest must be a JSON object")
    ops = doc.get("operators")
    if not isinstance(ops, list) or not ops:
        raise MatrixParseError(path, "manifest needs a nonempty 'operators' list")
    if not all(isinstance(p, str) for p in ops):
        raise MatrixParseError(path, "'operators' entries must be path strings")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise MatrixParseError(path, "'labels' must be a list of strings")
        if len(labels) != len(ops):
            raise MatrixParseError(
                path, f"{len(labels)} labels for {len(ops)} operators"
            )
    base = os.path.dirname(os.path.abspath(path))
    resolved = [p if os.path.isabs(p) else os.path.join(base, p) for p in ops]
    return Manifest(operators=list(ops), labels=list(labels) if labels else None, resolved=resolved)


def load_family(manifest: Manifest) -> list[np.ndarray]:
    """Read all operator files of a manifest and check matching dimensions."""
    mats = [read_matrix(p) for p in manifest.resolved]
    d = mats[0].shape[0]
    for name, m in zip(manifest.operators, mats):
        if m.shape[0] != d:
            raise DimMismatchError(
                f"operator {name!r} is {m.shape[0]}x{m.shape[0]}, expected {d}x{d}"
            )
    return mats


def write_manifest(path, operators: list[str], labels: list[str] | None = None) -> None:
    doc: dict = {"operators": list(operators)}
    if labels is not None:
        doc["labels"] = list(labels)
    _atomic_write(path, [json.dumps(doc, sort_keys=True, indent=2) + "\n"])


@dataclass
class Report:
    """The single structured document every command emits on stdout."""

    command: str
    inputs: dict
    results: dict
    diagnostics: dict
    version: str

    def to_mapping(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "diagnostics": self.diagnostics,
            "version": self.version,
        }


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_render(obj[k], indent + 1)}"
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if (
        isinstance(obj, np.ndarray)
        and obj.ndim == 1
        and obj.dtype.kind == "f"
        and obj.size
        and np.isfinite(obj).all()
    ):
        # One % over the whole vector; non-finite entries take the per-item
        # path below, which renders them as null.
        body = (",\n" + inner).join([FLOAT_FORMAT] * obj.size) % tuple(obj.tolist())
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [f"{inner}{_render(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN/inf literals; non-finite diagnostics become null.
        return format_float(float(obj)) if math.isfinite(obj) else "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


def render_report(report: Report) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting."""
    return _render(report.to_mapping(), 0) + "\n"
