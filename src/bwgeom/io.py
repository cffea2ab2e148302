"""Matrix and manifest files plus deterministic report rendering.

Matrix files are plain text: one row per line, comma-separated decimals,
``#`` starts a comment.  A family of them is one ``np.loadtxt`` parse, which
rounds like ``float()`` (both call CPython's correctly rounded dtoa); files
it refuses, comments for one, are read one by one, entry by entry, to name
the first fault; either returns the entries as written.  Files written here
use 17 significant digits, so every matrix the tool writes re-parses to
bit-identical doubles.  The writer accepts only what the reader accepts back:
nonempty, finite, square matrices, symmetric to within ``SYMMETRY_RTOL``, or a
``JointCovariance``.  ``write_matrices`` writes a stack, as ``read_matrix`` reads a list,
checking every member before it replaces any file; the upper triangles of as many files
as fit in ``_BLOCK`` entries take one kernel call into one table of fixed-width cells.
``write_matrix`` writes an array through it, or a joint by row tiles from its factor,
so the table alone sets the peak memory.  Each block of a file's lines, mirrored below
the diagonal, is gathered into one reused buffer.  Reports are JSON documents with sorted
keys and the same fixed float formatting, collected as a list of pieces and joined once,
making byte-identical output a function of the inputs alone.

Float arrays in files and reports are formatted by one numpy kernel that gives
exactly the text of ``FLOAT_FORMAT % x`` for each entry.  In its fast range,
``1e-4 <= |x| < 1e17`` and zero, it finds the decimal exponent k and the 17
significant digits in exact arithmetic: ``10**(16 - k)`` is an exact double,
Dekker's two-product gives ``|x| * 10**(16 - k)`` as an exact sum of two
doubles, and the digits round half to even as in correctly rounded ``dtoa``.
Other entries, and arrays of fewer than ``_CROSSOVER`` entries, go through one
``FLOAT_FORMAT %`` call.  Each text fills a cell padded with NUL bytes and
ending in a separator byte: a comma or newline in a matrix file, in a report
1 + the number of JSON lists that close after the entry.  A file's bytes are
written once one ``bytearray.translate`` deletes the padding; in a report one
``str.replace`` per nesting level then writes out each separator byte's text.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .errors import DimMismatchError, EmptyFamilyError, MatrixParseError

# Relative asymmetry allowed in an input matrix before it is rejected.
SYMMETRY_RTOL = 1e-9
# Fixed 17-significant-digit decimal form; round-trips every double and gives
# the same text as ``format(x, ".17g")``.
FLOAT_FORMAT = "%.17g"

# FLOAT_FORMAT left-justified in 24 columns, the longest text it gives
# ("-1.2345678901234567e-308"); the kernel's fallback.
_PADDED_FORMAT = "%-24.17g"
# A formatted cell: 24 text bytes padded with NUL or space, then a separator.
_CELL = 25
_PADDING = b"\0 "
# Below this many entries one FLOAT_FORMAT % call is faster than the kernel,
# whose hundred-odd numpy calls cost about 130 us per call (measured
# crossover: 256 to 320 entries).
_CROSSOVER = 300
# Entries per kernel call, over which its hundred-odd numpy calls amortize, and
# cells per written block of lines; kernel temporaries take ~130 bytes per entry.
_BLOCK = 16384
# Veltkamp's splitting constant 2**27 + 1 for Dekker's two-product.
_SPLIT = 134217729.0
_U64 = np.uint64
_ASCII_ZEROS = _U64(0x3030303030303030)


def _asymmetric_entry(a: np.ndarray) -> tuple[int, int, int] | None:
    """Member, row and column of the largest asymmetry of the first member of a stack
    (n, d, d) whose asymmetry exceeds ``SYMMETRY_RTOL`` relative to its largest entry, else ``None``."""
    with np.errstate(over="ignore"):  # an infinite gap is asymmetric
        gap = a - np.swapaxes(a, 1, 2)
    np.abs(gap, out=gap)
    bad = np.flatnonzero(gap.max(axis=(1, 2)) > SYMMETRY_RTOL * np.abs(a).max(axis=(1, 2)))
    if not bad.size:
        return None
    i, j = np.unravel_index(int(np.argmax(gap[bad[0]])), gap.shape[1:])
    return int(bad[0]), int(i), int(j)


def _parse(paths) -> np.ndarray | None:
    """The (n, d, d) stack of the files from one ``np.loadtxt`` over their
    joined text (one string: a list of line strings raised the later peak
    RSS), or ``None`` where it refuses them (see ``read_matrix``)."""
    texts = []
    try:
        for path in paths:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
            text += "" if text.endswith("\n") else "\n"
            # As many lines as the first has entries; a blank line, which loadtxt skips, fails the
            # reshape, and a blank first one is refused here (blank lines alone make loadtxt warn).
            if text[0] == "\n" or text.count("\n") != text[: text.index("\n")].count(",") + 1:
                return None
            texts.append(text)
        a = np.loadtxt(StringIO("".join(texts)), delimiter=",", comments=None, ndmin=2)
        a = a.reshape(len(paths), a.shape[1], a.shape[1])
    except (OSError, ValueError):
        return None
    return a if np.isfinite(a).all() and _asymmetric_entry(a) is None else None


def _read_one(path) -> np.ndarray:
    """Parse one symmetric matrix file entry by entry, naming the first fault."""
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
    at = _asymmetric_entry(a[None])
    if at is not None:
        _, i, j = at
        raise MatrixParseError(
            path,
            f"asymmetric beyond tolerance at ({i + 1}, {j + 1}): "
            f"{float(a[i, j])!r} vs {float(a[j, i])!r}",
            row=rows[i][0],
            col=j + 1,
        )
    return a


def read_matrix(path) -> np.ndarray:
    """Parse a symmetric matrix file into its (d, d) array of entries as written,
    or a list of files into their (n, d, d) stack, by one ``np.loadtxt`` over all
    of them; validation (``spectral.as_symmetric``) makes them symmetric.  Where it
    refuses them (a blank or comment line, a token it cannot read but ``float()``
    may, a non-square, non-finite or asymmetric member, or members of different
    dimensions), ``_read_one`` reads them one by one and raises the first fault;
    then a member whose dimension is not the first's is a ``DimMismatchError``."""
    family = isinstance(path, (list, tuple))
    paths = list(path) if family else [path]
    if not paths:
        raise EmptyFamilyError("no matrix files to read")
    stack = _parse(paths)
    if stack is None:
        mats = [_read_one(p) for p in paths]
        d = len(mats[0])
        for p, m in zip(paths, mats):
            if len(m) != d:
                raise DimMismatchError(f"operator {p!r} is {len(m)}x{len(m)}, expected {d}x{d}")
        stack = np.stack(mats)
    return stack if family else stack[0]


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form; round-trips every double."""
    return FLOAT_FORMAT % float(x)


def _atomic_write(path, chunks) -> None:
    """Write the byte chunks to a new file beside ``path``, its mode set by the umask, then rename
    it; an ``OSError`` is a ``MatrixParseError`` naming ``path``."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".bwgeom-{os.urandom(8).hex()}.tmp")
    try:
        f = open(tmp, "xb")
        try:
            with f:
                f.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise MatrixParseError(path, str(e)) from e


@functools.cache
def _tables():
    """The kernel's lookup tables, built on first use.

    ``digits[v]`` holds the four ASCII digits of ``v < 10**4`` in its four low
    bytes, first digit lowest.  Column ``(k + 4) * 17 + last`` of ``whole``,
    ``frac`` and ``fixed`` (each 3 x 357) describes the cell of an entry with
    decimal exponent k in [-4, 16] whose last nonzero digit has index ``last``
    in [0, 16], as three little-endian words (``_cells`` gives the layout): the
    bytes that take integer digits, the bytes that take fraction digits, and
    the fixed bytes, "0." and leading zeros or the decimal point.
    """
    v = np.arange(10**4)
    digits = sum(((v // 10 ** (3 - i) % 10) + 48).astype(_U64) << _U64(8 * i) for i in range(4))
    k = np.repeat(np.arange(-4, 17), 17)[:, None]
    last = np.tile(np.arange(17), 21)[:, None]
    b = np.arange(24)
    whole = (k >= 0) & (1 <= b) & (b <= k + 1)
    frac = (np.where(k >= 0, k + 7, 6) <= b) & (b <= last + 6)
    fixed = np.where((k >= 0) & (last > k) & (b == k + 2), ord("."), 0)
    for e in range(-4, 0):
        text = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
        fixed[(k[:, 0] == e), 6 - text.size : 6] = text
    words = lambda mask: np.ascontiguousarray(mask.astype(np.uint8).view(_U64).T)
    return digits, words(whole * 255), words(frac * 255), words(fixed)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into halves of at most 26 bits, ``a = hi + lo``."""
    hi = a * _SPLIT
    hi -= hi - a
    return hi, a - hi


# 10**p for 0 <= p <= 20, exact doubles, and their halves.
_POW10 = np.array([float(10**p) for p in range(21)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(y, e)`` with ``y = fl(a * 10**p)`` and ``a * 10**p = y + e`` exactly,
    for ``0 <= p <= 20`` (Dekker's two-product; ``10**p`` is an exact double)."""
    y = a * np.take(_POW10, p)
    ah, al = _split(a)
    bh, bl = np.take(_POW10_HI, p), np.take(_POW10_LO, p)
    e = ah * bh
    e -= y
    e += ah * bl
    e += al * bh
    e += al * bl
    return y, e


def _shift_right(w: np.ndarray, i: int, s: int) -> np.ndarray:
    """Word i of the 192-bit little-endian numbers in the columns of ``w``
    (3 x n words) shifted right by ``0 < s < 64`` bits."""
    word = w[i] >> _U64(s)
    if i < 2:
        word |= w[i + 1] << _U64(64 - s)
    return word


def _fixed_point_words(a: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The cell words (3 x n) of magnitudes in the fast range or zero."""
    digits, whole, frac, fixed = _tables()
    # A zero takes k = 0 and seventeen zero digits, which make the text "0".
    zero = a == 0.0
    k = np.clip(np.floor(np.log10(np.where(zero, 1.0, a))), -4, 16).astype(np.intp)
    # y = a * 10**(16 - k) = ph + err exactly.  log10 may put k one off near a
    # power of ten; the exact test 1e16 <= y < 1e17 finds those entries (the
    # differences to 1e16 and 1e17 are exact where they decide the sign).
    ph, err = _times_pow10(a, 16 - k)
    while True:
        low = (ph - 1e16) + err < 0.0
        off = np.flatnonzero((low & ~zero) | ((ph - 1e17) + err >= 0.0))
        if not off.size:
            break
        k[off] += np.where(low[off], -1, 1)
        ph[off], err[off] = _times_pow10(a[off], 16 - k[off])
    # ph >= 2**53 is an even integer and |err| <= 8, so rounding err half to
    # even rounds y half to even: m holds the 17 significant digits.  It
    # stays below 10**17: the largest double under each power of ten in the
    # range lies at least 8 units of the 17th digit below it.
    m = ph.astype(np.int64) + np.rint(err).astype(np.int64)
    del ph, err
    # The digits d0..d16 as 192-bit strings, d0 in byte 7 of the first word
    # and eight digits in each of the other two.
    lead = m // 10**16
    m -= lead * 10**16
    g = np.empty((2, m.size), np.int64)
    np.floor_divide(m, 10**8, out=g[0])
    np.subtract(m, g[0] * 10**8, out=g[1])
    del m
    q = g // 10**4
    g -= q * 10**4
    w = np.empty((3, g.shape[1]), _U64)
    w[0] = (lead + 48).astype(_U64) << _U64(56)
    w[1:] = np.take(digits, g)
    w[1:] <<= _U64(32)
    w[1:] |= np.take(digits, q)
    del lead, g, q
    # Byte index of the highest nonzero digit of each word, read from the
    # exponent of the word of digit values as a float (every byte is below 16,
    # so rounding to 53 bits cannot carry into the next byte); -128 for none.
    top = ((((w[1:] ^ _ASCII_ZEROS).astype(np.float64).view(np.int64) >> 52) + 1) >> 3) - 128
    column = (k + 4) * 17 + np.maximum(np.maximum(top[1] + 9, top[0] + 1), 0)
    del k, top
    cell = np.take(fixed, column, axis=1)
    cell[0] |= negative.astype(_U64) * _U64(ord("-"))
    for i in range(3):
        cell[i] |= _shift_right(w, i, 48) & np.take(whole[i], column)
        cell[i] |= _shift_right(w, i, 8) & np.take(frac[i], column)
    return cell


def _cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write the ``FLOAT_FORMAT`` text of each entry of a float64 vector into
    the first 24 bytes of the matching row of ``out`` (shape ``(n, _CELL)``).

    A cell's text reads in byte order once ``_PADDING`` is deleted.  In the
    fast range, byte 0 holds the sign; digit d_j of the 17 sits in byte 1 + j
    when it belongs to the integer part (j <= k) and in byte 6 + j when it
    belongs to the fraction; the decimal point sits in byte k + 2, or, for
    k < 0, "0." and -k - 1 zeros end at byte 5.  Trailing zeros of the
    fraction, and a point with no fraction after it, are left out.
    """
    rest = slice(None)
    if x.size >= _CROSSOVER:
        a = np.abs(x)
        slow = (a >= 1e17) | ((a < 1e-4) & (a != 0.0))
        if not slow.all():
            # Entries outside the fast range are formatted as zeros here and
            # overwritten below.
            a[slow] = 0.0
            out[:, :24].view(_U64)[...] = _fixed_point_words(a, np.signbit(x)).T
            rest = np.flatnonzero(slow)
    values = x[rest].tolist()
    if values:
        text = (_PADDED_FORMAT * len(values)) % tuple(values)
        out[rest, :24] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(len(values), 24)


def _format_cells(x: np.ndarray, out: np.ndarray) -> None:
    """``_cells`` over a vector of any length, ``_BLOCK`` entries at a time."""
    for s in range(0, x.size, _BLOCK):
        _cells(x[s : s + _BLOCK], out[s : s + _BLOCK])


def _line_blocks(n: int):
    """The index that gathers an n x n file's lines from its table of upper cells, in blocks of
    at most ``_BLOCK`` cells (at least one line), the first the largest: line i takes the cells of
    entries ``(min(i, j), max(i, j))``, so entry (j, i) below the diagonal repeats the text of (i, j)."""
    cols = np.arange(n)
    start = cols * n - cols * (cols + 1) // 2
    step = min(n, max(1, _BLOCK // n))
    for i in np.split(cols[:, None], range(step, n, step)):
        yield start[np.minimum(i, cols)] + np.maximum(i, cols)


def _lines(table: np.ndarray, blocks):
    """Yield the bytes of a file from its table, a block of lines per index block, through one buffer."""
    buf = bytearray()
    for index in blocks:
        buf = buf or bytearray(index.size * _CELL)
        lines = np.frombuffer(buf, np.uint8, index.size * _CELL).reshape(*index.shape, _CELL)
        np.take(table, index, 0, lines, "clip")  # unbuffered
        lines[:, -1, -1] = ord("\n")
        yield (buf if lines.nbytes == len(buf) else buf[: lines.nbytes]).translate(None, _PADDING)


def _symmetric_rows(n: int, tiles):
    """Yield the bytes of a symmetric n x n matrix file in blocks of whole lines.

    ``tiles`` are pairs ``(r0, t)``, t the next rows from column r0 on.  Their
    upper triangles, checked to be finite, are formatted into a table of cells
    in ``np.triu_indices`` order: (i, j), i <= j, is cell ``start[i] + j``.
    """
    cols = np.arange(n)
    start = cols * n - cols * (cols + 1) // 2
    table = np.empty((n * (n + 1) // 2, _CELL), np.uint8)
    table[:, -1] = ord(",")
    for r0, t in tiles:
        upper = t[cols[: len(t), None] <= cols[: n - r0]]
        if not np.isfinite(upper).all():
            raise ValueError("cannot write a matrix with non-finite entries")
        _format_cells(upper, table[start[r0] + r0 :][: upper.size])
    yield from _lines(table, _line_blocks(n))


def write_matrices(paths, stack) -> None:
    """Write a stack (n, d, d) to n files as ``write_matrix`` writes each.  Every member is checked
    before any file is replaced, and a fault names the first bad member's path.  The upper triangles
    of as many whole files as fit in ``_BLOCK`` entries (at least one) take one ``_format_cells`` call."""
    m = np.asarray(stack, dtype=np.float64)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or not m.size or len(m) != len(paths):
        raise ValueError(f"cannot write a {m.shape} stack as {len(paths)} matrix files: expected nonempty squares")
    finite = np.isfinite(m).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"cannot write a matrix with non-finite entries to {paths[int(np.argmin(finite))]}")
    at = _asymmetric_entry(m)
    if at is not None:
        k, i, j = at
        bad = f"({i + 1}, {j + 1}) is {float(m[k, i, j])!r} vs {float(m[k, j, i])!r}"
        raise ValueError(f"cannot write an asymmetric matrix to {paths[k]}: {bad}")
    d = m.shape[1]
    files = max(1, _BLOCK // (d * (d + 1) // 2))
    # Lines that fit one block share one index; larger files build theirs per block, never d * d at once.
    shared = list(_line_blocks(d)) if d * d <= _BLOCK else None
    for g in range(0, len(m), files):
        cells = m[g : g + files, np.tri(d, dtype=bool).T]
        table = np.empty((cells.size, _CELL), np.uint8)
        table[:, -1] = ord(",")
        _format_cells(cells.ravel(), table)
        for path, t in zip(paths[g : g + files], table.reshape(len(cells), -1, _CELL)):
            _atomic_write(path, _lines(t, shared or _line_blocks(d)))


def write_matrix(path, a) -> None:
    """Write a symmetric matrix file atomically (temp file plus rename).

    ``a`` is a square array, written as ``write_matrices([path], a[None])``, or a
    ``JointCovariance``, written from its ``upper_tiles``.  Raises ``ValueError`` for
    what ``read_matrix`` would refuse: an empty or non-square array, non-finite entries,
    or asymmetry beyond ``SYMMETRY_RTOL``, within which the upper triangle is mirrored;
    a file it cannot write is a ``MatrixParseError``.
    """
    if hasattr(a, "upper_tiles"):
        return _atomic_write(path, _symmetric_rows(a.n * a.dim, a.upper_tiles()))
    write_matrices([path], np.asarray(a, dtype=np.float64)[None])


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


def write_manifest(path, operators: list[str], labels: list[str] | None = None) -> None:
    doc: dict = {"operators": list(operators)}
    if labels is not None:
        doc["labels"] = list(labels)
    _atomic_write(path, [(json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")])


def _pieces(obj, indent: int):
    """The JSON text of ``obj``, nested ``indent`` levels deep, as a sequence of pieces."""
    if isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind == "f" and obj.size and np.isfinite(obj).all():
        # One kernel call over the array; non-finite entries take the per-item path, rendered as null.
        yield from _float_pieces(obj, indent)
    elif isinstance(obj, (dict, list, tuple, np.ndarray)):
        if isinstance(obj, dict):
            brackets, items = "{}", [(f"{json.dumps(str(k))}: ", obj[k]) for k in sorted(obj, key=str)]
        else:
            brackets, items = "[]", [("", v) for v in obj]
        inner = "\n" + "  " * (indent + 1)
        for n, (key, value) in enumerate(items):
            yield ("," if n else brackets[0]) + inner + key
            yield from _pieces(value, indent + 1)
        yield "\n" + "  " * indent + brackets[1] if items else brackets
    elif isinstance(obj, (bool, np.bool_)):
        yield "true" if obj else "false"
    elif obj is None:
        yield "null"
    elif isinstance(obj, (float, np.floating)):
        # JSON has no NaN/inf literals; non-finite diagnostics become null.
        yield format_float(float(obj)) if math.isfinite(obj) else "null"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, str):
        yield json.dumps(obj)
    else:
        raise TypeError(f"cannot render {type(obj).__name__} in a report")


def _float_pieces(a: np.ndarray, indent: int) -> list[str]:
    """Nested JSON lists of a finite float array in three pieces: the opening
    brackets, the entries with the text between them, the closing brackets.
    Separator byte 1 + c stands for the text between an entry after which c
    lists close and the next entry; the last entry's is padding."""
    down = ["\n" + "  " * (indent + q) for q in range(a.ndim + 1)]
    opening = lambda c: "".join(down[q] + "[" for q in range(a.ndim - c, a.ndim))
    closing = lambda c: "".join(down[q] + "]" for q in reversed(range(a.ndim - c, a.ndim)))
    buf = bytearray(a.size * _CELL)
    cells = np.frombuffer(buf, np.uint8).reshape(a.size, _CELL)
    cells[:-1, -1] = 1  # the last entry's separator stays a zero, padding
    for width in (math.prod(a.shape[q:]) for q in range(1, a.ndim)):
        cells[width - 1 : -1 : width, -1] += 1
    _format_cells(a.astype(np.float64).ravel(), cells)
    text = buf.translate(None, _PADDING).decode("ascii")
    for c in range(a.ndim):
        text = text.replace(chr(1 + c), closing(c) + "," + opening(c) + down[-1])
    return ["[" + opening(a.ndim - 1) + down[-1], text, closing(a.ndim)]


def render_report(report: dict) -> str:
    """Deterministic JSON text of a report mapping: sorted keys, fixed float
    formatting, its pieces joined once."""
    return "".join([*_pieces(report, 0), "\n"])
