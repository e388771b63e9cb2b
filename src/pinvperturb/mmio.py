"""Matrix Market reader and writer.

Supports the dense "array" and sparse "coordinate" formats with "real" and
"complex" fields and "general" symmetry. Values are written with 17
significant digits so a write/read round trip is bit-exact for binary64.

A well-formed file is parsed in bulk: one byte-level numpy pass counts the
tokens on each line, every value is parsed into one array, and coordinate
indices are range-checked and duplicates accumulated (in file order) as
arrays. A block of ``%`` comment lines right after the banner, such as
``scipy.io.mmwrite`` writes, is skipped. Anything else the bulk pass does
not accept -- a comment further down, non-ASCII text, a malformed or
out-of-range token, a wrong count -- is handed to a line-by-line scanner, which returns the same matrix or raises the
:class:`MatrixMarketError` that names the offending line. Non-finite values
(``nan``, ``inf``, ``1e400``) are refused on reading as on writing.

The field decides the dtype of the matrix read, on both paths: float64 for
a ``real`` file and complex128 for a ``complex`` one, even when every
imaginary part is zero.
"""

import math
import os

import numpy as np

from .errors import MatrixMarketError
from .linalg import as_matrix

_BANNER = "%%matrixmarket"
_DTYPES = {"real": np.float64, "complex": np.complex128}

# The ASCII control characters that end a line for str.splitlines, and those
# that str.split treats as whitespace; the only other one is the space, 32
_IS_BREAK = np.zeros(32, dtype=bool)
_IS_BREAK[list(b"\n\r\v\f\x1c\x1d\x1e")] = True
_IS_SPACE = _IS_BREAK.copy()
_IS_SPACE[list(b"\t\x1f")] = True


def _parse_float(token: str, path, lineno) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MatrixMarketError(
            f"non-numeric token {token!r}", path=path, line=lineno
        ) from None
    if not math.isfinite(value):
        raise MatrixMarketError(f"non-finite value {token!r}", path=path, line=lineno)
    return value


def _parse_value(tokens, field, path, lineno):
    """The value of an entry's value tokens: a float, or a complex number."""
    re = _parse_float(tokens[0], path, lineno)
    return complex(re, _parse_float(tokens[1], path, lineno)) if field == "complex" else re


def _parse_index(token: str, path, lineno) -> int:
    try:
        return int(token)
    except ValueError:
        raise MatrixMarketError(
            f"non-numeric token {token!r} where an index was expected",
            path=path,
            line=lineno,
        ) from None


def _parse_size(tokens, count, path, lineno):
    if len(tokens) != count:
        raise MatrixMarketError(
            f"size line must have {count} integers, got {len(tokens)} tokens",
            path=path,
            line=lineno,
        )
    values = [_parse_index(tok, path, lineno) for tok in tokens]
    if values[0] < 1 or values[1] < 1:
        raise MatrixMarketError(
            f"matrix dimensions must be positive, got {values[0]} x {values[1]}",
            path=path,
            line=lineno,
        )
    if count == 3 and values[2] < 0:
        raise MatrixMarketError(
            f"entry count must be non-negative, got {values[2]}", path=path, line=lineno
        )
    return values


def _zeros(rows, cols, field, path, lineno):
    """The dense matrix of ``field`` a size line names, refused at that line if
    numpy cannot allocate it."""
    try:
        return np.zeros((rows, cols), dtype=_DTYPES[field])
    except (ValueError, MemoryError):
        raise MatrixMarketError(
            f"cannot allocate a {rows} x {cols} matrix", path=path, line=lineno
        ) from None


def _header(text: str, path):
    """Check the banner line; return (format, field, text after line 1).

    The text is None when a break other than "\n" ends line 1 and more text
    follows before the first "\n"; only the scanner splits such a file.
    """
    head, _, body = text.partition("\n")
    head_lines = head.splitlines() or [""]
    header = head_lines[0].split()
    if len(header) != 5 or header[0].lower() != _BANNER:
        raise MatrixMarketError(
            "malformed header: expected"
            " '%%MatrixMarket matrix <format> <field> <symmetry>'",
            path=path,
            line=1,
        )
    obj, fmt, field, symmetry = (w.lower() for w in header[1:])
    if obj != "matrix":
        raise MatrixMarketError(f"unsupported object {obj!r}", path=path, line=1)
    if fmt not in ("array", "coordinate"):
        raise MatrixMarketError(
            f"unsupported format {fmt!r} (only 'array' and 'coordinate')",
            path=path,
            line=1,
        )
    if field not in ("real", "complex"):
        raise MatrixMarketError(
            f"unsupported field {field!r} (only 'real' and 'complex')",
            path=path,
            line=1,
        )
    if symmetry != "general":
        raise MatrixMarketError(
            f"unsupported symmetry class {symmetry!r} (only 'general')",
            path=path,
            line=1,
        )
    return fmt, field, body if len(head_lines) == 1 else None


def _line_widths(body: str):
    """Token counts of the non-blank lines of an ASCII ``body``, in order.

    None when a control character other than whitespace occurs, since
    str.split keeps it inside a token.
    """
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    space = b <= 32
    controls = np.flatnonzero(b < 32)
    kinds = b[controls]
    if not np.all(_IS_SPACE[kinds]):
        return None
    breaks = controls[_IS_BREAK[kinds]]
    starts = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))
    # tokens started before each break, differenced into tokens per line
    widths = np.diff(np.searchsorted(starts, breaks), prepend=0, append=starts.size)
    return widths[widths > 0]


def _skip_comments(body: str) -> str | None:
    """``body`` after its leading ``%`` lines, each ended by its "\n".

    None when such a line holds another line break, after which the scanner
    would read a line that is not a comment.
    """
    start = 0
    while body.startswith("%", start):
        end = body.find("\n", start) + 1 or len(body)
        if len(body[start:end].splitlines()) > 1:
            return None
        start = end
    return body[start:]


def _read_bulk(body: str | None, fmt: str, field: str):
    """Parse a well-formed body in whole-array passes.

    Returns None for anything it does not accept, a body of None included;
    the scanner then decides, so this path never reports an error itself.
    """
    if body is not None:
        body = _skip_comments(body)
    if body is None or "%" in body or not body.isascii():
        return None
    per_value = 1 if field == "real" else 2
    size_width, entry_width = (2, per_value) if fmt == "array" else (3, 2 + per_value)
    widths = _line_widths(body)
    if widths is None or not widths.size:
        return None
    if widths[0] != size_width or np.any(widths[1:] != entry_width):
        return None
    tokens = body.split()
    try:
        size = [int(tok) for tok in tokens[:size_width]]
    except ValueError:
        return None
    rows, cols = size[0], size[1]
    count = rows * cols if fmt == "array" else size[2]
    if rows < 1 or cols < 1 or count != widths.size - 1:
        return None
    entries = tokens[size_width:]
    if fmt == "array":
        value_tokens = entries
    else:
        value_tokens = [None] * (count * per_value)
        for k in range(per_value):
            value_tokens[k::per_value] = entries[2 + k :: entry_width]
    try:
        # float() itself, as in the scanner; numpy's str->int64 conversion has
        # int() semantics ("1_0" passes, "1.0" does not) and raises on overflow
        values = np.fromiter(map(float, value_tokens), np.float64, len(value_tokens))
        if fmt == "coordinate":
            i = np.array(entries[0::entry_width], dtype=np.int64)
            j = np.array(entries[1::entry_width], dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if not np.all(np.isfinite(values)):
        return None
    # viewing re/im pairs as complex keeps every part bit-exact, -0.0 included
    flat = values.view(_DTYPES[field])
    if fmt == "array":
        return np.ascontiguousarray(flat.reshape(cols, rows).T)
    if np.any((i < 1) | (i > rows) | (j < 1) | (j > cols)):
        return None
    try:
        mat = _zeros(rows, cols, field, None, None)
    except MatrixMarketError:
        return None
    with np.errstate(over="ignore"):
        np.add.at(mat, (i - 1, j - 1), flat)
    return mat if np.all(np.isfinite(mat)) else None


def _scan(lines, fmt: str, field: str, path) -> np.ndarray:
    """Parse the lines after the header one by one, naming the line of any error."""
    data = [
        (no, line.split())
        for no, line in enumerate(lines[1:], start=2)
        if line.strip() and not line.lstrip().startswith("%")
    ]
    if not data:
        raise MatrixMarketError("missing size line", path=path, line=len(lines))
    size_lineno, size_tokens = data[0]
    entries = data[1:]
    values_per_entry = 1 if field == "real" else 2

    if fmt == "array":
        rows, cols = _parse_size(size_tokens, 2, path, size_lineno)
        need = rows * cols
        if len(entries) < need:
            raise MatrixMarketError(
                f"unexpected end of file: expected {need} entries, found {len(entries)}",
                path=path,
                line=len(lines),
            )
        if len(entries) > need:
            raise MatrixMarketError(
                f"trailing data: expected {need} entries, found {len(entries)}",
                path=path,
                line=entries[need][0],
            )
        mat = _zeros(rows, cols, field, path, size_lineno)
        for k, (no, tokens) in enumerate(entries):
            if len(tokens) != values_per_entry:
                raise MatrixMarketError(
                    f"array entry must have {values_per_entry} value(s), got {len(tokens)}",
                    path=path,
                    line=no,
                )
            # array entries are stored column-major
            mat[k % rows, k // rows] = _parse_value(tokens, field, path, no)
        return mat

    rows, cols, nnz = _parse_size(size_tokens, 3, path, size_lineno)
    if len(entries) < nnz:
        raise MatrixMarketError(
            f"unexpected end of file: expected {nnz} entries, found {len(entries)}",
            path=path,
            line=len(lines),
        )
    if len(entries) > nnz:
        raise MatrixMarketError(
            f"trailing data: expected {nnz} entries, found {len(entries)}",
            path=path,
            line=entries[nnz][0],
        )
    mat = _zeros(rows, cols, field, path, size_lineno)
    for no, tokens in entries:
        if len(tokens) != 2 + values_per_entry:
            raise MatrixMarketError(
                f"coordinate entry must have {2 + values_per_entry} tokens,"
                f" got {len(tokens)}",
                path=path,
                line=no,
            )
        i = _parse_index(tokens[0], path, no)
        j = _parse_index(tokens[1], path, no)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixMarketError(
                f"coordinate ({i}, {j}) out of range for a {rows} x {cols} matrix",
                path=path,
                line=no,
            )
        value = _parse_value(tokens[2:], field, path, no)
        # duplicates accumulate, matching common reference parsers
        with np.errstate(over="ignore"):
            total = mat[i - 1, j - 1] + value
        if not np.isfinite(total):
            raise MatrixMarketError(
                f"duplicate entries at ({i}, {j}) sum to a non-finite value",
                path=path,
                line=no,
            )
        mat[i - 1, j - 1] = total
    return mat


def read_matrix(path) -> np.ndarray:
    """Parse a Matrix Market file into a dense matrix: float64 for a ``real``
    file, complex128 for a ``complex`` one.

    Raises :class:`MatrixMarketError` with a line number for malformed
    headers, unsupported field/symmetry classes, out-of-range coordinate
    indices, non-numeric tokens, non-finite values, and entry-count
    mismatches.
    """
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text:
        raise MatrixMarketError("empty file, missing Matrix Market header", path=path, line=1)
    fmt, field, body = _header(text, path)
    mat = _read_bulk(body, fmt, field)
    return _scan(text.splitlines(), fmt, field, path) if mat is None else mat


def write_matrix(m, path, format: str = "array") -> None:
    """Write a matrix in Matrix Market form.

    The field is "complex" whenever any imaginary part is nonzero, "real"
    otherwise. Coordinate output lists nonzero entries only (a zero matrix
    gets an entry count of zero), in column-major order like array output.
    """
    if format not in ("array", "coordinate"):
        raise ValueError(f"format must be 'array' or 'coordinate', got {format!r}")
    mat = as_matrix(m)
    rows, cols = mat.shape
    field = "complex" if mat.dtype.kind == "c" and np.any(mat.imag != 0.0) else "real"
    entry = "%.17g %.17g\n" if field == "complex" else "%.17g\n"

    values = mat.T.ravel()  # column-major, the entry order of both formats
    size = f"{rows} {cols}"
    columns = []
    if format == "coordinate":
        nz = np.flatnonzero(values)
        values = values[nz]
        size += f" {nz.size}"
        entry = "%d %d " + entry
        columns = [(nz % rows + 1).tolist(), (nz // rows + 1).tolist()]
    columns.append(values.real.tolist())
    if field == "complex":
        columns.append(values.imag.tolist())
    width = len(columns)
    flat = [None] * (width * values.size)
    for c, column in enumerate(columns):
        flat[c::width] = column
    body = (entry * values.size) % tuple(flat)
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(f"%%MatrixMarket matrix {format} {field} general\n{size}\n{body}")
