"""Exception types shared across the package, how a refusal echoes a value
(``excerpt``), the tolerant line reader for the files users write, and the
one definition of the "int int float" rows that ripsaw writes and reads back
(``.tree`` nodes, ``.sparse`` edges): ``read_rows`` accepts a row file only
as ``render_rows`` writes it."""

from itertools import chain, islice

_BLOCK = 4096  # rows that one % renders, and that a reader parses at once


class InputError(ValueError):
    """Malformed user input: bad files, out-of-range parameters, non-metric data."""


class ResourceGuardError(RuntimeError):
    """A computation would exceed the configured size budget; the message
    names the budget and how many items were counted before it tripped."""


def excerpt(value):
    """``value`` as a refusal echoes it, a str as it is and anything else by
    its repr: its length and its first 40 characters, so that a value of any
    size gives a one-line message; an int past the interpreter's limit on
    digits is named by its bit length."""
    try:
        text = value if isinstance(value, str) else repr(value)
    except ValueError:  # an int past the interpreter's limit on digits in its repr
        return f"{value.bit_length()} bits"
    size = f"{len(text)} character{'s' if len(text) != 1 else ''}"
    return f"{size}: {text[:40]!r}{'...' if len(text) > 40 else ''}"


def lines(path):
    """(line number, stripped text) for each non-blank line of the UTF-8 text
    file ``path``; ``InputError`` naming the file when it is not UTF-8 (the
    error may surface a buffer before the offending line)."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if text:
                    yield lineno, text
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _text(fields):
    """Rows, given as their fields in order, as "a b c" lines from one %: a
    and b as str() spells them (%d would truncate a float), c by its repr."""
    return "%s %s %r\n" * (len(fields) // 3) % tuple(fields)


def render_rows(rows):
    """The text of the (int, int, number) ``rows``, one str per _BLOCK rows;
    c is written as repr(float(c)), so that a numpy number reads back."""
    for k in range(0, len(rows), _BLOCK):
        fields = list(chain.from_iterable(rows[k:k + _BLOCK]))
        fields[2::3] = map(float, fields[2::3])
        yield _text(fields)


def _rows(text):
    """The rows of ``text`` if it is their rendering, else None."""
    fields = text.split()
    try:
        for k, kind in enumerate((int, int, float)):
            fields[k::3] = map(kind, fields[k::3])
        same = _text(fields) == text
    except (TypeError, ValueError):  # a field is no number, or the count no multiple of 3
        return None
    it = iter(fields)
    return list(zip(it, it, it)) if same else None


def read_rows(path, shape, head=0, digest=None):
    """(the first ``head`` lines of the file ``path`` as bytes, the rows
    after them), a block of _BLOCK lines accepted only as ``render_rows``
    writes its rows; else ``InputError`` at the first line that is not,
    saying it expected ``shape``, or that is not UTF-8.  ``digest``, if
    given, takes the bytes of the rows."""
    rows, lineno = [], head
    try:
        with open(path, "rb") as fh:
            first = [fh.readline() for _ in range(head)]
            while chunk := list(islice(fh, _BLOCK)):
                raw = b"".join(chunk)
                if (block := _rows(raw.decode(errors="replace"))) is None:
                    for lineno, line in enumerate(chunk, start=head + len(rows) + 1):
                        if _rows(text := line.decode()) is None:
                            raise InputError(f"{path}:{lineno}: expected '{shape}', "
                                             f"as ripsaw writes it ({excerpt(text)})")
                rows += block
                if digest is not None:
                    digest.update(raw)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
    return first, rows
