"""Exception types shared across the package, and the line readers text
inputs go through: a tolerant one for the files users write, and an exact
one for the files ripsaw writes and reads back, whose "int int float"
lines (``.tree`` nodes and ``.sparse`` edges) ``record`` parses."""


class InputError(ValueError):
    """Malformed user input: bad files, out-of-range parameters, non-metric data."""


class ResourceGuardError(RuntimeError):
    """A computation would exceed the configured size budget; the message
    names the budget and how many items were counted before it tripped."""


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


def exact_lines(path):
    """(line number, bytes, text) for each line of the file ``path`` exactly
    as written: the line's bytes, and its UTF-8 text minus only the "\n"
    that ends it, so that blank lines and stray whitespace reach the caller;
    ``InputError`` naming the file and line when one is not UTF-8."""
    lineno = 0
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                yield lineno, raw, raw.decode("utf-8").removesuffix("\n")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def record(path, lineno, text, shape):
    """(int, int, float) read from ``text``, three fields joined by single
    spaces; ``InputError`` naming ``path`` and ``lineno`` otherwise, saying
    it expected ``shape``.  The spacing is checked first, as int() and
    float() would read a field with a tab, a "\r" or a space around it."""
    toks = text.split(" ")
    if len(toks) != 3 or toks != text.split():
        raise InputError(f"{path}:{lineno}: expected '{shape}'")
    try:
        return int(toks[0]), int(toks[1]), float(toks[2])
    except ValueError as exc:
        raise InputError(f"{path}:{lineno}: {exc}") from None
