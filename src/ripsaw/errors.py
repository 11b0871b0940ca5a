"""Exception types shared across the package, how a refusal echoes a value
(``excerpt``), and the line readers text inputs go through: a tolerant one
for the files users write, and an exact one for the files ripsaw writes and
reads back, whose "int int float" lines (``.tree`` nodes and ``.sparse``
edges) ``record`` parses."""


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
    it expected ``shape`` and echoing an excerpt of the line.  The spacing is
    checked first, as int() and float() would read a field with a tab, a
    "\r" or a space around it."""
    toks = text.split(" ")
    try:
        if len(toks) == 3 and toks == text.split():
            return int(toks[0]), int(toks[1]), float(toks[2])
    except ValueError:
        pass
    raise InputError(f"{path}:{lineno}: expected '{shape}' ({excerpt(text)})")
