"""Exception types shared across the package, and the line reader every
text input goes through."""


class InputError(ValueError):
    """Malformed user input: bad files, out-of-range parameters, non-metric data."""


class ResourceGuardError(RuntimeError):
    """A computation would exceed the configured size budget.

    ``count`` holds the number of items enumerated before the guard tripped.
    """

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


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
