"""Exception types shared across the package, and the one reader of
text files, which raises them."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition (shape, range, length)."""


class ConfigurationError(ValueError):
    """A configuration is internally inconsistent or refers to missing pieces."""


class FileFormatError(ValueError):
    """A corpus, lexicon, embedding, or archive file is malformed.

    ``problems`` collects every offending record as ``(path, line, message)``
    so a single failure reports all malformed records at once.
    """

    def __init__(self, message, problems=None):
        super().__init__(message)
        self.problems = list(problems or [])

    def __str__(self):
        base = super().__str__()
        if not self.problems:
            return base
        lines = [base]
        for path, line, msg in self.problems:
            lines.append(f"  {path}:{line}: {msg}")
        return "\n".join(lines)


def read_utf8(path) -> str:
    """The text of the file at ``path``, its line ends as they are (its
    readers split lines with ``str.splitlines`` or parse JSON, to which
    CR, LF and CRLF are all the same).  A file that is not valid UTF-8
    raises FileFormatError naming it; OSError passes through."""
    try:
        with open(path, "rb") as fh:  # decoding the bytes at once skips the text layer
            return fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


class EnumerationBudgetError(RuntimeError):
    """An exhaustive enumeration would exceed its guarded budget."""


class TrainingDivergedError(RuntimeError):
    """The objective became non-finite during optimization."""
