"""Exception types shared across the package, and the two checks of
outside input that raise them: the one reader of text files, and the
one type check of configuration fields; and the one writer of JSON
files.  It imports nothing but the standard library, so every command
can load it before it knows what else it needs."""

import dataclasses
import json
import math


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


def canonical_json(doc) -> str:
    """``doc`` as canonical JSON: sorted keys, two-space indent, no NaN
    or infinity, one trailing newline.  Every JSON file the package
    writes (archives, configurations, reports) goes through it, so a
    rerun writes the same bytes."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """Whether ``value`` is an int or float with a finite float value; a
    bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


# what a configuration field annotated with the key may hold
_FIELD_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", is_finite_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple[str, ...]": (
        "a list of strings",
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v),
    ),
    "tuple[int, int]": (
        "a pair of integers",
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_int, v)),
    ),
}


def check_field_types(config, error: type[ValueError]) -> None:
    """Raise ``error`` for the first field of the dataclass ``config``
    whose value its annotation does not allow.  A bool is not a number
    here, and an integer is a float; lists stand for tuples, as JSON
    has no tuples."""
    for field in dataclasses.fields(config):
        kind, allowed = _FIELD_TYPES[field.type]
        value = getattr(config, field.name)
        if not allowed(value):
            raise error(f"{field.name} must be {kind}, got {value!r}")


class TrainingDivergedError(RuntimeError):
    """The objective or its gradient became non-finite during optimization."""
