"""Shared validation types and helpers."""

import json
from math import isfinite


class ValidationFailure(Exception):
    """Raised when a document or model fails validation.

    Carries the complete list of violations so callers can report all
    problems at once instead of stopping at the first.
    """

    def __init__(self, message: str, errors: list[str] | None = None):
        self.errors = list(errors or [])
        if self.errors:
            message = message + ":\n" + "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(message)


def read_json(path):
    """Parse the JSON document in the file at `path`.

    Anything that is not a readable UTF-8 JSON document raises
    ValidationFailure: a syntax error, a non-UTF-8 byte or an integer
    literal past the interpreter's digit limit (all ValueErrors), or
    nesting deeper than the recursion limit.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValidationFailure(f"cannot parse {path}: {exc}") from exc


def container(value, cls: type, owner: str, errors: list[str]):
    """A document field that must be a JSON array (`cls` list) or object
    (`cls` dict).

    Anything else is collected as an error and read as an empty `cls`.
    """
    if isinstance(value, cls):
        return value
    errors.append(f"{owner} must be {'a list' if cls is list else 'an object'}")
    return cls()


def string(value, owner: str, errors: list[str]) -> str:
    """A document field that must be a string.

    Anything else is collected as an error and read as the empty string.
    """
    if isinstance(value, str):
        return value
    errors.append(f"{owner} must be a string")
    return ""


def string_list(value, owner: str, errors: list[str]) -> list[str]:
    """A document field that must be a list of strings.

    Anything else, notably a bare string (which iteration would split into
    characters), is collected as an error and read as the empty list.
    """
    # a plain loop rather than all() over a generator: this runs for three
    # fields of every action, and the generator made loading a 2000-action
    # database about 1 ms (4%) slower
    if isinstance(value, list):
        for x in value:
            if not isinstance(x, str):
                break
        else:
            return value
    errors.append(f"{owner} must be a list of strings")
    return []


def number(value, default, errors: list[str], owner: str, *args):
    """A document field that must be a finite number.

    Returns ``float(value)`` for an int or float that is not a bool.
    Anything else, including NaN and Infinity (which Python's json
    accepts), is collected as an error naming ``owner.format(*args)`` and
    read as `default`. The name is formatted only on the error path: this
    runs for every profile value, and formatting it eagerly more than
    doubled what the helper adds to loading a 2000-action database.
    """
    cls = value.__class__
    if cls is float or cls is int:
        try:
            if isfinite(value):
                return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    errors.append(owner.format(*args) + " must be a finite number")
    return default
