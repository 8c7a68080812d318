"""Shared validation types and helpers.

Every input document is read through these helpers. A string in a
document must be valid Unicode text: one that encodes as UTF-8.
"""

import json
import re
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


def _unknown(what: str, keys) -> str:
    """`what` and the sorted key names, any lone surrogate escaped."""
    names = ", ".join(sorted(keys)).encode("utf-8", "backslashreplace")
    return f"{what}: {names.decode('utf-8')}"


def document(doc, keys: set[str], what: str) -> list[str]:
    """Check a top-level document: a JSON object (else raise) with no keys
    outside `keys`. Returns the unknown-key error, if any, naming `what`,
    as the start of the loader's error list."""
    if not isinstance(doc, dict):
        raise ValidationFailure(f"{what} must be a JSON object")
    extra = doc.keys() - keys
    return ([_unknown(f"{what}: unknown top-level keys", extra)] if extra
            else [])


def entry(obj, keys: set[str], kind: str, errors: list[str], index: int,
          key: str = "id") -> str | None:
    """Check the `index`-th entry of a document list: an object with a
    string `key` and no keys outside `keys`. Returns the owner name for its
    field messages, ``"<kind> '<key>'"``, or collects an error and returns
    None; unknown keys are collected, but the entry is still read.

    `actions.action_from_dict` checks an action's id and keys itself and
    calls this only for an entry that fails that check: one that is not an
    object, has no ASCII string id or has an unknown key."""
    if isinstance(obj, dict):
        name = obj.get(key)
        if isinstance(name, str) and (name.isascii() or not _surrogate(name)):
            owner = f"{kind} {name!r}"
            if not keys.issuperset(obj):
                errors.append(_unknown(f"{owner} has unknown keys",
                                       obj.keys() - keys))
            return owner
    errors.append(f"{kind} #{index} must be an object with a string {key!r}")
    return None


def entries(value, owner: str, keys: set[str], kind: str,
            errors: list[str], key: str = "id"):
    """Yield ``(owner, obj)`` for each entry of the list `value` that
    passes `entry`; `value` is read through `container`."""
    for i, obj in enumerate(container(value, list, owner, errors)):
        name = entry(obj, keys, kind, errors, i, key)
        if name is not None:
            yield name, obj


def container(value, cls: type, owner: str, errors: list[str], *args):
    """A document field that must be a JSON array (`cls` list) or object
    (`cls` dict).

    Anything else is collected as an error and read as an empty `cls`.
    With `args` the error names ``owner.format(*args)``, formatted only on
    the error path, as in `number`; an owner that is already formatted
    comes without `args`.
    """
    if isinstance(value, cls):
        return value
    errors.append(f"{owner.format(*args) if args else owner} must be "
                  f"{'a list' if cls is list else 'an object'}")
    return cls()


# a lone surrogate: JSON escapes can spell one, but UTF-8 cannot encode it
_surrogate = re.compile("[\ud800-\udfff]").search


def string(value, owner: str, errors: list[str], *args) -> str:
    """A document field that must be a string.

    Anything else is collected as an error and read as the empty string.
    With `args` the error names ``owner.format(*args)``, formatted only on
    the error path, as in `number`.
    """
    if isinstance(value, str):
        if value.isascii() or not _surrogate(value):
            return value
        problem = "is not valid Unicode text"
    else:
        problem = "must be a string"
    errors.append(f"{owner.format(*args) if args else owner} {problem}")
    return ""


def boolean(value, owner: str, errors: list[str], *args) -> bool:
    """A document field that must be JSON true or false, not a string such
    as "false" or a number; anything else is collected as an error and
    read as False. `args` as in `string`."""
    if value is True or value is False:
        return value
    errors.append(f"{owner.format(*args) if args else owner} must be true "
                  "or false")
    return False


def string_list(value, owner: str, errors: list[str], *args) -> list[str]:
    """A document field that must be a list of strings.

    Anything else, notably a bare string (which iteration would split into
    characters), is collected as an error and read as the empty list.
    `args` as in `container`: formatted into `owner` only on the error
    path.
    """
    # a plain loop rather than all() over a generator: this runs for three
    # fields of every action, and the generator made loading a 2000-action
    # database about 1 ms (4%) slower
    if isinstance(value, list):
        for x in value:
            if not (isinstance(x, str) and (x.isascii() or not _surrogate(x))):
                break
        else:
            return value
    errors.append(f"{owner.format(*args) if args else owner} must be a "
                  "list of strings")
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
