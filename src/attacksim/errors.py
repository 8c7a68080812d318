"""Shared validation types and helpers."""


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
