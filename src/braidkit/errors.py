"""Exception types shared across the toolkit, and the type checks that
raise them on decoded JSON and YAML input."""


class InvalidInputError(ValueError):
    """Arguments violate a documented precondition."""


class UnsupportedFamilyError(InvalidInputError):
    """Requested surface family or quotient class is outside the supported range."""


class BoundExceededError(RuntimeError):
    """A closure or search would exceed its resource bound."""


_MISSING = object()


def checked(value, kind: type, what: str):
    """``value`` itself when it is a ``kind``, else InvalidInputError.

    Used on decoded JSON and YAML, where a bool does not pass as an int.
    """
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise InvalidInputError(f"{what} must be of type {kind.__name__}, got {value!r}")


def json_field(data: dict, key: str, kind: type, what: str, default=_MISSING):
    """``data[key]`` checked to be a ``kind``; ``default`` stands in for a
    missing key, and without one a missing key is invalid input."""
    if key not in data:
        if default is _MISSING:
            raise InvalidInputError(f"{what} needs the field {key!r}")
        return default
    return checked(data[key], kind, f"{what} field {key!r}")
