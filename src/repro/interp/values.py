"""PHP value model for the mini interpreter.

Values map onto Python types: ``null → None``, booleans, ints, floats,
strings, and arrays as insertion-ordered dicts (:class:`PhpArray`).
Conversion helpers implement PHP's loose-typing rules closely enough for
the web-application subset the corpus exercises: numeric strings
coerce in arithmetic, anything stringifies for concatenation, and
truthiness follows PHP's table ("0" is false, "0.0" is true, empty
array is false, ...).
"""

from __future__ import annotations

__all__ = ["PhpArray", "PhpObject", "to_bool", "to_number", "to_string", "loose_equals", "type_name"]


class PhpArray:
    """An ordered PHP array: integer and string keys, auto-indexing."""

    def __init__(self, items: dict | None = None) -> None:
        self._data: dict = {}
        self._next_index = 0
        if items:
            for key, value in items.items():
                self.set(key, value)

    @staticmethod
    def _normalize_key(key: object) -> object:
        # PHP casts float keys and integer-like strings to int.
        if isinstance(key, bool):
            return int(key)
        if isinstance(key, float):
            return int(key)
        if (
            isinstance(key, str)
            and key.lstrip("-")
            and all(ch in "0123456789" for ch in key.lstrip("-"))
            and key.count("-") <= (1 if key.startswith("-") else 0)
        ):
            return int(key)
        if key is None:
            return ""
        return key

    def set(self, key: object | None, value: object) -> None:
        if key is None:
            key = self._next_index
        key = self._normalize_key(key)
        if isinstance(key, int) and key >= self._next_index:
            self._next_index = key + 1
        self._data[key] = value

    def get(self, key: object, default: object = None) -> object:
        return self._data.get(self._normalize_key(key), default)

    def has(self, key: object) -> bool:
        return self._normalize_key(key) in self._data

    def unset(self, key: object) -> None:
        self._data.pop(self._normalize_key(key), None)

    def keys(self) -> list:
        return list(self._data.keys())

    def values(self) -> list:
        return list(self._data.values())

    def items(self) -> list[tuple]:
        return list(self._data.items())

    def copy(self) -> "PhpArray":
        dup = PhpArray()
        dup._data = dict(self._data)
        dup._next_index = self._next_index
        return dup

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PhpArray) and other._data == self._data

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r} => {v!r}" for k, v in self._data.items())
        return f"PhpArray({inner})"


class PhpObject:
    """A minimal PHP object: a class name and a property bag."""

    def __init__(self, class_name: str) -> None:
        self.class_name = class_name
        self.properties: dict[str, object] = {}

    def __repr__(self) -> str:
        return f"PhpObject({self.class_name}, {self.properties!r})"


def type_name(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "double"
    if isinstance(value, str):
        return "string"
    if isinstance(value, PhpArray):
        return "array"
    if isinstance(value, PhpObject):
        return "object"
    return "resource"


def to_bool(value: object) -> bool:
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0
    if isinstance(value, float):
        return value != 0.0
    if isinstance(value, str):
        return value not in ("", "0")
    if isinstance(value, PhpArray):
        return len(value) > 0
    return True


def to_number(value: object) -> int | float:
    """PHP numeric coercion: leading-numeric prefix of strings, 0 otherwise."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if value is None:
        return 0
    if isinstance(value, str):
        return _leading_number(value)
    if isinstance(value, PhpArray):
        return 1 if len(value) else 0
    return 0


def _leading_number(text: str) -> int | float:
    text = text.strip()
    best = ""
    seen_dot = False
    seen_e = False
    for i, ch in enumerate(text):
        if ch in "0123456789":  # ASCII only: '²'.isdigit() is True but int() rejects it
            best += ch
        elif ch == "-" and i == 0:
            best += ch
        elif ch == "." and not seen_dot and not seen_e:
            best += ch
            seen_dot = True
        elif ch in "eE" and not seen_e and best and best[-1] in "0123456789":
            # Only accept the exponent if digits follow.
            rest = text[i + 1 :]
            if rest[:1] in set("0123456789") or (
                rest[:1] in "+-" and rest[1:2] in set("0123456789")
            ):
                best += ch
                seen_e = True
            else:
                break
        elif ch in "+-" and seen_e and best[-1] in "eE":
            best += ch
        else:
            break
    if not any(ch in "0123456789" for ch in best):  # "", "-", ".", "-."
        return 0
    if seen_dot or seen_e:
        return float(best)
    return int(best)


def to_string(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else ""
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, PhpArray):
        return "Array"
    if isinstance(value, PhpObject):
        return f"Object({value.class_name})"
    return str(value)


def loose_equals(a: object, b: object) -> bool:
    """PHP's ``==``: numeric comparison when either side is numeric-ish."""
    if type(a) is type(b) or (isinstance(a, (int, float)) and isinstance(b, (int, float))):
        if isinstance(a, PhpArray) and isinstance(b, PhpArray):
            return a == b
        return a == b
    if a is None:
        return not to_bool(b)
    if b is None:
        return not to_bool(a)
    if isinstance(a, bool) or isinstance(b, bool):
        return to_bool(a) == to_bool(b)
    if isinstance(a, str) and isinstance(b, (int, float)):
        return to_number(a) == b
    if isinstance(b, str) and isinstance(a, (int, float)):
        return to_number(b) == a
    return a == b
