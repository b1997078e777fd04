"""The one JSON emitter of the package.

dumps returns the text of json.dumps(obj, sort_keys=True, indent=2) for
the types a payload holds, without importing json: that module compiles
its regexes on import and builds a pure-Python encoder on the first
indented dump, a fixed cost that every CLI run would pay.
"""

from itertools import repeat


class _Escapes(dict):
    """str.translate's table for a JSON string with ensure_ascii.  Every
    ASCII code point has an entry: quote, backslash and the five short
    escapes, \\u00XX below space and for DEL, and itself otherwise.  Any
    other code point is escaped as \\uXXXX, or as a surrogate pair past
    U+FFFF, when it is read; it is not stored."""

    def __missing__(self, code: int) -> str:
        if code < 0x10000:
            return f"\\u{code:04x}"
        high, low = divmod(code - 0x10000, 0x400)
        return f"\\u{0xD800 | high:04x}\\u{0xDC00 | low:04x}"


_ESCAPES = _Escapes({code: chr(code) if 0x20 <= code < 0x7F else f"\\u{code:04x}" for code in range(0x80)})
_ESCAPES.update({ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')})


def _string(text: str) -> str:
    # Printable ASCII without a quote or backslash needs no escape.  Both
    # paths read the characters, never a subclass's __str__ or __format__.
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    return '"' + text.translate(_ESCAPES) + '"'


def dumps(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) for obj built
    from dict (with str keys), list, tuple, str, int, bool and None; int
    and str subclasses are written as their values.  Any other type, float
    included, and a dict key that is not a str raise TypeError."""
    return _dumps(obj, "\n")


def _dumps(obj, newline: str) -> str:
    if isinstance(obj, str):
        return _string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = map(_dumps, obj, repeat(inner))
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_string(key)}: {_dumps(value, inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
