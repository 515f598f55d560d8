"""The indented JSON text of every report the CLI writes.

`dumps(data)` returns exactly what the standard library's `json.dumps`
writes with sorted keys and an indent of 2, plus a final newline, for any
value it accepts whose dict keys are strings.  The standard library falls
back to its pure-Python encoder whenever `indent` is set; this writer
reaches the same bytes with the C string escaper, `int.__repr__` and one
`str.join` per container, and hands any other scalar, such as a float, to
`json.dumps`.

It recurses two frames per level of nesting, so a container more than
`_MAX_DEPTH` levels below the value being written is left as a hole and
written by a later call: nesting as deep as `json.load` accepts stays far
from the recursion limit.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

_LITERALS = {None: "null", True: "true", False: "false"}
_MAX_DEPTH = 16  # reports nest about seven levels deep
_MAX_PAD = len("\n") + 2 * _MAX_DEPTH
# never in JSON text: the escaper writes control characters as \u escapes
_HOLE = "\x00"


def _text(value, pad: str, deferred: list) -> str:
    """The JSON text of `value` on a line whose indentation is `pad`
    ("\\n" and two spaces per level); each container nested too deep is
    appended to `deferred` with its indentation and written as `_HOLE`."""
    cls = type(value)
    if cls is str:
        return _quote(value)
    if cls is int:
        return int.__repr__(value)
    if cls is dict:
        if not value:
            return "{}"
        if len(pad) > _MAX_PAD:
            deferred.append((value, pad))
            return _HOLE
        inner = pad + "  "
        if len(value) == 1:  # most of a report's dicts: {"dim": d}, {"matrix": m}
            ((key, entry),) = value.items()
            return f"{{{inner}{_quote(key)}: {_text(entry, inner, deferred)}{pad}}}"
        return "{" + ",".join(
            [f"{inner}{_quote(k)}: {_text(value[k], inner, deferred)}" for k in sorted(value)]
        ) + pad + "}"
    if cls is list or cls is tuple:
        if not value:
            return "[]"
        if len(pad) > _MAX_PAD:
            deferred.append((value, pad))
            return _HOLE
        inner = pad + "  "
        if type(value[0]) is str:  # a report's commonest container: names
            try:
                return "[" + inner + ("," + inner).join(map(_quote, value)) + pad + "]"
            except TypeError:  # not every entry is a string
                pass
        if len(value) == 1:
            return f"[{inner}{_text(value[0], inner, deferred)}{pad}]"
        return "[" + inner + ("," + inner).join(
            [_text(x, inner, deferred) for x in value]
        ) + pad + "]"
    if value is None or value is True or value is False:
        return _LITERALS[value]
    if isinstance(value, dict):  # a subclass, such as a defaultdict
        return _text(dict(value), pad, deferred)
    if isinstance(value, (list, tuple)):
        return _text(list(value), pad, deferred)
    return json.dumps(value)  # a float; TypeError for what JSON cannot hold


def _fill(value, pad: str) -> str:
    """The JSON text of `value` at indentation `pad`, holes filled."""
    deferred: list = []
    text = _text(value, "\n", deferred)
    if pad != "\n":
        text = text.replace("\n", pad)  # JSON strings hold no raw newline
    if not deferred:
        return text
    pieces = text.split(_HOLE)
    out = [pieces[0]]
    for (inner, rel), piece in zip(deferred, pieces[1:]):
        out += (_fill(inner, pad + rel[1:]), piece)
    return "".join(out)


def dumps(data) -> str:
    """The standard library's text of `data` with sorted keys and an indent
    of 2, and a final newline, byte for byte."""
    return _fill(data, "\n") + "\n"
