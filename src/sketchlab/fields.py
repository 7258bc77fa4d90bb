"""The one reader for the parameter dicts that come from outside the program
(a config, a sketch family's or hard family's params, a sketch spec), each
declared once as a key table: key -> (kinds, bound, default). Kinds are
types and literal values; a bound is (op, limit) pairs on a number. A number
is any real but a bool that is finite in float64; an integer field takes an
integral number (64.0 reads as 64) and a number field reads as a float."""

import copy
import numbers
import operator
import sys

from .errors import BadParams

REQUIRED = object()  # the default of a key that must be given
OPTIONAL = object()  # the default of a key that stays absent when not given

_CMP = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
_NAMES = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string",
          dict: "an object", list: "an array", None: "null"}


def config_error(path, reason):
    return BadParams(f"config error at '{'/'.join(map(str, path)) or '<root>'}': {reason}")


def read_value(x, kinds, bound, path):
    """`x` as the first of `kinds` it is, within `bound`; a config error
    naming `path` otherwise."""
    for kind in kinds:
        if kind in (int, float):
            real = isinstance(x, numbers.Real) and not isinstance(x, bool)
            if real and abs(x) <= sys.float_info.max and (kind is float or x == int(x)):
                if not all(_CMP[op](x, limit) for op, limit in bound):
                    text = " and ".join(f"{op} {limit}" for op, limit in bound)
                    raise config_error(path, f"must be {_NAMES[kind]} {text}, got {x!r}")
                return kind(x)
        elif type(x) is kind or type(x) is type(kind) and x == kind:
            return copy.copy(x)
    names = " or ".join(_NAMES.get(k, repr(k)) for k in kinds)
    raise config_error(path, f"must be {names}, got {x!r}")


def read_fields(obj, fields, path=()):
    """The object `obj` read by the key table `fields`, in the table's key
    order: an absent key set to its default, or left out for an OPTIONAL
    one; BadParams("config error at '<path>': <reason>") on an unknown or
    missing key, a wrong type or a value out of bounds."""
    if type(obj) is not dict:
        raise config_error(path, f"must be an object, got {obj!r}")
    for key in obj:
        if key not in fields:
            raise config_error(path, f"{key!r} is unknown; it takes {sorted(fields)}")
    out = {}
    for key, (kinds, bound, default) in fields.items():
        if key in obj:
            out[key] = read_value(obj[key], kinds, bound, (*path, key))
        elif default is REQUIRED:
            raise config_error(path, f"{key!r} is a required property")
        elif default is not OPTIONAL:
            out[key] = copy.copy(default)
    return out
