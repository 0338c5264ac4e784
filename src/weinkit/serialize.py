"""Shared JSON conventions: schema tag, exact rationals, big-integer matrices.

Every document this package reads or writes carries ``"schema": 1``.
Every `from_json` goes through `reader`, the one reader policy: the input
must be a JSON object, tagged unless it is a record nested in a document,
and a KeyError, TypeError or ValueError of parsing or of the constructor
becomes a SchemaError "<Type>: ...", so a from_json only parses fields.
Rationals travel as strings "p/q" (or "p" when the denominator is 1) and
matrix entries as decimal strings, so arbitrary precision survives JSON.
`Verdict`, the outcome both floer's distinguishers and surgery's
certificate check return, lives here so that surgery need not load floer,
and `as_int`, the Python API's reader of counts and indices, so that every
module can use it.

`Record` is the base of every record type (Verdict, GradedGroup,
ChordRecord, Stage, ...), an immutable value made of named fields:

- Field table: a subclass lists its slots in `__slots__`.  Those whose
  names do not start with "_" are its fields, in that order, kept as the
  class attribute `_fields`; the others are private caches (the exact and
  float pieces of a GProfile, the numerator and denominator a zig-zag
  chord holds until its action is read), outside everything below.
- Each subclass writes its own `__init__`, which checks and normalizes its
  arguments and stores them with `object.__setattr__`.
- Equality: `a == b` when both have the same type and equal field tuples;
  against any other type `__eq__` returns NotImplemented.
- Hash: the hash of the field tuple, so equal records hash alike; a record
  holding a dict or list is unhashable.
- Repr: `Name(field=value, ...)` over the fields in order.
- Immutability: assigning or deleting any attribute raises AttributeError.
"""

import json
import re
from fractions import Fraction
from functools import wraps
from operator import attrgetter, index

SCHEMA_VERSION = 1
# what Fraction would read as an exponent: "1e1000000" has a million digits
_EXPONENT = re.compile(r"[eE][+-]?[0-9]")


class SchemaError(ValueError):
    """Input document does not match the expected schema."""


class Record:
    """Base of the record types: fields, equality, hash, repr and
    immutability as the module docstring sets out."""
    __slots__ = ()

    def __init_subclass__(cls):
        fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        get = attrgetter(*fields)
        cls._fields = fields
        # the field tuple; attrgetter of one name returns the bare value
        cls._values = property(get if len(fields) > 1
                               else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Verdict(Record):
    """Outcome of a test; fired means the obstruction/distinction holds."""
    __slots__ = ("outcome", "fired", "witness", "coefficients")

    def __init__(self, outcome, fired, witness=None, coefficients="Z"):
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "fired", fired)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "coefficients", coefficients)

    def __bool__(self):
        return self.fired

    def to_json(self):
        return {
            "schema": SCHEMA_VERSION,
            "outcome": self.outcome,
            "fired": self.fired,
            "witness": self.witness,
            "coefficients": self.coefficients,
        }


def frac_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(text, what) -> Fraction:
    """The rational TEXT spells ("p/q", "p" or "1.25"), or SchemaError
    "<what> '<text>': <reason>".  Exponent notation is refused before
    Fraction can build a huge integer from it."""
    try:
        if _EXPONENT.search(text):
            raise ValueError("exponent notation is not accepted")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{what} {text!r}: {exc}") from None


def frac_from_str(s) -> Fraction:
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise SchemaError(f"rational must be 'p/q' string or integer, got {s!r}")
    return parse_rational(s, "bad rational")


def int_from_json(value, what) -> int:
    """A JSON integer (not a bool) or a decimal-integer string, as an int."""
    if type(value) is int or (isinstance(value, str)
                              and re.fullmatch(r"[+-]?[0-9]+", value)):
        return int(value)
    raise SchemaError(f"{what} must be an integer, got {value!r}")


def as_int(value, what) -> int:
    """An int, bool or numpy integer of the Python API, as an int; a float,
    string or Fraction is an error naming WHAT, never truncated."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def str_from_json(value, what) -> str:
    """A JSON string, as a str; a number, null, array or object is an error."""
    if isinstance(value, str):
        return value
    raise SchemaError(f"{what} must be a string, got {value!r}")


def bool_from_json(value, what) -> bool:
    """A JSON true or false, as a bool; a string or number is an error."""
    if type(value) is bool:
        return value
    raise SchemaError(f"{what} must be true or false, got {value!r}")


def list_from_json(value, what) -> list:
    """A JSON array, as a list; a string, object or number is an error."""
    if isinstance(value, list):
        return value
    raise SchemaError(f"{what} must be a list, got {value!r}")


def matrix_to_json(rows) -> list:
    """Integer matrix -> rows of decimal strings."""
    return [[str(int(x)) for x in row] for row in rows]


def matrix_from_json(rows) -> list:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SchemaError("matrix must be a list of rows")
    out = [[int_from_json(x, "matrix entry") for x in row] for row in rows]
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise SchemaError("ragged matrix")
    return out


def reader(what, schema=True):
    """The reader policy around a from_json(doc) named WHAT; schema=False
    for a record nested in a document, which carries no tag."""
    def wrap(parse):
        @wraps(parse)
        def read(doc):
            if not isinstance(doc, dict):
                raise SchemaError(f"{what}: expected a JSON object")
            if schema and doc.get("schema") != SCHEMA_VERSION:
                raise SchemaError(
                    f"{what}: missing or unsupported schema tag "
                    f"(want {SCHEMA_VERSION}, got {doc.get('schema')!r})")
            try:
                return parse(doc)
            except KeyError as exc:
                raise SchemaError(f"{what}: missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{what}: {exc}") from None
        return read
    return wrap


def dumps_canonical(doc) -> str:
    """Deterministic serialization: sorted keys, fixed separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)
