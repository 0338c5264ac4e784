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
and `as_int` and `as_rational`, the Python API's readers of counts and of
actions, so that every module can use them.  `dumps_canonical` writes
every report.

`Record` is the base of every record type (Verdict, GradedGroup,
ChainComplex, HandlePresentation, ChordRecord, Stage, ...), an immutable
value made of named fields:

- Field table: a subclass lists its slots in `__slots__`.  Those whose
  names do not start with "_" are its fields, in that order, kept as the
  class attribute `_fields`, and so is f for a slot "_f" when f is in the
  class's `_rationals`: a rational field, whose slot holds (p, q) in
  lowest terms with q > 0 and whose attribute f builds the Fraction on
  each read.  The other private slots are caches (the exact and float
  pieces of a GProfile), outside everything below.
- Storage: `Record.__init__(*values)` stores one value per field, in
  field order (a rational as its pair), and raises TypeError on a wrong
  count.  A subclass that checks, normalizes or defaults its arguments
  does so in its own `__init__`, which ends in one call to
  `Record.__init__`.  Only the trusted builds skip the subclass's checks,
  for values already shown valid: `cls._unchecked(*values)` and, from one
  column per field, `cls._unchecked_columns(count, *columns)`.
- Bulk builds: a function decorated `@bulk` runs with the cyclic garbage
  collector disabled and enables it again on return or raise.  A build of
  thousands of records allocates one tracked object per record, enough to
  start full collections that walk every object of the process, yet
  records hold only strings, ints, pairs and tuples and so form no
  cycles.  The collector's state is process-wide and the last writer
  wins: another thread sees it off while a bulk build runs, the build
  enables it on return even if someone else disabled it meanwhile, and a
  bulk call made while it is already off (a nested build, or a caller
  that disabled it) leaves it off and is shielded only as long as the
  outer caller keeps it off.  weinkit starts no threads.  No collection is
  forced; the young-generation pass the build deferred runs at the next
  allocation after it.
- Pair arithmetic on rationals held as (p, q): `lowest_terms`, `_less`,
  `_times`, and `_spectrum_fields`, the one check of every spectrum.
- JSON: a subclass whose document maps field to field declares
  `_codecs = {field: codec}` in the document's key order (which `--table`
  output shows), and `_schema = False` when its document is nested and
  carries no schema tag.  From that, `Record` derives `to_json` and a
  `from_json` wrapped by `reader` under the class name, which reads each
  field with its codec, in field order, and passes the values to the
  constructor.  A codec is a triple (write, read, default): write turns
  the value into JSON (None when the value is its own JSON), read turns
  the JSON value and its key into the value, and default is what a
  missing key reads as (`_REQUIRED` when the key must be present).  The
  set is closed: INT, RATIONAL (a rational field's pair), BOOL, STRING,
  FLOAT (written as a float, read as the rational its shortest decimal
  spells), RAW, MATRIX, GROUP_ENTRY (one degree of a graded group),
  `tuple_of`, `degree_map` (every map from degree to value, as an object
  keyed by decimal degree), `record_of`, `records_of` and `optional`.
  Records whose documents do not map field to field (GradedGroup,
  SHPlusProfile, HandlePresentation) write their own `to_json` and
  `from_json`, through these codecs.
- Equality: `a == b` when both have the same type and equal field tuples
  (compared as stored, a rational as its pair); against any other type
  `__eq__` returns NotImplemented.
- Hash: the hash of the field tuple, so equal records hash alike; a record
  holding a dict or list is unhashable.
- Repr: `Name(field=value, ...)` over the fields in order.
- Immutability: assigning or deleting any attribute raises AttributeError.
"""

import gc
import json
import re
from fractions import Fraction
from functools import partial, wraps
from itertools import repeat
from math import gcd
from operator import attrgetter, index

SCHEMA_VERSION = 1
# what Fraction would read as an exponent: "1e1000000" has a million digits
_EXPONENT = re.compile(r"[eE][+-]?[0-9]")


class SchemaError(ValueError):
    """Input document does not match the expected schema."""


def ratio_to_str(pair) -> str:
    """A rational held as (p, q), written "p/q", or "p" when q is 1."""
    p, q = pair
    return str(p) if q == 1 else f"{p}/{q}"


def lowest_terms(p, q):
    """(p, q) over their gcd, for q > 0."""
    g = gcd(p, q)
    return p // g, q // g


def _less(a, b):
    """a < b for rationals held as (p, q) with q > 0."""
    return a[0] * b[1] < b[0] * a[1]


def _times(a, b):
    """a * b for rationals held as (p, q), q > 0, in lowest terms."""
    return lowest_terms(a[0] * b[0], a[1] * b[1])


class _Pair(tuple):
    """(p, q) in lowest terms, q > 0, which `as_rational` passes on as it
    is: what the RATIONAL codec reads, and what the package hands itself."""
    __slots__ = ()


def _ratio(text, what):
    """The _Pair of the rational TEXT spells ("p/q", "p" or "1.25"), or
    SchemaError "<what> '<text>': <reason>".  Exponent notation is refused
    before Fraction can build a huge integer from it."""
    try:
        # the common "p/q" and "p" in ASCII digits skip both regexes; a
        # too-long p raises what Fraction(text) would, and a zero q is left
        # to Fraction(text) to refuse
        num, slash, den = text.partition("/")
        if text.isascii() and (den.isdigit() or not slash) and (
                num.isdigit() or num[:1] in ("+", "-") and num[1:].isdigit()):
            q = int(den) if slash else 1
            if q:
                return _Pair(lowest_terms(int(num), q))
        if _EXPONENT.search(text):
            raise ValueError("exponent notation is not accepted")
        x = Fraction(text)
        return _Pair((x.numerator, x.denominator))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{what} {text!r}: {exc}") from None


def parse_rational(text, what) -> Fraction:
    """The rational TEXT spells, as `_ratio` reads it, as a Fraction."""
    return Fraction(*_ratio(text, what))


def frac_from_str(s, key=None) -> _Pair:
    """A JSON rational, a "p/q" string or an integer, as its _Pair (the
    RATIONAL codec's read, which names no key in its errors)."""
    if isinstance(s, str):
        return _ratio(s, "bad rational")
    if type(s) is int:
        return _Pair((s, 1))
    raise SchemaError(f"rational must be 'p/q' string or integer, got {s!r}")


def as_rational(value, what):
    """An int (as `as_int` takes it), Fraction or "p/q" string of the Python
    API, as (p, q) in lowest terms with q > 0; a float, an exponent string
    or any other type is an error naming WHAT."""
    if type(value) is _Pair:
        return value
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, str):
        return _ratio(value, what)
    try:
        return index(value), 1
    except TypeError:
        raise ValueError(f"{what} must be an integer, a Fraction or a 'p/q' "
                         f"string, got {value!r}") from None


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


def _spectrum_fields(n, records, bound):
    """N (>= 1), RECORDS as a tuple and BOUND as a positive pair, as both
    spectra take them, and the index of the first record whose action is not
    below the bound, else their count (a hot loop, so `_less` is inlined)."""
    n = as_int(n, "half-dimension")
    if n < 1:
        raise ValueError(f"half-dimension must be >= 1, got {n}")
    records = tuple(records)
    bp, bq = bound = as_rational(bound, "action bound")
    if bp <= 0:
        raise ValueError("action bound must be positive")
    for i, r in enumerate(records):
        p, q = r._action
        if p * bq >= bp * q:
            return n, records, bound, i
    return n, records, bound, len(records)


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


def _decimal_from_json(value, what) -> Fraction:
    """A JSON number, as the rational its shortest decimal spells, so a
    rational written as a float reads back equal when it has a short
    decimal (0.001 is 1/1000)."""
    if type(value) in (int, float):
        return Fraction(repr(value))
    raise SchemaError(f"{what} must be a number, got {value!r}")


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


# The field codecs, (write, read, default) as the module docstring sets out.
_REQUIRED = object()
INT = (None, int_from_json, _REQUIRED)
# a rational field's (p, q), written as "p/q"
RATIONAL = (ratio_to_str, frac_from_str, _REQUIRED)
BOOL = (None, bool_from_json, _REQUIRED)
STRING = (None, str_from_json, _REQUIRED)
FLOAT = (float, _decimal_from_json, _REQUIRED)
# a value the constructor checks itself, or one of any JSON shape
RAW = (None, lambda value, key: value, _REQUIRED)
MATRIX = (matrix_to_json, lambda value, key: matrix_from_json(value),
          _REQUIRED)


def _group_entry_from_json(entry, what):
    if not isinstance(entry, dict):
        raise SchemaError(f"{what} entry must be an object")
    torsion = list_from_json(entry.get("torsion", []), f"{what} torsion")
    return (int_from_json(entry.get("rank", 0), f"{what} rank"),
            tuple(int_from_json(f, f"{what} torsion factor")
                  for f in torsion))


# one degree of a graded group, (rank, torsion factors), as {"rank": r,
# "torsion": ["f", ...]}; a missing rank reads as 0, missing torsion as ()
GROUP_ENTRY = (lambda entry: {"rank": entry[0],
                              "torsion": [str(f) for f in entry[1]]},
               _group_entry_from_json, _REQUIRED)


def tuple_of(codec, entry):
    """A tuple of values of CODEC, each its own JSON (INT, STRING), written
    as a list; ENTRY names an element in read errors, the key names the
    list."""
    read = codec[1]
    return (list, lambda value, key: tuple(
        read(x, entry) for x in list_from_json(value, key)), _REQUIRED)


def degree_map(codec):
    """A dict from integer degree to a value of CODEC, written as an object
    keyed by decimal degree in ascending order (which `--table` output
    shows).  A key that spells no integer, or a degree spelled twice ("1"
    and "01"), is an error; the value at key "d" is read as "degree d"."""
    write, read, _ = codec

    def write_map(table):
        return {str(k): table[k] if write is None else write(table[k])
                for k in sorted(table)}

    def read_map(value, key):
        if not isinstance(value, dict):
            raise SchemaError(f"'{key}' must be an object")
        table = {}
        for spelled, entry in value.items():
            k = int_from_json(spelled, "degree key")
            if k in table:
                raise SchemaError(f"'{key}' spells degree {k} twice")
            table[k] = read(entry, f"degree {spelled}")
        return table
    return write_map, read_map, _REQUIRED


def record_of(cls):
    """A record of class CLS, as its own document."""
    return (lambda record: record.to_json(),
            lambda value, key: cls.from_json(value), _REQUIRED)


def records_of(cls):
    """A tuple of records of class CLS, as a list of their documents."""
    return (lambda records: [r.to_json() for r in records],
            lambda value, key: tuple(map(cls.from_json,
                                         list_from_json(value, key))),
            _REQUIRED)


def optional(codec, default):
    """CODEC for a key a document may leave out, which then reads as
    DEFAULT; with a default of None the value may also be null."""
    write, read, _ = codec
    if default is not None:
        return write, read, default

    def write_or_null(value):
        return None if value is None else write(value)

    def read_or_null(value, key):
        return None if value is None else read(value, key)
    # a value that is its own JSON writes None as null already
    return (write_or_null if write else None), read_or_null, None


def _tuple_getter(names):
    """A function from a record to the tuple of its NAMES attributes;
    attrgetter of one name returns the bare value."""
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda record: (get(record),)


def _count_error(cls, got):
    return TypeError(f"{cls.__name__} takes {len(cls._setters)} field "
                     f"values, got {got}")


class Record:
    """Base of the record types: storage, JSON from declared codecs,
    equality, hash, repr and immutability as the module docstring sets
    out."""
    __slots__ = ()
    _schema = True

    def __init_subclass__(cls):
        # private slots are caches, except that _f holds the rational
        # field f as (p, q) when f is in _rationals
        rationals = vars(cls).get("_rationals", ())
        stored = tuple(name for name in cls.__slots__
                       if name[0] != "_" or name[1:] in rationals)
        fields = tuple(name.lstrip("_") for name in stored)
        for name in rationals:
            setattr(cls, name, property(
                lambda self, slot=f"_{name}": Fraction(*getattr(self, slot))))
        cls._fields = fields
        # the hash is that of the public values, Fractions and all
        cls._values = property(_tuple_getter(fields))
        # a rational's pair is in lowest terms, so equal pairs are equal values
        cls._stored = property(_tuple_getter(stored))
        # each slot's setter, bound once here: __init__'s loop over them is
        # cheaper than one through object.__setattr__ by name
        cls._setters = tuple(getattr(cls, name).__set__ for name in stored)
        codecs = vars(cls).get("_codecs")
        if codecs is None:
            return
        keys = tuple(codecs)
        head = {"schema": SCHEMA_VERSION} if cls._schema else {}
        values = _tuple_getter(tuple(f"_{key}" if key in rationals else key
                                     for key in keys))
        writes = [(key, write) for key, (write, _, _) in codecs.items()
                  if write is not None]
        # a KeyError here names a field without a codec
        reads = [(key, *codecs[key]) for key in fields]

        def to_json(self):
            doc = head.copy()
            doc.update(zip(keys, values(self)))
            for key, write in writes:
                doc[key] = write(doc[key])
            return doc

        def from_json(doc):
            # a missing required key raises KeyError, which reader reports
            return cls(*[read(doc[key], key)
                         if default is _REQUIRED or key in doc else default
                         for key, _, read, default in reads])
        # set on the class itself, where perfbench's tracer looks them up
        cls.to_json = to_json
        cls.from_json = staticmethod(reader(cls.__name__, cls._schema)(
            from_json))

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise _count_error(self.__class__, len(values))
        for store, value in zip(setters, values):
            store(self, value)

    @classmethod
    def _unchecked(cls, *values):
        """One record of VALUES, stored without the class's `__init__`."""
        record = object.__new__(cls)
        Record.__init__(record, *values)
        return record

    @classmethod
    def _unchecked_columns(cls, count, *columns):
        """COUNT records as `_unchecked` builds one, from one iterable per
        field holding the field's value for every record."""
        if len(columns) != len(cls._setters):
            raise _count_error(cls, len(columns))
        records = list(map(object.__new__, repeat(cls, count)))
        for store, column in zip(cls._setters, columns):
            # a C-level map over each slot's setter costs about half of
            # storing record by record; any() runs it to its end
            any(map(store, records, column))
        return records

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._stored == other._stored
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


def bulk(build):
    """BUILD run with the cyclic collector off, as a bulk build (see the
    module docstring); left as it is when the collector is already off."""
    @wraps(build)
    def run(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
    return run


class Verdict(Record):
    """Outcome of a test; fired means the obstruction/distinction holds."""
    __slots__ = ("outcome", "fired", "witness", "coefficients")
    _codecs = {"outcome": STRING, "fired": BOOL, "witness": RAW,
               "coefficients": STRING}

    def __init__(self, outcome, fired, witness=None, coefficients="Z"):
        Record.__init__(self, outcome, fired, witness, coefficients)

    def __bool__(self):
        return self.fired


_json = partial(json.dumps, sort_keys=True, separators=(",", ": "), indent=1)


def dumps_canonical(doc) -> str:
    """Deterministic serialization: the text of `_json(doc)`, for which
    `indent` takes json's pure-Python encoder; lists, tuples and dicts
    keyed by strings are written here."""
    return _dumps(doc, "\n")


_ascii = json.encoder.encode_basestring_ascii
# how json writes a value of each exact type but float
_SCALARS = {str: _ascii, int: int.__repr__, type(None): {None: "null"}.get,
            bool: ("false", "true").__getitem__}


def _dumps(value, indent):
    """VALUE as json writes it on a line indented by INDENT, a newline and
    one space per level."""
    kind, inner, write = type(value), indent + " ", _SCALARS.get
    try:
        if kind is dict:
            # keys are distinct, so sorting them sorts the items
            items = [f"{_ascii(k)}: "
                     f"{w(v) if (w := write(type(v))) else _dumps(v, inner)}"
                     for k in sorted(value) for v in (value[k],)]
        elif kind is list or kind is tuple:
            items = [w(x) if (w := write(type(x))) else _dumps(x, inner)
                     for x in value]
        else:
            items = None
    except TypeError:  # a key that is not a string, or what json refuses
        items = None
    if items is None:
        # json's own text, its lines moved to this indent
        return _json(value).replace("\n", indent)
    ends = "{}" if kind is dict else "[]"
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]
