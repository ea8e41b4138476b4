"""JSON file format for algebras, brackets, and xi-groups.

Every file is a single JSON object with a ``kind`` discriminator.  Tensors
are sparse entry lists ``[i, j, k, "p/q"]`` with zero-based indices and
rationals as strings (ints are accepted); integral values are read as ints,
others as Fractions (``linalg.rat``); graded files add an ``even`` index
list; huliu files carry both an ``angle`` and a ``square`` tensor; xigroup
files extend graded files with a named constraint family, an odd-coordinate
subspace, and a tolerance.  Unknown fields are rejected.
"""

from __future__ import annotations

import json
import os
import sys

from ._tables import table_entries, table_from_entries
from .algebras import Algebra, GradedAlgebra, find_unit
from .huliu import HuLiuAlgebra
from .leibniz import LeibnizAlgebra
from .linalg import Scalar, rat, span


class SchemaError(ValueError):
    """Malformed input file."""


# Largest accepted ``dim``: a full table has dim^3 entries, about 1.1 GB at
# 256 with integer entries (about 67 bytes an entry; a Fraction entry costs
# more); a cell holds only its nonzero entries, so a sparse file costs less.
MAX_DIM = 256
# Largest accepted entry count of one tensor field, and of rows x odd_dim of
# an ``odd_subspace`` (a row counting at least one), checked before any entry
# is read: every dense table up to dim 161 (161^3 = 4,173,281 entries).
MAX_ENTRIES = 2 ** 22
# Largest accepted file size, checked before the file is read: two tensor
# fields at MAX_ENTRIES of 32-byte entry lines (256 MiB).  Compact entries
# are shorter, so the text's '[', '"' and ',' are counted before it is
# parsed too.
MAX_FILE_BYTES = 64 * MAX_ENTRIES
# Longest accepted numerator or denominator, in digits, checked before it is
# converted, whatever the interpreter's own int-string limit is set to.
MAX_DIGITS = sys.int_info.default_max_str_digits


_FIELDS = {
    "algebra": {"kind", "dim", "basis", "product"},
    "graded": {"kind", "dim", "basis", "product", "even"},
    "leibniz": {"kind", "dim", "basis", "angle"},
    "huliu": {"kind", "dim", "basis", "angle", "square"},
    "xigroup": {"kind", "dim", "basis", "product", "even", "constraints",
                "odd_subspace", "tolerance"},
}
_OPTIONAL = {"xigroup": {"odd_subspace", "tolerance"}}
# The most strings a document holds besides its values and basis names: the
# keys of the largest kind, its kind, and in 'constraints' the key 'family',
# the family's name and the name of its one parameter.
_SCHEMA_STRINGS = max(map(len, _FIELDS.values())) + 4


def _too_long(value: str) -> bool:
    """Whether a side of a rational string may spell an integer of more than
    MAX_DIGITS digits.  A side counts its length past any sign, plus a
    decimal exponent's size, so the check can only overcount; an exponent
    longer than MAX_DIGITS's own digits counts as past it."""
    value = value.lower()
    if len(value) <= MAX_DIGITS and "e" not in value:
        return False
    for part in value.split("/"):
        mantissa, _, exponent = part.strip().lstrip("+-").partition("e")
        exponent = exponent.lstrip("+-").lstrip("0")
        digits = len(mantissa)
        if exponent.isdecimal():  # else no exponent, or one Fraction refuses
            digits += int(exponent) if len(exponent) <= len(str(MAX_DIGITS)) else MAX_DIGITS
        if digits > MAX_DIGITS:
            return True
    return False


def _rational(value, where: str) -> Scalar:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{where}: rational must be an int or a 'p/q' string")
    if isinstance(value, str) and _too_long(value):
        raise SchemaError(f"{where}: rational with a part of more than {MAX_DIGITS} digits")
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"{where}: bad rational {value!r}: {e}") from None


def _int_literal(text: str) -> int:
    """A JSON integer literal as an int, refused past MAX_DIGITS digits."""
    if len(text) > MAX_DIGITS and len(digits := text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"integer literal of {len(digits)} digits, above the limit {MAX_DIGITS}")
    return int(text)


def _parse(text: str):
    """The JSON document in ``text``.  A third object, past the document and
    its 'constraints', is refused as soon as it is parsed."""
    objects = 0

    def one_of_two(pairs):
        nonlocal objects
        objects += 1
        if objects > 2:
            raise ValueError("file holds more than 2 JSON objects")
        return dict(pairs)

    return json.loads(text, parse_int=_int_literal, object_pairs_hook=one_of_two)


def _tensor(data, field: str, dim: int):
    if not isinstance(data, list):
        raise SchemaError(f"field {field!r} must be a list of [i, j, k, value] entries")
    items = []
    for pos, entry in enumerate(data):
        where = f"{field}[{pos}]"
        if not (isinstance(entry, list) and len(entry) == 4):
            raise SchemaError(f"{where}: expected [i, j, k, value]")
        i, j, k, value = entry
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j, k)):
            raise SchemaError(f"{where}: indices must be integers")
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise SchemaError(f"{where}: index out of range for dim {dim}")
        items.append((i, j, k, _rational(value, where)))
    return table_from_entries(dim, items)


def _vector_list(data, field: str, width: int):
    if not isinstance(data, list):
        raise SchemaError(f"field {field!r} must be a list of vectors")
    out = []
    for pos, row in enumerate(data):
        if not isinstance(row, list) or len(row) != width:
            raise SchemaError(f"{field}[{pos}]: expected a vector of length {width}")
        out.append([_rational(v, f"{field}[{pos}]") for v in row])
    return out


def load_obj(data):
    """Build the object a JSON document describes; SchemaError on bad input."""
    if not isinstance(data, dict):
        raise SchemaError("top level must be a JSON object")
    kind = data.get("kind")
    if kind not in _FIELDS:
        raise SchemaError(f"unknown or missing kind {kind!r}")
    allowed = _FIELDS[kind]
    unknown = set(data) - allowed
    if unknown:
        raise SchemaError(f"unknown fields for kind {kind!r}: {sorted(unknown)}")
    missing = allowed - set(data) - _OPTIONAL.get(kind, set())
    if missing:
        raise SchemaError(f"missing fields for kind {kind!r}: {sorted(missing)}")

    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("field 'dim' must be a positive integer")
    if dim > MAX_DIM:
        raise SchemaError(f"field 'dim' is {dim}, above the limit {MAX_DIM}")
    for field in ("product", "angle", "square"):
        entries = data.get(field)
        if isinstance(entries, list) and len(entries) > MAX_ENTRIES:
            raise SchemaError(f"field {field!r} has {len(entries)} entries, "
                              f"above the limit {MAX_ENTRIES}")
    basis = data["basis"]
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(b, str) for b in basis)):
        raise SchemaError(f"field 'basis' must be a list of {dim} names")

    if kind in ("algebra", "graded", "xigroup"):
        a = Algebra(_tensor(data["product"], "product", dim), basis)
        a.unit = find_unit(a)
        if kind == "algebra":
            return a
        even = data["even"]
        if (not isinstance(even, list)
                or not all(isinstance(i, int) and not isinstance(i, bool)
                           and 0 <= i < dim for i in even)):
            raise SchemaError("field 'even' must be a list of in-range indices")
        g = GradedAlgebra(a, even)
        if kind == "graded":
            return g
        from .xigroup import (DEFAULT_TOLERANCE, LinearXiGroup, constraint_family,
                              regular_realization)
        spec = data["constraints"]
        if not isinstance(spec, dict) or "family" not in spec:
            raise SchemaError("field 'constraints' must be {'family': name, ...}")
        params = {k: v for k, v in spec.items() if k != "family"}
        try:
            family = constraint_family(spec["family"], **params)
        except (ValueError, TypeError) as e:
            raise SchemaError(f"bad constraints: {e}") from None
        odd_dim = dim - len(set(even))
        odd_subspace = None
        if "odd_subspace" in data:
            rows = data["odd_subspace"]
            if isinstance(rows, list) and len(rows) * max(odd_dim, 1) > MAX_ENTRIES:
                raise SchemaError(f"field 'odd_subspace' has {len(rows)} rows of {odd_dim} "
                                  f"entries, above the limit {MAX_ENTRIES} "
                                  "(a row counts at least one)")
            vectors = _vector_list(rows, "odd_subspace", odd_dim)
            odd_subspace = span(vectors, odd_dim)
        tolerance = data.get("tolerance", DEFAULT_TOLERANCE)
        # also rejects NaN, infinities and integers too large for a float
        if (isinstance(tolerance, bool) or not isinstance(tolerance, (int, float))
                or not 0 <= tolerance <= sys.float_info.max):
            raise SchemaError("field 'tolerance' must be a finite nonnegative number")
        try:
            realization = regular_realization(g.validate())
            return LinearXiGroup(realization, family, odd_subspace, float(tolerance))
        except ValueError as e:
            raise SchemaError(str(e)) from None

    if kind == "leibniz":
        return LeibnizAlgebra(_tensor(data["angle"], "angle", dim), basis)

    return HuLiuAlgebra(_tensor(data["angle"], "angle", dim),
                        _tensor(data["square"], "square", dim), basis)


def load_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size > MAX_FILE_BYTES:
                raise ValueError(f"file has {size} bytes, above the limit {MAX_FILE_BYTES}")
            text = fh.read()
        # within the entry bounds a file holds the entries of two tensor fields,
        # or of one and the odd_subspace rows, their two outer lists, 'basis'
        # and 'even'; a '[' inside a string can only overcount
        lists, limit = text.count("["), 2 * MAX_ENTRIES + 4
        if lists > limit:
            raise ValueError(f"file has {lists} '[' characters, above the limit {limit}")
        # and at most that many values as "p/q" strings, MAX_DIM basis names
        # and the schema's own strings, two '"' each; an escaped '"' can only
        # overcount
        quotes, limit = text.count('"'), 2 * (2 * MAX_ENTRIES + MAX_DIM + _SCHEMA_STRINGS)
        if quotes > limit:
            raise ValueError(f"file has {quotes} '\"' characters, above the limit {limit}")
        # and its ',' follow at most the four numbers of each entry of two
        # tensor fields (or of one, and the odd_subspace values), the MAX_DIM
        # names of 'basis' and indices of 'even' (a longer 'even' repeats an
        # index), and each member of the document and its 'constraints',
        # fewer than the schema's strings; a ',' inside a string can only
        # overcount
        commas, limit = text.count(","), 8 * MAX_ENTRIES + 2 * MAX_DIM + _SCHEMA_STRINGS
        if commas > limit:
            raise ValueError(f"file has {commas} ',' characters, above the limit {limit}")
        data = _parse(text)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    except ValueError as e:  # too large, or an integer literal over the digit limit
        raise SchemaError(f"{path}: {e}") from None
    return load_obj(data)


def _entries_json(table):
    return [[i, j, k, str(c)] for i, j, k, c in table_entries(table)]


def _is_xi_group(obj) -> bool:
    """Whether ``obj`` is a ``LinearXiGroup``, without loading numpy: no
    xi-group can exist before ``xigroup`` is imported."""
    xigroup = sys.modules.get(f"{__package__}.xigroup")
    return xigroup is not None and isinstance(obj, xigroup.LinearXiGroup)


def dump_obj(obj) -> dict:
    # a richer kind extends the document of its part, keeping its key order
    if _is_xi_group(obj):
        return {
            **dump_obj(obj.graded),
            "kind": "xigroup",
            "constraints": {"family": obj.constraints.name, **obj.constraints.params()},
            "odd_subspace": [[str(c) for c in b] for b in obj.odd_subspace.basis],
            "tolerance": obj.tolerance,
        }
    if isinstance(obj, GradedAlgebra):
        return {**dump_obj(obj.algebra), "kind": "graded", "even": list(obj.even)}
    if isinstance(obj, Algebra):
        return {
            "kind": "algebra",
            "dim": obj.dim,
            "basis": list(obj.basis_names),
            "product": _entries_json(obj.table),
        }
    if isinstance(obj, HuLiuAlgebra):
        return {**dump_obj(obj.leibniz), "kind": "huliu", "square": _entries_json(obj.square)}
    if isinstance(obj, LeibnizAlgebra):
        return {
            "kind": "leibniz",
            "dim": obj.dim,
            "basis": list(obj.basis_names),
            "angle": _entries_json(obj.angle),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize with one tensor entry per line so fixtures stay readable."""
    data = dump_obj(obj)
    lines = ["{"]
    items = list(data.items())
    for idx, (key, value) in enumerate(items):
        comma = "," if idx < len(items) - 1 else ""
        if isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f' "{key}": [')
            for pos, row in enumerate(value):
                tail = "," if pos < len(value) - 1 else ""
                lines.append("  " + json.dumps(row) + tail)
            lines.append(f" ]{comma}")
        else:
            lines.append(f' "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_file(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
