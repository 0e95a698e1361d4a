"""Problem-document ingestion: JSON bytes in, validated DecisionProblem out.

Document schema (version "1"), field by field:

* ``schema_version`` — required, the string ``"1"``.
* ``frame`` — optional, must be ``["IS", "NS"]`` (the only frame in v1).
* ``alternatives`` — required, non-empty list of unique labels.
* ``criteria`` — required, non-empty list of unique labels.
* ``scales`` — optional mapping of user-defined linguistic scales:
  ``{name: {"kind": "interval" | "tfn", "terms": {label: value}}}`` where an
  interval value is ``[lo, hi]`` and a tfn value is ``[a, b, c]``, with
  ``a <= b <= c`` and a finite ``c - a``. Names may not shadow the built-in
  scales (``interval-default``, ``kaufmann-tfn``).
* ``decision_makers`` — required, non-empty list of
  ``{"name": ..., "weight": W, "criterion_weights": [W, ...]}`` with one
  criterion weight per criterion.
* ``ratings`` — required mapping decision maker -> alternative -> criterion
  -> ``[m_IS, m_NS, m_ISNS]``. Keys must cover exactly the declared labels.

A weight ``W`` is a crisp number ``x`` (read as ``[x, x]``), an interval
``[lo, hi]``, or a linguistic reference ``{"term": ..., "scale": ...}``.
A pair ``[lo, hi]``, as a weight or an interval-scale term, whose ``lo``
exceeds ``hi`` by at most ``ENDPOINT_TOLERANCE`` reads as ``[lo, lo]``; a
larger inversion is rejected. An interval term is read as it is. A tfn
term is a triangular fuzzy number ``(a, b, c)`` and is read as its
alpha-cut at the level passed to :func:`load_problem` (:func:`as_interval`):
the points whose membership is at least alpha, so alpha 0 gives the support
``[a, c]`` and alpha 1 the peak ``[b, b]``. The built-in
``interval-default`` is the supports of the built-in ``kaufmann-tfn``.

Every field is checked once, here: the ``DecisionProblem`` and ``Interval``
constructors store what they are given and check nothing, so this is the
one checked way to make a problem and its weights.
Triples rounded to the few decimals of published tables may miss a unit sum
by up to 1e-3 (by ``math.fsum``, a sum beyond float range reading as inf);
they are divided by that sum, which leaves them a sum the mass-sum policy
keeps as it is. Larger misses are rejected.

Errors: :class:`ParseError` for malformed input (with line/column), a key
repeated within one object, or an integer literal too long to read;
:class:`SchemaError` for structural violations; :class:`ValidationError` for
value-level violations, including a number beyond float range and a string
with a lone surrogate (which could not be written out as UTF-8). All three
carry the coordinates of the offending field, or name the repeated key.
Each is raised by the one check that owns its field, and no error is
translated afterwards.
"""

from __future__ import annotations

import json
import math
import os
import sys

from .errors import InvalidAlpha, ParseError, SchemaError, ValidationError
from .evidence import _INF, FRAME, Triple
from .intervals import Interval, describe, to_float
from .pipeline import DecisionProblem, _nogc

SCHEMA_VERSION = "1"

#: Unit-sum slack granted to rating triples at ingestion (display rounding).
RATING_SUM_TOLERANCE = 1e-3

#: A document's [lo, hi] with lo > hi by at most this much reads as [lo, lo].
ENDPOINT_TOLERANCE = 1e-12

_REQUIRED_KEYS = frozenset({"schema_version", "alternatives", "criteria", "decision_makers", "ratings"})
_OPTIONAL_KEYS = frozenset({"frame", "scales"})

BUNDLED_DATASET = "supplier-selection.json"


def bundled_dataset_bytes() -> bytes:
    """Raw bytes of the dataset shipped with the package, read by the loader
    that imported it (``importlib.resources`` would import some 38 modules)."""
    return __spec__.loader.get_data(os.path.join(os.path.dirname(__file__), "data", BUNDLED_DATASET))


def _reject_constant(token: str):
    raise ParseError(f"non-finite number literal {token!r} is not allowed")


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def load_problem(source, *, alpha: float = 0.0) -> DecisionProblem:
    """Parse and fully validate a problem document.

    ``source`` may be bytes, text, or a readable binary/text stream.
    ``alpha`` is the alpha-cut level used to bridge tfn-scale terms.
    The source is read and decoded first; the cyclic garbage collector is
    then paused while the JSON is parsed and the problem built.
    """
    level = to_float(alpha)
    if not 0.0 <= level <= 1.0:
        raise InvalidAlpha(f"alpha must lie in [0, 1], got {describe(alpha)}")

    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    elif isinstance(source, str):
        text = source
    else:
        raise TypeError(f"source must be bytes, str or a stream, got {type(source).__name__}")
    return _parse(text, level)


@_nogc
def _parse(text: str, alpha: float) -> DecisionProblem:
    """The problem ``text`` holds, decoded and built with the cyclic garbage
    collector paused: a document decodes and builds into acyclic values only.
    A decode failure raises ParseError here; the build raises each of its
    errors at the check that owns the field, already located."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        # the only other ValueError: an integer literal beyond int()'s digit limit
        raise ParseError(
            f"integer literal has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise ParseError("document nesting is too deep") from exc

    return _build_problem(doc, alpha)


# --- structural helpers -------------------------------------------------------


def _where(field: str, at: tuple) -> str:
    return field + "".join(f"[{label!r}]" for label in at)


def _expect_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected an array, got {type(value).__name__}")
    return value


def _expect_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected a string, got {type(value).__name__}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"{where}: string contains a lone surrogate: {value!r}") from None
    return value


def _expect_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        x = float(value)
    except OverflowError:
        raise ValidationError(f"{where}: number is too large, got {len(str(abs(value)))} digits") from None
    if not math.isfinite(x):
        raise ValidationError(f"{where}: number must be finite, got {value!r}")
    return x


def _label_list(value, where: str) -> tuple[str, ...]:
    items = _expect_list(value, where)
    if not items:
        raise SchemaError(f"{where}: must not be empty")
    labels = tuple(_expect_str(item, f"{where}[{i}]") for i, item in enumerate(items))
    for i, label in enumerate(labels):
        if not label:
            raise SchemaError(f"{where}[{i}]: label must not be empty")
    if len(set(labels)) != len(labels):
        raise SchemaError(f"{where}: labels must be unique")
    return labels


def _check_keys(obj: dict, expected, where: str, what: str, optional=frozenset()) -> None:
    """SchemaError unless ``obj`` has every key of ``expected`` and no other
    key outside ``optional``; ``what`` names a key in the message."""
    keys = set(obj)
    wanted = set(expected)
    missing = sorted(wanted - keys)
    if missing:
        raise SchemaError(f"{where}: missing {what}(s): {', '.join(map(repr, missing))}")
    extra = sorted(keys - wanted - optional)
    if extra:
        raise SchemaError(f"{where}: unknown {what}(s): {', '.join(map(repr, extra))}")


# --- scales -------------------------------------------------------------------

INTERVAL_KIND = "interval"
TFN_KIND = "tfn"

_KAUFMANN_TFN = {
    "Very low (VL)": (0.0, 0.1, 0.3),
    "Low (L)": (0.1, 0.3, 0.5),
    "Medium (M)": (0.3, 0.5, 0.7),
    "High (H)": (0.5, 0.7, 0.9),
    "Very high (VH)": (0.7, 0.9, 1.0),
}

#: Scale name -> term -> value: an ``Interval``, or the vertices ``(a, b, c)``
#: of a triangular fuzzy number.
_BUILTIN_SCALES = {
    "interval-default": {term: Interval(a, c) for term, (a, _, c) in _KAUFMANN_TFN.items()},
    "kaufmann-tfn": _KAUFMANN_TFN,
}


def as_interval(value, alpha: float) -> Interval:
    """A scale value as an interval: an ``Interval`` as it is, vertices
    ``a <= b <= c`` with a finite ``c - a`` as their alpha-cut."""
    if isinstance(value, Interval):
        return value
    a, b, c = value
    # rounding may carry an endpoint past the peak, which the cut contains
    return Interval(min(a + alpha * (b - a), b), max(c - alpha * (c - b), b))


def _parse_scales(value, where: str) -> dict[str, dict]:
    scales = dict(_BUILTIN_SCALES)
    for name, body in _expect_dict(value, where).items():
        scale_where = f"{where}[{name!r}]"
        if not name:
            raise SchemaError(f"{where}: scale names must not be empty")
        if name in scales:
            raise SchemaError(f"{scale_where}: shadows a built-in scale")
        body = _expect_dict(body, scale_where)
        _check_keys(body, ("kind", "terms"), scale_where, "field")
        kind = _expect_str(body["kind"], f"{scale_where}.kind")
        if kind not in (INTERVAL_KIND, TFN_KIND):
            raise SchemaError(
                f"{scale_where}.kind: must be {INTERVAL_KIND!r} or {TFN_KIND!r}, got {kind!r}"
            )
        terms_obj = _expect_dict(body["terms"], f"{scale_where}.terms")
        if not terms_obj:
            raise SchemaError(f"{scale_where}.terms: must not be empty")
        terms = scales[name] = {}
        for label, raw in terms_obj.items():
            term_where = f"{scale_where}.terms[{label!r}]"
            if kind == INTERVAL_KIND:
                terms[label] = _interval(raw, term_where)
            else:
                a, b, c = _number_list(raw, 3, term_where)
                vertices = f"({a}, {b}, {c})"
                if not a <= b <= c:
                    raise ValidationError(f"{term_where}: vertices must satisfy a <= b <= c, got {vertices}")
                if not math.isfinite(c - a):  # else the cut's arithmetic overflows
                    raise ValidationError(f"{term_where}: vertices must have a finite c - a, got {vertices}")
                terms[label] = (a, b, c)
    return scales


def _number_list(value, arity: int, where: str) -> list[float]:
    items = _expect_list(value, where)
    if len(items) != arity:
        raise SchemaError(f"{where}: expected {arity} numbers, got {len(items)}")
    return [_expect_number(item, f"{where}[{i}]") for i, item in enumerate(items)]


def _interval(value, where: str) -> Interval:
    """A ``[lo, hi]`` list as an Interval of finite floats with ``lo <= hi``:
    an inversion of at most ENDPOINT_TOLERANCE reads as ``[lo, lo]``, a
    larger one raises at ``where``."""
    lo, hi = _number_list(value, 2, where)
    if lo > hi:
        if lo - hi > ENDPOINT_TOLERANCE:
            raise ValidationError(f"{where}: lower endpoint {lo} exceeds upper endpoint {hi}")
        hi = lo
    return Interval(lo, hi)


# --- weights ------------------------------------------------------------------


def _parse_weight(value, scales: dict[str, dict], alpha: float, where: str) -> Interval:
    """A crisp number ``x`` as ``[x, x]``, an interval pair, or a term
    reference bridged by ``alpha``; every form must be non-negative."""
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a weight, got a boolean")
    if isinstance(value, (int, float)):
        x = _expect_number(value, where)
        iv = Interval(x, x)
    elif isinstance(value, list):
        iv = _interval(value, where)
    elif isinstance(value, dict):
        _check_keys(value, ("term", "scale"), where, "field")
        term = _expect_str(value["term"], f"{where}.term")
        scale_name = _expect_str(value["scale"], f"{where}.scale")
        terms = scales.get(scale_name)
        if terms is None:
            raise ValidationError(
                f"{where}.scale: unknown scale {scale_name!r}; "
                f"known scales: {', '.join(map(repr, sorted(scales)))}"
            )
        if term not in terms:
            raise ValidationError(
                f"{where}.term: unknown term {term!r} in scale {scale_name!r}; "
                f"valid terms: {', '.join(map(repr, terms))}"
            )
        iv = as_interval(terms[term], alpha)
    else:
        raise SchemaError(
            f"{where}: a weight must be a number, an interval pair, or a term reference"
        )
    if iv.lo < 0:
        raise ValidationError(f"{where}: weight must be non-negative, got [{iv.lo}, {iv.hi}]")
    return iv


# --- ratings ------------------------------------------------------------------

def _parse_row(alt_obj: dict, criteria, name: str, alt: str) -> tuple[Triple, ...]:
    """The triples of the cells ``ratings[name][alt][crit]``, one per
    criterion; their coordinates are formatted only when one is rejected.
    This is the one check of a rating: the problem and its cells store the
    triples unchecked, so each must be settled, three finite, non-negative
    floats with every zero +0.0 that ``_settle`` keeps as they are. With an
    ``fsum`` of 1 or divided by it, the masses have a plain sum within about
    5e-16 of 1, which ``_settle`` keeps. ``x or 0.0`` reads -0.0 as +0.0 and
    returns every other float as the very object decoded, so a triple adds
    no float to the document's."""
    row = []
    for crit in criteria:
        value = alt_obj[crit]
        try:
            a, b, c = value
        except (TypeError, ValueError):  # not three items: fails the check below
            a = b = c = None
        if not (type(a) is type(b) is type(c) is float and 0.0 <= a < _INF and 0.0 <= b < _INF and 0.0 <= c < _INF):
            # such floats pass every check here; any other cell, ints included, takes them
            where = _where("ratings", (name, alt, crit))
            value = a, b, c = _number_list(value, 3, where)
            for i, x in enumerate(value):
                if x < 0:
                    raise ValidationError(f"{where}[{i}]: mass must be non-negative, got {x}")
        try:
            total = math.fsum(value)
        except OverflowError:  # finite masses whose sum is beyond float range
            total = _INF
        if total != 1.0:
            if abs(total - 1.0) > RATING_SUM_TOLERANCE:
                raise ValidationError(f"{_where('ratings', (name, alt, crit))}: masses sum to {total!r}, expected 1")
            a, b, c = a / total, b / total, c / total
        row.append((a or 0.0, b or 0.0, c or 0.0))
    return tuple(row)


def _build_problem(doc, alpha: float) -> DecisionProblem:
    root = _expect_dict(doc, "document")
    _check_keys(root, _REQUIRED_KEYS, "document", "field", _OPTIONAL_KEYS)

    version = _expect_str(root["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"schema_version: unsupported version {version!r}, expected {SCHEMA_VERSION!r}")

    if "frame" in root and _label_list(root["frame"], "frame") != FRAME:
        raise SchemaError(f"frame: must be {list(FRAME)!r} in schema version 1")

    alternatives = _label_list(root["alternatives"], "alternatives")
    criteria = _label_list(root["criteria"], "criteria")
    scales = _parse_scales(root.get("scales", {}), "scales")

    dm_entries = _expect_list(root["decision_makers"], "decision_makers")
    if not dm_entries:
        raise SchemaError("decision_makers: must not be empty")
    dm_names: dict[str, None] = {}  # in document order, with a membership test in constant time
    dm_weights: list[Interval] = []
    criterion_weights: list[tuple[Interval, ...]] = []
    for i, entry in enumerate(dm_entries):
        where = f"decision_makers[{i}]"
        entry = _expect_dict(entry, where)
        _check_keys(entry, ("name", "weight", "criterion_weights"), where, "field")
        name = _expect_str(entry["name"], f"{where}.name")
        if not name:
            raise SchemaError(f"{where}.name: must not be empty")
        if name in dm_names:
            raise SchemaError(f"{where}.name: duplicate decision maker {name!r}")
        dm_names[name] = None
        dm_weights.append(_parse_weight(entry["weight"], scales, alpha, f"{where}.weight"))
        ws = _expect_list(entry["criterion_weights"], f"{where}.criterion_weights")
        if len(ws) != len(criteria):
            raise SchemaError(f"{where}.criterion_weights: expected {len(criteria)} entries, got {len(ws)}")
        weights = (_parse_weight(w, scales, alpha, f"{where}.criterion_weights[{c}]") for c, w in enumerate(ws))
        criterion_weights.append(tuple(weights))

    for field, group in ("weight", dm_weights), ("criterion_weights", [w for ws in criterion_weights for w in ws]):
        if max(w.hi for w in group) <= 0.0:
            raise ValidationError(f"decision_makers[*].{field}: weights must not all be zero")

    ratings_obj = _expect_dict(root["ratings"], "ratings")
    _check_keys(ratings_obj, dm_names, "ratings", "decision maker")
    triples: list[tuple[tuple[Triple, ...], ...]] = []
    criteria_set = set(criteria)
    for name in dm_names:
        where = _where("ratings", (name,))
        dm_obj = _expect_dict(ratings_obj[name], where)
        _check_keys(dm_obj, alternatives, where, "alternative")
        rows: list[tuple[Triple, ...]] = []
        for alt in alternatives:
            alt_obj = dm_obj[alt]
            if not isinstance(alt_obj, dict) or alt_obj.keys() != criteria_set:
                alt_where = _where("ratings", (name, alt))
                _check_keys(_expect_dict(alt_obj, alt_where), criteria, alt_where, "criterion")
            rows.append(_parse_row(alt_obj, criteria, name, alt))
            dm_obj[alt] = None  # the decoded row, freed: the document shrinks as the triples grow
        triples.append(tuple(rows))

    return DecisionProblem(alternatives, criteria, tuple(dm_names), tuple(dm_weights), tuple(criterion_weights),
                           tuple(triples))
