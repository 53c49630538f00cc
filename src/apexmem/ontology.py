"""Closed vocabularies (entity types, roles, data types) and the core domain tuples.

Everything here is an immutable value object; instances are safe to share
between threads without synchronization.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from enum import Enum
from typing import Any, Optional
from urllib.parse import urlparse

from .errors import DTypeMismatch, UnknownEntityType, ValidationFailure


class EntityType(Enum):
    Person = "Person"
    Organization = "Organization"
    Corporation = "Corporation"
    Animal = "Animal"
    Plant = "Plant"
    Taxonomy = "Taxonomy"
    Place = "Place"
    Event = "Event"
    Time = "Time"
    Product = "Product"
    Device = "Device"
    Vehicle = "Vehicle"
    Software = "Software"
    Dataset = "Dataset"
    Service = "Service"
    CreativeWork = "CreativeWork"
    Document = "Document"
    Message = "Message"
    Stock = "Stock"
    Contract = "Contract"
    Food = "Food"
    Medication = "Medication"
    Disease = "Disease"
    Topic = "Topic"
    Metric = "Metric"
    Task = "Task"
    Group = "Group"
    NaturalPhenomenon = "NaturalPhenomenon"
    Skill = "Skill"
    Goal = "Goal"
    Preference = "Preference"
    Language = "Language"
    Currency = "Currency"
    Award = "Award"
    Rule = "Rule"


class Role(Enum):
    Speaker = "Speaker"
    Listener = "Listener"
    Agent = "Agent"
    Mentioned = "Mentioned"


class DType(Enum):
    str = "str"
    int = "int"
    float = "float"
    bool = "bool"
    date = "date"
    datetime = "datetime"
    enum = "enum"
    url = "url"
    list = "list"


_PROPERTY_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

# Canonical spelling is UpperCamelCase; SCREAMING_SNAKE and other casings
# are accepted on input by comparing the folded form ("CREATIVE_WORK" ->
# "creativework" -> CreativeWork).
_FOLDED_ENTITY_TYPES = {
    member.value.lower(): member for member in EntityType
}


def _fold(name: str) -> str:
    return re.sub(r"[\s_\-]+", "", name.strip()).lower()


def validate_entity_type(name: str) -> EntityType:
    """Map a type name to its taxonomy member, case/underscore-insensitively."""
    member = _FOLDED_ENTITY_TYPES.get(_fold(name))
    if member is None:
        raise UnknownEntityType(f"unknown entity type: {name!r}")
    return member


def validate_role(name: str) -> Role:
    try:
        return Role[_fold(name).capitalize()]
    except KeyError:
        raise ValidationFailure(f"unknown role: {name!r}") from None


def validate_property_name(name: str) -> str:
    if not _PROPERTY_NAME_RE.match(name):
        raise ValidationFailure(f"property name not snake_case: {name!r}")
    return name


def normalize_name(name: str) -> str:
    """Trim and collapse internal whitespace; reject empty results."""
    normalized = " ".join(name.split())
    if not normalized:
        raise ValidationFailure("entity name empty after normalization")
    return normalized


def parse_iso_datetime(value: str) -> datetime:
    """Parse an ISO-8601 timestamp (date-only allowed) to an aware UTC datetime."""
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise ValidationFailure(f"not an ISO-8601 timestamp: {value!r}") from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    try:
        parsed = parsed.astimezone(timezone.utc)
    except OverflowError:  # 0001-01-01T00:00:00+05:00, say
        raise ValidationFailure(f"not an instant of the UTC calendar: {value!r}") from None
    return parsed.replace(microsecond=0)


def format_iso_datetime(value: datetime) -> str:
    # isoformat, unlike strftime, writes a year below 1000 in four digits
    return value.astimezone(timezone.utc).replace(microsecond=0, tzinfo=None).isoformat() + "Z"


def canonical_stamp(text: str) -> str:
    """The one spelling the engine stores a timestamp in, RFC 3339's UTC
    profile: a date-only stamp as ``YYYY-MM-DD``, any other as its UTC
    instant to the second, ``YYYY-MM-DDTHH:MM:SSZ``; one already so spelt
    is checked and returned. Stamps so spelt sort as text in time order, a
    date just before its midnight, so readers compare them as text."""
    shape = text[4::3]
    try:
        if shape == "--" and len(text) == 10:
            date.fromisoformat(text)
            return text
        if shape == "--T::Z" and len(text) == 20:
            datetime.fromisoformat(text[:19])
            return text
    except ValueError:
        raise ValidationFailure(f"not an ISO-8601 timestamp: {text!r}") from None
    moment = parse_iso_datetime(text)
    try:
        return date.fromisoformat(text.strip()).isoformat()
    except ValueError:
        return format_iso_datetime(moment)


def temporal_sort_key(stamp: Optional[str]) -> str:
    """The fact order's key of a canonical stamp (``canonical_stamp``): a
    date reads as its midnight UTC instant, so that the two tie and
    ``created_at`` decides between them; None sorts first."""
    if stamp is None:
        return ""
    return stamp + "T00:00:00Z" if len(stamp) == 10 else stamp


def as_of_cutoff(as_of: Optional[str]) -> Optional[str]:
    """The as-of rule's cutoff for a question date D, as a canonical stamp:
    D is an instant, and a date-only D is the last second of its UTC day, so
    that what was stated on the day the question is asked counts. None, for
    no D, cuts nothing. A row is known at D when its known-at stamp is at or
    before the cutoff (``known_at``); a fact is in force at D when its
    ``valid_from`` is unset or at or before it."""
    if as_of is None:
        return None
    stamp = canonical_stamp(as_of)
    return stamp + "T23:59:59Z" if len(stamp) == 10 else stamp


def known_at(key, cutoff: Optional[str]):
    """Whether a row whose known-at stamp (canonical, or its sort key) is
    ``key`` is known at ``cutoff`` (``as_of_cutoff``); element-wise for an
    array of keys. Every as-of cut of the engine is this comparison."""
    return cutoff is None or key <= cutoff


_SCALAR_TYPES = (str, int, float, bool)

# the only text a date value may be, after strip(): date.fromisoformat
# alone also reads "20240501", "2024-W18-3" and "20240501T1" as 2024-05-01
ISO_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


def validate_dtype_value(value: Any, dtype: DType) -> Any:
    """Canonicalize ``value`` under ``dtype`` or raise DTypeMismatch.

    Coercion is lossless only: numeric strings parse to numbers, ISO strings
    parse to date/datetime, everything else is rejected.
    """
    if dtype is DType.str:
        if isinstance(value, str):
            return value
        raise DTypeMismatch(f"expected str, got {type(value).__name__}")

    if dtype is DType.int:
        if isinstance(value, bool):
            raise DTypeMismatch("bool is not an int")
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError:
                raise DTypeMismatch(f"not an integer: {value!r}") from None
        raise DTypeMismatch(f"not an integer: {value!r}")

    if dtype is DType.float:
        if isinstance(value, bool):
            raise DTypeMismatch("bool is not a float")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError:
                raise DTypeMismatch(f"not a float: {value!r}") from None
        raise DTypeMismatch(f"not a float: {value!r}")

    if dtype is DType.bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.strip().lower() in ("true", "false"):
            return value.strip().lower() == "true"
        raise DTypeMismatch(f"not a bool: {value!r}")

    if dtype is DType.date:
        if isinstance(value, datetime):
            raise DTypeMismatch("datetime carries a time component; dtype is date")
        if isinstance(value, date):
            return value
        if isinstance(value, str):
            text = value.strip()
            try:
                if ISO_DATE_RE.fullmatch(text):
                    return date.fromisoformat(text)
            except ValueError:
                pass
            raise DTypeMismatch(f"not an ISO date: {value!r}")
        raise DTypeMismatch(f"not a date: {value!r}")

    if dtype is DType.datetime:
        if isinstance(value, datetime):
            if value.tzinfo is None:
                value = value.replace(tzinfo=timezone.utc)
            return value.astimezone(timezone.utc).replace(microsecond=0)
        if isinstance(value, str):
            try:
                return parse_iso_datetime(value)
            except ValidationFailure:
                raise DTypeMismatch(f"not an ISO datetime: {value!r}") from None
        raise DTypeMismatch(f"not a datetime: {value!r}")

    if dtype is DType.enum:
        if isinstance(value, str) and value:
            return value
        raise DTypeMismatch(f"enum values are non-empty strings: {value!r}")

    if dtype is DType.url:
        if isinstance(value, str):
            parsed = urlparse(value)
            if parsed.scheme and (parsed.netloc or parsed.path):
                return value
        raise DTypeMismatch(f"not a URL with a scheme: {value!r}")

    if dtype is DType.list:
        if isinstance(value, list) and all(
            isinstance(item, _SCALAR_TYPES) for item in value
        ):
            return list(value)
        raise DTypeMismatch(f"not a list of scalars: {value!r}")

    raise DTypeMismatch(f"unsupported dtype: {dtype!r}")


def serialize_value(value: Any, dtype: DType) -> Any:
    """Convert a validated value to its JSON-encodable form."""
    value = validate_dtype_value(value, dtype)
    if dtype is DType.date:
        return value.isoformat()
    if dtype is DType.datetime:
        return format_iso_datetime(value)
    return value


def infer_dtype(value: Any) -> DType:
    """Best-effort dtype inference used by property resolution."""
    if isinstance(value, bool):
        return DType.bool
    if isinstance(value, int):
        return DType.int
    if isinstance(value, float):
        return DType.float
    if isinstance(value, datetime):
        return DType.datetime
    if isinstance(value, date):
        return DType.date
    if isinstance(value, list):
        return DType.list
    if isinstance(value, str):
        text = value.strip()
        if ISO_DATE_RE.fullmatch(text):
            try:
                date.fromisoformat(text)
                return DType.date
            except ValueError:
                pass
        if re.match(r"^\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}", text):
            try:
                parse_iso_datetime(text)
                return DType.datetime
            except ValidationFailure:
                pass
        parsed = urlparse(text)
        if parsed.scheme in ("http", "https", "ftp") and parsed.netloc:
            return DType.url
        return DType.str
    raise DTypeMismatch(f"cannot infer dtype for: {value!r}")


@dataclass(frozen=True)
class Entity:
    id: Optional[int]
    name: str
    etype: EntityType
    role: Role
    aliases: frozenset = frozenset()
    external_id: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "name", normalize_name(self.name))
        object.__setattr__(self, "aliases", frozenset(self.aliases))


@dataclass(frozen=True)
class Fact:
    """One stated value of a subject's property. ``created_at`` is when the
    memory learned it, which decides whether it is known at a question date;
    ``valid_from`` is when it took effect, which decides whether it is in
    force then (see ``as_of_cutoff``). ``valid_to`` ends the window of an
    imprecise date, such as 2024-02-01 .. 2024-02-29 for "last month"; it is
    stored and shown, and no as-of rule reads it. The stamps are checked,
    spelt canonically and ordered when the fact is stored."""
    id: Optional[int]
    subject_id: int
    property_name: str
    value: Any
    dtype: DType
    valid_from: Optional[str] = None
    valid_to: Optional[str] = None
    confidence: float = 1.0
    created_at: Optional[str] = None

    def __post_init__(self):
        validate_property_name(self.property_name)
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationFailure(
                f"confidence out of range: {self.confidence}"
            )
        object.__setattr__(
            self, "value", validate_dtype_value(self.value, self.dtype)
        )


@dataclass(frozen=True)
class Event:
    id: Optional[int]
    event_type: str
    anchor_datetime: str
    location: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "anchor_datetime", canonical_stamp(self.anchor_datetime))


@dataclass(frozen=True)
class Evidence:
    id: Optional[int]
    event_id: Optional[int]
    turn_id: int
    text_span: tuple
    quoted_text: str
    fact_id: Optional[int] = None  # a position in its bundle's facts

    def __post_init__(self):
        start, end = self.text_span
        if not (0 <= start < end):
            raise ValidationFailure(f"bad evidence span: {self.text_span}")


@dataclass(frozen=True)
class Turn:
    """One utterance of a session. ``anchor_datetime`` is spelt canonically
    (``canonical_stamp``) when the turn is made."""
    id: Optional[int]
    session_id: str
    speaker: str
    listener: str
    text: str
    anchor_datetime: str
    ordinal: int = 0

    def __post_init__(self):
        object.__setattr__(self, "anchor_datetime", canonical_stamp(self.anchor_datetime))
        if self.ordinal < 0:
            raise ValidationFailure(f"negative ordinal: {self.ordinal}")
