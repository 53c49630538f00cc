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
    return parsed.astimezone(timezone.utc).replace(microsecond=0)


def format_iso_datetime(value: datetime) -> str:
    return value.astimezone(timezone.utc).replace(microsecond=0).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def temporal_sort_key(iso: Optional[str]) -> str:
    """Orderable key for mixed date / datetime ISO strings: the UTC instant,
    to the second, as ``YYYY-MM-DDTHH:MM:SSZ``; None sorts first."""
    if iso is None:
        return ""
    # timestamps are checked when they enter the engine, so the separators
    # at every third position from 4 tell the two canonical forms apart
    shape = iso[4::3]
    if shape == "--T::Z" and len(iso) == 20:
        return iso
    if shape == "--" and len(iso) == 10:
        return iso + "T00:00:00Z"
    return format_iso_datetime(parse_iso_datetime(iso))


_SCALAR_TYPES = (str, int, float, bool)


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
            try:
                return date.fromisoformat(value.strip())
            except ValueError:
                raise DTypeMismatch(f"not an ISO date: {value!r}") from None
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
        if re.match(r"^\d{4}-\d{2}-\d{2}$", text):
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
        if self.valid_from is not None and self.valid_to is not None:
            if temporal_sort_key(self.valid_from) > temporal_sort_key(self.valid_to):
                raise ValidationFailure(
                    f"valid_from {self.valid_from} after valid_to {self.valid_to}"
                )


@dataclass(frozen=True)
class Event:
    id: Optional[int]
    event_type: str
    anchor_datetime: str
    location: Optional[str] = None

    def __post_init__(self):
        if "T" in self.anchor_datetime:
            parse_iso_datetime(self.anchor_datetime)
        else:
            try:
                date.fromisoformat(self.anchor_datetime)
            except ValueError:
                raise ValidationFailure(
                    f"anchor_datetime not ISO-8601: {self.anchor_datetime!r}"
                ) from None


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
    id: Optional[int]
    session_id: str
    speaker: str
    listener: str
    text: str
    anchor_datetime: str
    ordinal: int = 0

    def __post_init__(self):
        parse_iso_datetime(self.anchor_datetime)
        if self.ordinal < 0:
            raise ValidationFailure(f"negative ordinal: {self.ordinal}")
