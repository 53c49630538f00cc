import datetime as dt

import pytest
from hypothesis import given, strategies as st

from apexmem import ontology
from apexmem.errors import DTypeMismatch, UnknownEntityType, ValidationFailure
from apexmem.ontology import (
    DType,
    EntityType,
    Fact,
    Role,
    as_of_cutoff,
    canonical_stamp,
    format_iso_datetime,
    parse_iso_datetime,
    serialize_value,
    temporal_sort_key,
    validate_dtype_value,
    validate_entity_type,
    validate_role,
)


def test_entity_type_has_exactly_35_members():
    assert len(EntityType) == 35


def test_role_members():
    assert {r.name for r in Role} == {"Speaker", "Listener", "Agent", "Mentioned"}


def test_dtype_members():
    assert {d.value for d in DType} == {
        "str", "int", "float", "bool", "date", "datetime", "enum", "url", "list",
    }


def test_validate_entity_type_case_insensitive():
    assert validate_entity_type("person") is EntityType.Person
    assert validate_entity_type("PERSON") is EntityType.Person
    assert validate_entity_type("natural_phenomenon") is EntityType.NaturalPhenomenon


def test_validate_entity_type_unknown():
    with pytest.raises(UnknownEntityType):
        validate_entity_type("starship")


def test_validate_role():
    assert validate_role("speaker") is Role.Speaker
    with pytest.raises(ValidationFailure):
        validate_role("bystander")


def test_parse_iso_datetime_z_suffix():
    parsed = parse_iso_datetime("2024-01-15T10:00:00Z")
    assert parsed.tzinfo is not None
    assert format_iso_datetime(parsed) == "2024-01-15T10:00:00Z"


def test_parse_iso_datetime_rejects_garbage():
    with pytest.raises(ValidationFailure):
        parse_iso_datetime("not a date")


def test_temporal_sort_key_date_only_vs_datetime():
    assert temporal_sort_key("2024-01-15") < temporal_sort_key("2024-01-15T10:00:00Z")
    assert temporal_sort_key("2024-01-15") == temporal_sort_key("2024-01-15T00:00:00Z")
    assert temporal_sort_key(None) < temporal_sort_key("1900-01-01")


ROUND_TRIP_CASES = [
    (DType.str, "hello"),
    (DType.int, 42),
    (DType.float, 3.25),
    (DType.bool, True),
    (DType.date, dt.date(2023, 5, 7)),
    (DType.datetime, "2023-05-07T10:00:00Z"),
    (DType.enum, "medium"),
    (DType.url, "https://example.com/a?b=1"),
    (DType.list, ["a", "b", 3]),
]


@pytest.mark.parametrize("dtype,value", ROUND_TRIP_CASES)
def test_all_nine_dtypes_round_trip(dtype, value):
    canonical = validate_dtype_value(value, dtype)
    wire = serialize_value(canonical, dtype)
    assert validate_dtype_value(wire, dtype) == canonical


def test_bool_is_not_an_int():
    with pytest.raises(DTypeMismatch):
        validate_dtype_value(True, DType.int)
    with pytest.raises(DTypeMismatch):
        validate_dtype_value(True, DType.float)


def test_date_rejects_datetime_string():
    with pytest.raises(DTypeMismatch):
        validate_dtype_value("2023-05-07T10:00:00Z", DType.date)


@pytest.mark.parametrize("text", ["20240501T1", "2024050110", "20240501", "2024-W18-3"])
def test_date_rejects_every_spelling_but_yyyy_mm_dd(text):
    """date.fromisoformat reads each of these as 2024-05-01."""
    with pytest.raises(DTypeMismatch):
        validate_dtype_value(text, DType.date)


def test_fact_validates_confidence():
    """A fact's stamps and their order are checked when it is stored
    (``test_a_fact_window_is_checked_when_stored``); its confidence when it
    is made."""
    ok = Fact(None, 1, "favorite_color", "blue", DType.str,
              "2024-01-01", "2024-02-01", 1.0, "2024-01-01T00:00:00Z")
    assert ok.valid_from == "2024-01-01"
    with pytest.raises(ValidationFailure):
        Fact(None, 1, "favorite_color", "blue", DType.str,
             "2024-01-01", None, 1.5, "2024-01-01T00:00:00Z")


def test_fact_rejects_bad_property_name():
    with pytest.raises(ValidationFailure):
        Fact(None, 1, "Favorite Color", "blue", DType.str,
             "2024-01-01", None, 1.0, "2024-01-01T00:00:00Z")


@given(st.integers(min_value=-10**12, max_value=10**12))
def test_int_round_trip_property(value):
    wire = serialize_value(validate_dtype_value(value, DType.int), DType.int)
    assert validate_dtype_value(wire, DType.int) == value


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_float_round_trip_property(value):
    wire = serialize_value(validate_dtype_value(value, DType.float), DType.float)
    assert validate_dtype_value(wire, DType.float) == value


@given(st.text(max_size=200))
def test_str_round_trip_property(value):
    wire = serialize_value(validate_dtype_value(value, DType.str), DType.str)
    assert validate_dtype_value(wire, DType.str) == value


@given(st.dates(min_value=dt.date(1, 1, 1), max_value=dt.date(9999, 12, 31)))
def test_date_round_trip_property(value):
    wire = serialize_value(validate_dtype_value(value, DType.date), DType.date)
    assert validate_dtype_value(wire, DType.date) == value


_DATE_LIKE_TEXT = st.one_of(
    st.builds(
        lambda day, form, pad: pad + day.strftime(form) + pad,
        st.dates(min_value=dt.date(1000, 1, 1), max_value=dt.date(9999, 12, 31)),
        st.sampled_from(["%Y-%m-%d", "%Y%m%d", "%Y%m%dT1", "%Y%m%d10", "%G-W%V-%u"]),
        st.sampled_from(["", " ", "\n"]),
    ),
    st.text(st.sampled_from("0123456789-WT: \u0663"), max_size=12),
)


@given(_DATE_LIKE_TEXT)
def test_an_accepted_date_text_is_its_value_spelt_in_iso(text):
    """A date text is accepted only as its value's ISO spelling, around
    which only whitespace may stand."""
    try:
        value = validate_dtype_value(text, DType.date)
    except DTypeMismatch:
        return
    assert text.strip() == value.isoformat()


def test_infer_dtype():
    assert ontology.infer_dtype(True) is DType.bool
    assert ontology.infer_dtype(3) is DType.int
    assert ontology.infer_dtype(3.5) is DType.float
    assert ontology.infer_dtype(dt.date(2024, 1, 1)) is DType.date
    assert ontology.infer_dtype([1, 2]) is DType.list
    assert ontology.infer_dtype("hello") is DType.str


def test_canonical_stamp_spells_each_instant_in_utc():
    assert canonical_stamp("2024-05-01T22:00:00Z") == "2024-05-01T22:00:00Z"
    assert canonical_stamp("2024-05-02T01:00:00+05:00") == "2024-05-01T20:00:00Z"
    assert canonical_stamp("2024-05-01T22:00:00.5Z") == "2024-05-01T22:00:00Z"
    assert canonical_stamp("2024-05-01") == "2024-05-01"
    # same lengths as the canonical forms, other separators
    assert canonical_stamp("2024-05-01 22:00:00Z") == "2024-05-01T22:00:00Z"
    assert canonical_stamp("2024-W18-3") == "2024-05-01"
    # a year below 1000 keeps its four digits
    assert canonical_stamp("0500-01-01T05:00:00+05:00") == "0500-01-01T00:00:00Z"
    for text in ("March 1", "2024-13-01", "2024-05-01T24:00:00Z", "20240501T1", ""):
        with pytest.raises(ValidationFailure):
            canonical_stamp(text)
    assert canonical_stamp("2024-05-02T01:00:00+05:00") < canonical_stamp(
        "2024-05-01T22:00:00Z"
    )


@given(
    st.lists(
        st.tuples(
            st.datetimes(
                min_value=dt.datetime(1901, 1, 1), max_value=dt.datetime(2099, 12, 31)
            ),
            st.integers(min_value=-14 * 60, max_value=14 * 60),
        ),
        min_size=2,
        max_size=6,
    )
)
def test_canonical_stamps_order_as_utc_instants(stamps):
    """Canonical stamps, as text, are in UTC-instant order (to the second)
    for any mix of offsets, and are their own canonical spelling."""
    instants, texts = [], []
    for local, offset_minutes in stamps:
        tz = dt.timezone(dt.timedelta(minutes=offset_minutes))
        moment = local.replace(microsecond=0, tzinfo=tz)
        instants.append(moment)
        texts.append(moment.isoformat())
    for a in range(len(texts)):
        for b in range(len(texts)):
            assert (canonical_stamp(texts[a]) < canonical_stamp(texts[b])) == (
                instants[a] < instants[b]
            )
            assert (canonical_stamp(texts[a]) == canonical_stamp(texts[b])) == (
                instants[a] == instants[b]
            )
        assert canonical_stamp(canonical_stamp(texts[a])) == canonical_stamp(texts[a])


# dates, and instants at and around the edges of their UTC days
_DAY_EDGE_STAMPS = st.builds(
    lambda day, time: f"2024-02-{day:02d}{time}",
    st.integers(1, 3),
    st.sampled_from(["", "T00:00:00Z", "T00:00:01Z", "T12:00:00Z", "T23:59:59Z"]),
)


@given(st.lists(_DAY_EDGE_STAMPS, min_size=2, max_size=6), _DAY_EDGE_STAMPS)
def test_canonical_text_order_is_time_order(stamps, as_of):
    """For canonical stamps, text order is (``temporal_sort_key``, text)
    order, and a stamp is at or before a cutoff as text exactly when its
    key is, so the as-of readers compare stored text."""
    assert sorted(stamps) == sorted(stamps, key=lambda stamp: (temporal_sort_key(stamp), stamp))
    cutoff = as_of_cutoff(as_of)
    for stamp in stamps:
        assert (stamp <= cutoff) == (temporal_sort_key(stamp) <= cutoff)
