"""Arbitrary text through every CSV reader ends in a typed error or a result.

Each reader either returns or raises a ``RwdetectError`` subclass: the
packet readers (strict and lenient), the conversation reader (strict and
lenient) and the dataset reader.  Text is drawn at random and around each
reader's valid header, with fields that look like the real ones.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rwdetect.capture import (
    PACKET_CSV_HEADER,
    parse_packet_csv,
)
from rwdetect.conversation import (
    CONVERSATION_CSV_HEADER,
    ConversationCsvWarning,
    csv_to_conversations,
)
from rwdetect.errors import RowError, RwdetectError, SchemaMismatch
from rwdetect.features import DATASET_CSV_HEADER, read_dataset_csv

READERS = {
    "packet": (PACKET_CSV_HEADER, lambda text: parse_packet_csv(text)[0]),
    "packet-lenient": (PACKET_CSV_HEADER,
                       lambda text: parse_packet_csv(text, lenient=True)),
    "conversation": (CONVERSATION_CSV_HEADER, csv_to_conversations),
    "conversation-lenient": (CONVERSATION_CSV_HEADER,
                             lambda text: csv_to_conversations(text, strict=False)),
    "dataset": (DATASET_CSV_HEADER, read_dataset_csv),
}

#: One field longer than the csv module's default limit of 131,072.
OVERSIZED = "1" * 131_073

FIELDS = st.one_of(
    st.sampled_from(["6", "17", "1", "0", "-1", "65535", "65536", "2147483647",
                     "9223372036854775807", "9223372036854775808", "1.5", "1e309",
                     "nan", "-inf", "10.0.0.1", "10.0.0.01", "10.1", "::1",
                     "255.255.255.255", "ransomware", "benign", "", "﻿",
                     '"', '""', "a\rb", "\x00", "١٢"]),
    st.text(max_size=12),
)


@st.composite
def around_header(draw, header):
    """The header, then rows of header-like fields, one sometimes quoted."""
    rows = draw(st.lists(st.lists(FIELDS, min_size=len(header) - 2,
                                  max_size=len(header) + 1), max_size=6))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def read(name: str, text: str):
    _header, reader = READERS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConversationCsvWarning)
        try:
            return reader(text)
        except RwdetectError as exc:
            return exc


@pytest.mark.parametrize("name", READERS)
@given(text=st.text())
@example(text="\r\n")
@example(text=OVERSIZED + "\n")
def test_arbitrary_text(name, text):
    read(name, text)


@pytest.mark.parametrize("name", READERS)
@given(data=st.data())
def test_text_around_header(name, data):
    header, _reader = READERS[name]
    read(name, data.draw(around_header(header)))


@pytest.mark.parametrize("name", READERS)
def test_oversized_field(name):
    header, _reader = READERS[name]
    got = read(name, ",".join(header) + "\n" + OVERSIZED + "\n")
    if name == "packet-lenient":
        assert len(got[0]) == 0 and got[1].rows_skipped_malformed == 1
    else:
        assert isinstance(got, RowError) and got.line == 2
    assert isinstance(read(name, OVERSIZED + "\n"), SchemaMismatch)


def test_lenient_packet_reader_resumes_after_an_unreadable_row():
    header = ",".join(PACKET_CSV_HEADER)
    good = "1.0,10.0.0.1,1000,10.0.0.2,80,6,100"
    records, summary = parse_packet_csv(
        "\n".join([header, good, "2.0," + OVERSIZED, "a\rb", good]) + "\n",
        lenient=True)
    assert [r.timestamp for r in records] == [1.0, 1.0]
    assert summary.rows_skipped_malformed == 2
