"""Every name the packages export resolves."""

from __future__ import annotations

import rwdetect
import rwdetect.classifiers


def test_star_imports_resolve():
    for module in (rwdetect, rwdetect.classifiers):
        namespace: dict = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= namespace.keys(), module.__name__


def test_table_types_are_exported():
    """``parse_pcap`` and ``aggregate`` return these; callers may name them."""
    assert {"PacketTable", "ConversationTable"} <= set(rwdetect.__all__)
