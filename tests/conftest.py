"""Fixtures shared by the test modules."""

import pytest

from posenergy import ingestion, regression


@pytest.fixture
def empty_memos():
    """Every per-process memo starts empty, so what they hold comes from this test alone.

    Those are the last snapshot file written, with its records and lines, and
    the last fit of each network.
    """
    ingestion._last_written = (b"", None, {})
    regression._last_fits.clear()
