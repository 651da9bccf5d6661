"""Fixtures shared by the test modules."""

import pytest

from posenergy import ingestion, report


@pytest.fixture
def empty_memos():
    """Every per-process memo starts empty, so what they hold comes from this test alone.

    Those are the last snapshot file written, with its records and lines, and
    the last call of ``fit_networks``, with its observations and fits.
    """
    ingestion._last_written = (b"", None, {})
    report._last_fits = ((), True, ())
