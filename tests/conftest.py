"""Fixtures shared by the test modules."""

import pytest

from posenergy import ingestion, regression


@pytest.fixture
def empty_memos():
    """Every per-process memo starts empty, so what they hold comes from this test alone.

    Those are the parsed snapshot lines, the formatted observation lines and
    the last fit of each network.
    """
    ingestion._parsed_lines.clear()
    ingestion._observation_line.cache_clear()
    regression._last_fits.clear()
