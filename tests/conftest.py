"""Session set-up shared by every test module."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


@pytest.fixture(scope="session", autouse=True)
def hypothesis_unicode_tables():
    """Draw one `st.text()` example before the first test.

    In a checkout without `.hypothesis/unicode_data`, the first text draw
    builds Hypothesis's Unicode tables (about 2 s). Done here, at the top
    level of a `given`, the build happens before generation is timed; done
    inside a composite strategy's draw, it fails that test's `too_slow`
    health check, as `pytest tests/test_core.py` on a fresh checkout did.
    """

    @settings(max_examples=1, database=None)
    @given(st.text())
    def draw_text(text):
        pass

    draw_text()
