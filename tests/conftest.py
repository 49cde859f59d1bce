"""Every test starts from empty request memos, as a fresh process does."""

import pytest

from oracles import empty_request_memos


@pytest.fixture(autouse=True)
def _empty_request_memos():
    empty_request_memos()
