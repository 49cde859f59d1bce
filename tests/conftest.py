"""Every test starts from an empty catalog memo, as a fresh process does.

The memo holds each configuration the process keeps, with the pipeline,
integral presentation, certificates and engines its entry has built.
"""

import pytest

from oracles import empty_request_memos


@pytest.fixture(autouse=True)
def _empty_request_memos():
    empty_request_memos()
