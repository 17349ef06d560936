"""Tests marked ``slow`` run only with ``CPSKIT_SLOW=1`` in the environment."""

import os

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("CPSKIT_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow: set CPSKIT_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
