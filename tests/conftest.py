"""Marks every test in test_acceptance.py `slow`, so that
`pytest -m "not slow"` runs the unit tests alone in seconds."""

import pytest


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)
