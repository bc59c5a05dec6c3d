"""Shared pytest configuration for the test suite."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: multi-second end-to-end scenario (deselect with -m 'not slow')")
