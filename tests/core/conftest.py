"""Core-suite fixtures: no test may leave a thread of its own running.

A checkpoint load checks its archive on two checkers, the caller and one
helper thread, and the helper must be joined before the load returns or
raises: the router forks shard workers, and a fork copies no thread.
The guard below holds that over every load path the core suite runs.
"""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    before = set(threading.enumerate())
    yield
    leaked = [
        thread for thread in threading.enumerate()
        if thread not in before and thread.is_alive()
    ]
    assert not leaked, f"threads left running: {leaked}"
