"""Session setup and helpers shared by the test modules."""

import tracemalloc

from hypothesis import configuration


def pytest_configure(config):
    # hypothesis writes a cache of the constants it reads from local source
    # files to its storage directory, even with database=None; keep it in
    # pytest's cache directory rather than a .hypothesis/ in the working tree
    cache = getattr(config, "cache", None)
    if cache is not None:
        configuration.set_hypothesis_home_dir(cache.mkdir("hypothesis"))


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc traces during one call ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
