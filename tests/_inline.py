"""``checks.forked`` run in the test's own process, for tests that count
or patch the calls of a stage."""

import contextlib


@contextlib.contextmanager
def lazy_inline(fn):
    """Stands in for ``checks.forked``: no child is forked, and the join runs
    ``fn`` here, where a test's patches and counters see every call."""
    yield fn
