"""Wall-time limit for tests of inputs whose cost must stay bounded."""

import signal
from contextlib import contextmanager


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block after `seconds` of wall time, so a
    search that does not finish fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
