"""Run platevac's CLI in this interpreter, as ``python -m platevac.cli`` would.

Usage: python cli_child.py plain|traced|setup <platevac arguments...>

``plain`` runs one CLI call while sampling :func:`calibrate.reference`
once at the start and then from a SIGALRM handler every
``SAMPLE_PERIOD_S`` seconds, on the main thread, so the samples see the
same core as the call.  ``setup`` does the same around
``import platevac.cli`` alone and prints its time to stdout.
``traced`` installs the span tracer instead of sampling.  The samples
or the spans follow on stderr as one line that starts with ``MARKER``.
"""

import signal
import sys
import time

MARKER = "perfbench-child "
SAMPLE_PERIOD_S = 0.05


class _Shielded:
    """A text stream whose writes SIGALRM cannot interrupt.

    A signal that lands in the middle of a large write to a pipe makes
    the buffered writer drop data (seen as truncated JSON), so the
    signal is held back for the length of each write and flush.
    """

    def __init__(self, stream) -> None:
        self._stream = stream

    def _call(self, method, *args):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return method(*args)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def write(self, text: str) -> int:
        return self._call(self._stream.write, text)

    def flush(self) -> None:
        self._call(self._stream.flush)

    def __getattr__(self, name: str):
        return getattr(self._stream, name)


def _start_sampling(samples: list) -> None:
    import calibrate

    def sample(*_) -> None:
        calibrate.reference()  # warms the caches the call has evicted
        samples.append(calibrate.reference())

    sys.stdout, sys.stderr = _Shielded(sys.stdout), _Shielded(sys.stderr)
    sample()
    signal.signal(signal.SIGALRM, sample)
    signal.siginterrupt(signal.SIGALRM, False)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    report = []
    if mode != "traced":
        _start_sampling(report)
    start = time.perf_counter()
    import platevac.cli

    setup_s = time.perf_counter() - start
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return 0 if mode == "setup" else platevac.cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        import json

        if mode == "traced":
            report = tracer.export()
        elif mode == "setup":
            print(setup_s)
        sys.stdout.flush()
        print(MARKER + json.dumps(report), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
