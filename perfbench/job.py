"""One benchmark job: ``python -m lineperc ARGS`` with timestamps around it.

    python perfbench/job.py RECORD MODE [-- LINEPERC_ARGS...]

MODE is ``off`` (plain timed job), ``trace`` (every layer traced, see
``tracer.py``), ``pools`` (only process-pool constructions counted) or
``import`` (import ``lineperc.cli`` and stop; used to warm caches).

The job runs ``lineperc/__main__.py`` exactly as ``python -m lineperc`` does,
so stdout and the exit code are the CLI's own.  At the end it writes RECORD,
a JSON object with the monotonic clock read just before and just after
``import lineperc.cli`` and at the end of the job, the exit code, and the
peak resident set size of the job process and of every pool worker it
forked.  The parent adds interpreter start-up by reading the same clock
before it spawns the job.
"""

import json
import os
import resource
import runpy
import struct
import sys
import time

_PEAK = struct.Struct("<q")


def _watch_worker_peaks() -> int:
    """Make every forked worker report its peak RSS (KiB) into a pipe."""
    read_fd, write_fd = os.pipe()

    def report() -> None:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        os.write(write_fd, _PEAK.pack(kib))

    def in_child() -> None:
        # a pool worker clears the Finalize registry as it starts, then runs
        # its after-fork callbacks; the Finalize registered there runs when
        # the worker leaves through multiprocessing's exit handlers
        from multiprocessing import util

        util.register_after_fork(
            _watch_worker_peaks, lambda _: util.Finalize(None, report, exitpriority=0)
        )

    os.register_at_fork(after_in_child=in_child)
    os.set_blocking(read_fd, False)
    return read_fd


def _worker_peaks(read_fd: int) -> list[int]:
    data = b""
    while True:
        try:
            chunk = os.read(read_fd, 65536)
        except BlockingIOError:
            break
        if not chunk:
            break
        data += chunk
    return [v for (v,) in _PEAK.iter_unpack(data[: len(data) // 8 * 8])]


def main() -> None:
    record_path, mode = sys.argv[1], sys.argv[2]
    lineperc_args = sys.argv[4:] if len(sys.argv) > 3 else []
    peaks_fd = _watch_worker_peaks()
    t_import = time.monotonic()
    import lineperc.cli

    t_ready = time.monotonic()
    record = {
        "t_import": t_import,
        "t_ready": t_ready,
        "cli_file": lineperc.cli.__file__,
    }
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    elif mode == "pools":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_pool_counter()
    code = 1  # kept if the CLI raises past its own handlers
    try:
        if mode != "import":
            sys.argv = ["lineperc", *lineperc_args]
            runpy.run_module("lineperc", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        if exc.code is None:
            code = 0
        elif isinstance(exc.code, int):
            code = exc.code
        else:
            code = 1
    finally:
        sys.stdout.flush()
        record["t_end"] = time.monotonic()
        record["exit_code"] = code
        record["rss_self_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["rss_workers_kib"] = _worker_peaks(peaks_fd)
        if tracer is not None:
            record.update(tracer.export())
        with open(record_path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
    sys.exit(code)


if __name__ == "__main__":
    main()
