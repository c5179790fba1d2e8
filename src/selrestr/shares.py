"""One piece of work in shares, each share in a process of its own.

A command that can use more than one CPU cuts its input into ``count``
shares and hands them to ``run``, which works on the first in this
process and on each other one in a child made with ``os.fork``.  A child
sends what it made back over a pipe as bytes, and ``run`` returns the
results in share order, so what the command writes does not depend on
the number of shares.  Only a command's own path decides to do this, as
``extract.extract_file`` does for ``extract``: the library functions it
calls run in one process.

The number of shares is the number of CPUs this process may run on, so
``taskset`` and cpusets bound it; no option sets it.

``os.fork`` copies only the thread that calls it, so ``run`` is for a
process that runs no other thread, as the commands do; and it is not
``multiprocessing``, whose import alone costs a command 15-18 ms.

No child outlives ``run``: it reaps every child on every way out, an
exception or ``KeyboardInterrupt`` included, and kills the ones it no
longer waits for.  A child writes nothing but its pipe, and ends with
``os._exit``, so it runs no ``atexit`` hook and flushes no buffer it
inherited.
"""

from __future__ import annotations

import os
import signal
from typing import BinaryIO, Callable, NoReturn, Sequence, TypeVar

S = TypeVar("S")
T = TypeVar("T")

# The least size of a share, in characters of text.  Below it a fork and
# the transfer back cost about what they save.  Measured for ``extract``
# in process on a 2-vCPU host (Python 3.11), on prefixes of the seed-7
# ``perfbench/gen.py`` corpus: 2 shares against 1, time as a share of the
# serial median over 40 alternating runs, and how often 2 were faster.
#   16K characters 1.01 (17/40), 32K 1.30 (11/40), 40K 0.95 (29/40),
#   64K 0.85 (36/40), 96K 0.85 (32/40), 1.17M 0.69 (40/40).
# So a text forks from 64K characters on: 2 shares of at least 32K.
MIN_SHARE = 1 << 15


def cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def count(size: int, cpus: int) -> int:
    """How many shares to cut ``size`` characters into: one per CPU, but
    none smaller than ``MIN_SHARE``, and one where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(cpus, size // MIN_SHARE))


def run(
    shares: Sequence[S], here: Callable[[S], T], there: Callable[[S], bytes]
) -> tuple[T, list[bytes]] | None:
    """``here`` of the first share, made in this process once every child
    is forked, and ``there`` of each other share, made in a child, in
    share order.

    None if a pipe or a fork cannot be made, or a child fails: it raises,
    dies or exits before it has sent all it made.  The caller then does
    the whole work in this process, so what it reports is what that
    reports.  An exception from ``here`` propagates once every child is
    reaped."""
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            try:
                read_end, write_end = os.pipe()
            except OSError:
                return None
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                return None
            if pid == 0:
                _child(there, share, write_end, [read_end, *(p.fileno() for _, p in children)])
            children.append((pid, open(read_end, "rb", buffering=0)))
            os.close(write_end)
        made = here(shares[0])
        sent = []
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if os.waitstatus_to_exitcode(status) != 0:
                return None
            sent.append(data)
        return made, sent
    finally:
        for pid, pipe in children:
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already
                pass


def _child(there: Callable[[S], bytes], share: S, write_end: int, read_ends: list[int]) -> NoReturn:
    """Send ``there(share)`` down ``write_end`` and exit: 0 once all of it
    is written, 1 on any error.  The read ends are closed first, so a
    write cannot block on a pipe that only this process reads."""
    status = 1
    try:
        for fd in read_ends:
            os.close(fd)
        data = there(share)
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
