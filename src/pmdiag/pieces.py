"""Work shared out in pieces over every CPU this process may run on.

`share` maps a load over the pieces of a dataset file, cut at line ends,
or of n positions, in this process and one forked child per further CPU,
and returns what it made of each piece in order. `start_forked` starts a
child that posts messages back, the one shape of child there is. What a
piece holds is the caller's: it says how a piece reports failure.
"""

from __future__ import annotations

import os
import select
import stat
import sys
from pathlib import Path

from .core import DatasetIoError

# A dataset file with fewer lines is one piece, loaded in this process alone.
# One fork, its pipe and the reap cost about 4.5 ms, against about 0.6 ms to
# load and preprocess one 760-sample manoeuvre, and a one-manoeuvre diagnose
# must never fork. A larger file is cut into pieces of about this many lines,
# so that the last piece to finish keeps the other CPUs waiting for about
# 40 ms at most (see _cuts). n positions are cut the same way; generating
# and preprocessing a manoeuvre takes about 0.2 ms.
FORK_MIN_LINES = 64
# a piece's index in the token pipe of _share
_TOKEN_BYTES = 2
# every token goes into the pipe in one write that never blocks
_MAX_PIECES = select.PIPE_BUF // _TOKEN_BYTES
# A forked child posts a piece of a dataset (about 460 KB for 64 loaded
# manoeuvres) while this process is busy with a piece of its own; a pipe of
# this size holds two such posts, so the child need not wait for the read.
# It is Linux's default pipe-max-size; elsewhere a pipe keeps its own size.
_PIPE_BYTES = 1 << 20
# bytes read at once while looking for a line end
_SCAN_BYTES = 1 << 16


def share(source: "int | str | Path", load, failed) -> list:
    """[load(piece) for each piece of `source`], in order, on every CPU
    (`_share`): pieces of a count n are ranges of positions, and those of a
    file's path its bytes cut at line ends (`_cuts`). Where several pieces
    and one is failed(piece), [load(the whole source)] instead."""
    procs = _cpus()
    if isinstance(source, int):
        cuts = _position_cuts(source, procs)
        return _share(cuts, lambda start, end: load(range(start, end)), failed, procs)
    path = Path(source)
    try:
        file = open(path, "rb", buffering=0)
    except OSError as exc:
        raise DatasetIoError(f"cannot read {path}: {exc}") from exc
    with file:
        read, size = _reader(file, path)
        cuts = _cuts(read, size, procs)
        return _share(cuts, lambda start, end: load(read(end - start, start)), failed, procs)


def start_forked(fn, *args) -> "_Child | None":
    """Start fn(post, *args) in a forked child process, where post(message)
    sends a picklable message to this process, and return the _Child that
    receives them; None where no process can be forked (no fork start
    method, or the fork fails).

    The child exits 0 once fn returns, and 1, printing nothing, if fn
    raises: the caller then does the child's work itself and reports any
    failure as its own. A child may run matrix products: numpy's OpenBLAS
    stops its threads before every fork (a pthread_atfork handler), so a
    child starts its own where a product needs them.
    """
    # imported here: every CLI call pays the module-level imports, and only
    # pipeline and large inputs fork
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    _widen(sender)
    process = ctx.Process(target=_run_child, args=(sender, fn, args))
    try:
        process.start()
    except OSError:  # no process to spare (EAGAIN, ENOMEM)
        receiver.close()
        return None
    finally:
        sender.close()
    return _Child(process, receiver)


def _widen(connection) -> None:
    """Let the pipe of `connection` hold _PIPE_BYTES where the system allows."""
    import fcntl

    try:
        fcntl.fcntl(connection.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):  # not Linux, or above the system's pipe-max-size
        pass


def _run_child(sender, fn, args) -> None:
    """Body of a forked child; an error stays in it: fn posts none, and one fn raises ends it."""
    try:
        fn(sender.send, *args)
    except Exception:
        # exit 1 without a traceback: the parent does the work again and
        # reports the failure as its own
        sys.exit(1)


class _Child:
    """This process's end of a forked child: the messages it posts, and its exit."""

    def __init__(self, process, receiver):
        self.process = process
        self.pid = process.pid
        self.receiver = receiver

    def recv(self, wait: bool = True):
        """The next message the child posted; None once the child has ended
        (exited or died), or, unless `wait`, while no message has arrived."""
        if self.receiver.closed or not (wait or self.receiver.poll()):
            return None
        try:
            return self.receiver.recv()
        except (EOFError, OSError):  # OSError: the child died within a message
            self.receiver.close()
            return None

    def join(self) -> bool:
        """Wait for the child, dropping what it still posts; True when it exited 0."""
        # receive before joining: a message larger than the pipe buffer
        # holds the child in send until it is read
        while self.recv() is not None:
            pass
        self.process.join()
        ok = self.process.exitcode == 0
        self.process.close()
        return ok


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(cuts: list, load, failed, procs: int) -> list:
    """[load(cuts[k], cuts[k + 1]) for each piece k], on up to `procs`
    processes. Where there are several pieces and failed(piece) holds for
    one, or a child posted it as None, [load(cuts[0], cuts[-1])]: the whole
    input loaded again as one piece here, whose error is by construction
    the first one process meets. A process that meets a failed piece drains
    the pipe, so no process takes another piece, and the pieces nobody sent
    back are not loaded.

    A pipe holds one token per piece. This process, and one forked child per
    further process if there are several pieces, take tokens until the pipe
    runs dry, so no process idles while another has more than one piece
    left. A child posts each piece as soon as it is loaded, and this process
    receives what has arrived after each piece of its own, so no process
    holds a child's whole share in one message. A piece that no process sent
    back, because its child died, is loaded here; where no child can be
    forked, this process takes every token.
    """
    count = len(cuts) - 1
    loaded = {}

    def broken(piece) -> bool:
        return piece is None or failed(piece)

    queue_end, feed_end = os.pipe()
    with open(queue_end, "rb", buffering=0) as queue:
        # one write of at most PIPE_BUF bytes, into an empty pipe, never
        # blocks; closing the pipe for writing before any fork lets a read
        # of the empty pipe return b"" in every process
        with open(feed_end, "wb", buffering=0) as feed:
            feed.write(b"".join(k.to_bytes(_TOKEN_BYTES, "little") for k in range(count)))
        forked = [start_forked(_post_pieces, queue, cuts, load, broken) for _ in range(min(procs, count) - 1)]
        children = [child for child in forked if child is not None]
        try:
            for k in _tokens(queue):
                came = [(k, load(cuts[k], cuts[k + 1]))]
                for child in children:
                    while (posted := child.recv(wait=False)) is not None:
                        came.append(posted)
                loaded.update(came)
                if any(broken(piece) for _, piece in came):
                    queue.read()  # every token left: no process takes another piece
        finally:
            for child in children:
                while (posted := child.recv()) is not None:
                    loaded.update([posted])
                child.join()
    if not any(map(broken, loaded.values())):  # else the pieces nobody sent back are not needed
        loaded.update((k, load(cuts[k], cuts[k + 1])) for k in range(count) if k not in loaded)
    if count == 1 or not any(map(broken, loaded.values())):
        return [loaded.pop(k) for k in range(count)]
    loaded.clear()  # freed before the rerun holds the whole input
    return [load(cuts[0], cuts[-1])]


def _tokens(queue):
    """The piece indices this process takes from the token pipe `queue` until it runs dry."""
    # the tokens went in with one write, and a read of a pipe that holds
    # data returns all it asks for, up to what the pipe holds: a whole token
    while token := queue.read(_TOKEN_BYTES):
        yield int.from_bytes(token, "little")


def _post_pieces(post, queue, cuts: list, load, broken) -> None:
    """Body of a child of _share: post (k, piece k) for each token it takes.
    At the first piece for which broken(piece) holds, drain the pipe, post
    (k, None) and return: its error stays in this process."""
    for k in _tokens(queue):
        piece = load(cuts[k], cuts[k + 1])
        if broken(piece):
            queue.read()
            post((k, None))
            return
        post((k, piece))


def _reader(file, path: Path):
    """(read, size) of an open dataset file: read(n, offset) returns the n
    bytes at offset, or those up to the end. A file that is not regular,
    such as a pipe, cannot be read at an offset, so it is read here whole."""
    fd = file.fileno()

    def pread(n, offset):
        data = os.pread(fd, n, offset)  # on Linux, at most 0x7ffff000 bytes
        while len(data) < n and (more := os.pread(fd, n - len(data), offset + len(data))):
            data += more
        return data

    try:
        status = os.fstat(fd)
        if stat.S_ISREG(status.st_mode):
            return pread, status.st_size
        data = file.readall()
    except OSError as exc:
        raise DatasetIoError(f"cannot read {path}: {exc}") from exc
    return (lambda n, offset: data[offset : offset + n]), len(data)


def _cuts(read, size: int, procs: int) -> list:
    """Offsets of the pieces of a file of `size` bytes: 0, each offset just
    past a line feed where a piece ends, and `size`.

    Fewer than FORK_MIN_LINES line feeds make one piece. Otherwise a piece
    is about as long as the first FORK_MIN_LINES lines, and no longer than
    1/procs of the file, so that every process gets one; a large file gets
    longer pieces, so that the tokens fit in one PIPE_BUF write. Only the
    head and a block at each cut are read.
    """
    cuts = [0]
    head = _past_line_feed(read, 0, FORK_MIN_LINES)
    if head is not None:
        step = max(min(head, size // procs), -(-size // _MAX_PIECES))
        while (cut := _past_line_feed(read, cuts[-1] + step - 1)) is not None and cut < size:
            cuts.append(cut)
    cuts.append(size)
    return cuts


def _past_line_feed(read, pos: int, count: int = 1) -> "int | None":
    """The offset just past the count-th line feed at or after `pos`, or
    None where the data ends before it."""
    while block := read(_SCAN_BYTES, pos):
        found = block.count(b"\n")
        if found >= count:
            end = -1
            for _ in range(count):
                end = block.find(b"\n", end + 1)
            return pos + end + 1
        count -= found
        pos += len(block)
    return None


def _position_cuts(n: int, procs: int) -> list:
    """Cuts of n positions into pieces: the `_cuts` of a file of n empty lines."""
    lines = b"\n" * n
    return _cuts(lambda k, offset: lines[offset : offset + k], n, procs)
