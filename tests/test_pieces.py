"""The piece scheduler on its own: pieces.share over pieces of any kind,
the cuts it makes, and what a child posts."""

import os

import numpy as np
import pytest

from pmdiag import cli, core, pieces
from pmdiag.core import PmDiagError


@pytest.fixture()
def three_cpus(monkeypatch):
    monkeypatch.setattr(pieces, "_cpus", lambda: 3)


def test_positions_come_back_in_order(three_cpus):
    # each piece is loaded in whichever process takes it, and posted back
    loaded = pieces.share(1000, list, lambda piece: False)
    assert [p for at in loaded for p in at] == list(range(1000))
    assert len(loaded) == len(pieces._position_cuts(1000, 3)) - 1 > 1


def test_a_failed_piece_gives_the_whole_source_as_one(three_cpus):
    loaded = pieces.share(1000, lambda at: list(at), lambda piece: 700 in piece)
    assert loaded == [list(range(1000))]


def test_file_pieces_are_whole_lines(three_cpus, tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"".join(b"line %d\n" % k for k in range(500)))
    loaded = pieces.share(path, bytes, lambda piece: False)
    assert b"".join(loaded) == path.read_bytes()
    assert len(loaded) > 1 and all(piece.endswith(b"\n") for piece in loaded)


def test_position_cuts_follow_the_piece_rule():
    # the rule of _cuts written out for positions: a head of FORK_MIN_LINES,
    # pieces of at most 1/procs of the input, and no more than _MAX_PIECES
    def rule(n, procs):
        if n < pieces.FORK_MIN_LINES:
            return [0, n]
        step = max(min(pieces.FORK_MIN_LINES, n // procs), -(-n // pieces._MAX_PIECES))
        return [*range(0, n, step), n]

    for procs in range(1, 5):
        assert [pieces._position_cuts(n, procs) for n in range(3001)] == [rule(n, procs) for n in range(3001)]


def test_child_posts_a_failed_piece_as_none():
    # no error object leaves the process that met it
    clean = cli._Chunk(["m0"], np.zeros((1, 4)), [None])
    chunks = [
        clean,
        cli._Chunk(["m1"], np.empty((0, 0)), [None], error=core.ParseError(1, "invalid JSON")),
        cli._Chunk(["m2"], np.empty((0, 0)), [None],
                   failure=cli.StageError("preprocess", PmDiagError("too short"))),
    ]
    queue_end, feed_end = os.pipe()
    with open(feed_end, "wb", buffering=0) as feed:
        feed.write(b"".join(k.to_bytes(pieces._TOKEN_BYTES, "little") for k in range(3)))
    posts = []
    with open(queue_end, "rb", buffering=0) as queue:
        pieces._post_pieces(posts.append, queue, [0, 1, 2, 3], lambda start, end: chunks[start], cli._failed)
    # at the first failed piece the child drains the pipe and returns
    assert posts == [(0, clean), (1, None)]
