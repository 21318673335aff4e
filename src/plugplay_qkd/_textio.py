"""Text output to either a filesystem path or an already open handle."""

from __future__ import annotations

import contextlib
import os
from typing import IO, Iterator, Union

PathOrFile = Union[str, os.PathLike, IO[str]]


@contextlib.contextmanager
def open_text(destination: PathOrFile) -> Iterator[IO[str]]:
    """Yield a handle to write text to ``destination``.

    A handle is yielded as is and left open; a path is opened as a fresh
    ASCII file and closed on exit.
    """
    if hasattr(destination, "write"):
        yield destination
    else:
        with open(destination, "w", encoding="ascii") as fh:
            yield fh
