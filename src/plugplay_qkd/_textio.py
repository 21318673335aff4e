"""ASCII output to either a filesystem path or an already open text handle."""

from __future__ import annotations

import contextlib
import os
from typing import IO, Callable, Iterator, Union

PathOrFile = Union[str, os.PathLike, IO[str]]


@contextlib.contextmanager
def open_ascii(destination: PathOrFile) -> Iterator[Callable[[bytes], object]]:
    """Yield a function that writes ASCII bytes to ``destination``.

    A path is opened in binary mode and closed on exit. A handle is left
    open and gets each chunk decoded to ``str``, so the text lands after
    anything the caller wrote before and in the handle's own encoding.
    """
    if hasattr(destination, "write"):
        yield lambda chunk: destination.write(str(chunk, "ascii"))
    else:
        with open(destination, "wb") as fh:
            yield fh.write
