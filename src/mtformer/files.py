"""Binary file access shared by every reader and writer in the package:
atomic replacement, an array's raw bytes, and a size-checked reader."""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import FormatError


@contextmanager
def replace_on_success(path):
    """Yield a binary file at ``<path>.tmp`` and rename it over ``path`` once
    the block succeeds; on failure remove it, so ``path`` is never torn."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def raw(a) -> memoryview:
    """``a``'s own bytes in C order, flat so len() counts bytes; copies
    only an array that is not C-contiguous."""
    return np.ascontiguousarray(a).data.cast("B")


class Reader:
    """Reads a binary file front to back.  Each field is checked against the
    file size before it is read, so a corrupt length or shape allocates
    nothing, and an array is read straight into place.  Errors name what
    is read (``what``, e.g. "checkpoint") and the offset."""

    def __init__(self, f, what: str):
        self.f = f
        self.what = what
        self.size = os.fstat(f.fileno()).st_size
        self.off = 0

    def _need(self, n: int) -> None:
        if self.off + n > self.size:
            raise FormatError(f"{self.what} truncated at offset {self.off}, "
                              f"needed {n} more bytes")

    def take(self, n: int, into=None):
        """The next ``n`` bytes, read into ``into`` (an array of ``n``
        bytes) or into a new bytearray."""
        self._need(n)
        out = bytearray(n) if into is None else into
        if self.f.readinto(out) != n:
            raise FormatError(f"{self.what} shrank while being read, at offset {self.off}")
        self.off += n
        return out

    def array(self, shape, dtype) -> np.ndarray:
        """The next ``shape`` array of ``dtype``, allocated only once the
        file is known to hold it."""
        n = math.prod(shape) * np.dtype(dtype).itemsize
        self._need(n)
        return self.take(n, np.empty(shape, dtype))

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        data = self.take(n)
        try:
            return data.decode()
        except UnicodeDecodeError as exc:
            raise FormatError(f"undecodable text at offset {self.off - n + exc.start}") from exc

    def end(self) -> None:
        """Raise unless every byte of the file has been read."""
        if self.off != self.size:
            raise FormatError(f"{self.size - self.off} trailing bytes at offset {self.off}")
