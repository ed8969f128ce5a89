"""Binary file access shared by every reader and writer in the package:
atomic replacement, an array's raw bytes, aligned writes, and a
size-checked reader."""

from __future__ import annotations

import math
import mmap
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import FormatError

ALIGN = 64  # an aligned format starts every array payload at a multiple of this offset


def padding(offset: int) -> int:
    """The zero bytes that bring ``offset`` up to the next ALIGN boundary."""
    return -offset % ALIGN


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
    only an array that is not C-contiguous.  The bytes are exported
    through a new view, so ``a`` keeps no buffer record after the write."""
    return np.ascontiguousarray(a).reshape(-1).view(np.uint8).data


class Writer:
    """Writes fields front to back to the binary file ``f`` and counts the
    bytes written, so ``aligned`` knows the padding without asking ``f``."""

    def __init__(self, f):
        self.f = f
        self.off = 0

    def write(self, data) -> None:
        self.f.write(data)
        self.off += len(data)

    def aligned(self, data) -> None:
        """Zero padding up to the next ALIGN boundary, then ``data``."""
        self.write(bytes(padding(self.off)))
        self.write(data)


class Reader:
    """Reads a binary file front to back from one private mapping of it.

    The file is mapped once with ``mmap.ACCESS_COPY``: its length is fixed
    when it is mapped, and a write into the mapping copies the page it
    touches and never reaches the file.  Each field is checked against
    that length before it is read, so a corrupt length or shape allocates
    nothing.  ``array`` returns a private copy; ``view`` returns an
    aligned, writeable view of the mapping itself, which keeps the mapping
    alive.  Errors name what is read (``what``, e.g. "checkpoint") and the
    offset."""

    def __init__(self, f, what: str):
        self.what = what
        # a zero-byte file cannot be mapped, and holds no field to read
        self.buf = (mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
                    if os.fstat(f.fileno()).st_size else b"")
        self.size = len(self.buf)
        self.off = 0

    def _need(self, n: int) -> None:
        if self.off + n > self.size:
            raise FormatError(f"{self.what} truncated at offset {self.off}, "
                              f"needed {n} more bytes")

    def take(self, n: int) -> bytes:
        """The next ``n`` bytes."""
        self._need(n)
        self.off += n
        return self.buf[self.off - n:self.off]

    def _slice(self, shape, dtype) -> np.ndarray:
        self._need(math.prod(shape) * np.dtype(dtype).itemsize)
        out = np.ndarray(shape, dtype, self.buf, self.off)
        self.off += out.nbytes
        return out

    def array(self, shape, dtype) -> np.ndarray:
        """A private copy of the next ``shape`` array of ``dtype``, allocated
        only once the file is known to hold it."""
        return self._slice(shape, dtype).copy()

    def view(self, shape, dtype) -> np.ndarray:
        """The next ``shape`` array of ``dtype``, after the zero padding up to
        the next ALIGN boundary: an aligned, C-contiguous, writeable view of
        the mapping, with no copy."""
        pad = padding(self.off)
        if any(self.take(pad)):
            raise FormatError(f"nonzero padding at offset {self.off - pad}")
        return self._slice(shape, dtype)

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
