"""Atomic file replacement shared by every writer in the package."""

from __future__ import annotations

import os
from contextlib import contextmanager


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
