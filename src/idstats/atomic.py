"""Atomic file replacement: write a temp file beside the target, then rename."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp file in path's directory. When the block ends normally the
    temp file replaces path (os.replace); when it raises, the temp file is
    removed and path keeps its previous content."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
