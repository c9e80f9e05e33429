"""Files written once, and the temps that a killed writer leaves.

Every store file is written into ``<final>.<host>-<pid>-<n>.tmp`` and
renamed into place, so a reader sees the whole file or none of it, and
a temp whose writer died before the rename says whose it was.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import re
import socket
import time
from pathlib import Path
from typing import BinaryIO, Callable

#: This host's name as it appears in file names.  It keeps no dot, so
#: a temp name parses back unambiguously after its final name.
HOST = re.sub(r"[^A-Za-z0-9_-]+", "-", socket.gethostname() or "localhost")

_TEMP = re.compile(r"\.(?P<host>[\w-]+)-(?P<pid>[0-9]+)-[0-9]+\.tmp$", re.A)
_serial = itertools.count()


def pid_alive(pid: int) -> bool:
    """Best-effort liveness of a pid on *this* host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists, owned by someone else (or unknowable)
    return True


def write_once(
    path: str | os.PathLike, write: Callable[[BinaryIO], None]
) -> Path:
    """Publish ``path`` whole: ``write`` fills a temp named for this
    process (created exclusively, mode 0600), which is then renamed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    for n in _serial:
        tmp = path.with_name(f"{path.name}.{HOST}-{os.getpid()}-{n}.tmp")
        with contextlib.suppress(FileExistsError):
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            break
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def reap_orphan(entry: os.DirEntry | Path, max_age_s: float) -> bool:
    """Unlink ``entry`` if it is a temp whose writer will never rename
    it: one made by a pid that is dead on this host, or one untouched
    for longer than ``max_age_s``.  Returns whether it did."""
    match = _TEMP.search(entry.name)
    try:
        if match is None or (
            time.time() - entry.stat().st_mtime <= max_age_s
            and (match["host"] != HOST or pid_alive(int(match["pid"])))
        ):
            return False
        os.unlink(entry)
    except OSError:
        return False  # renamed into place, or reaped by a rival
    return True
