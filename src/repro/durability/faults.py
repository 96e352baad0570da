"""Disk-fault injection for the durable-storage paths.

Every byte the system promises to keep — WAL frames, snapshots,
checkpoints, correction-log lines, weights JSON, atomically-renamed
outputs — flows through the small set of I/O
helpers in this module (:func:`durable_write`, :func:`durable_fsync`,
:func:`durable_append`, :func:`durable_replace`, :func:`fsync_dir`,
:func:`atomic_replace_bytes`).  Each call names a **fault point** from
the :data:`FAULT_POINTS` catalogue; an installed
:class:`DiskFaultInjector` can make any named point fail the way real
disks fail:

* ``enospc`` / ``eio`` — the write (or rename) raises ``OSError`` with
  that errno, having written nothing;
* ``short_write`` — a *prefix* of the data reaches the file before the
  ``ENOSPC`` raise: the torn-write case that append-only formats must
  detect and truncate on recovery;
* ``fsync`` — the data is in the page cache but ``fsync`` fails
  (``EIO``), i.e. the durability promise specifically is broken;
* ``crash`` — the operation raises :class:`CrashPoint`, a
  ``BaseException`` no error policy may swallow, simulating the
  process dying at exactly that instruction (most usefully
  *crash-before-rename*: the temp file is fully written and fsynced
  but the publish rename never happens).

The injector is process-global (install/uninstall or the
``installed()`` context manager) so production code needs no plumbing:
it calls the helpers unconditionally and pays one global read when no
injector is installed.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CrashPoint",
    "DiskFaultInjector",
    "FAULT_KINDS",
    "FAULT_POINTS",
    "atomic_replace_bytes",
    "durable_append",
    "durable_fsync",
    "durable_replace",
    "durable_write",
    "fsync_dir",
    "installed_injector",
]

FAULT_KINDS = ("enospc", "eio", "short_write", "fsync", "crash")

#: The catalogue of named fault points (see docs/durability.md).  Four
#: generic sub-points exist per atomic-replace family F:
#: ``F.write`` / ``F.fsync`` / ``F.rename`` / ``F.dirsync``.
FAULT_POINTS = frozenset(
    ["wal.append.write", "wal.append.fsync", "wal.reset",
     "correction_log.append", "correction_log.fsync",
     "output.rename", "output.dirsync"]
    + ["%s.%s" % (family, step)
       for family in ("snapshot", "checkpoint", "weights")
       for step in ("write", "fsync", "rename", "dirsync")])


class CrashPoint(BaseException):
    """Simulated process death at a named fault point.

    Deliberately a ``BaseException``: no ``except Exception`` handler
    (error policies, request handlers) may convert it into a handled
    failure — the test harness catches it at top level, exactly like a
    SIGKILL would end the process.
    """

    def __init__(self, point: str):
        super().__init__("simulated crash at fault point %r" % point)
        self.point = point


class _Plan:
    __slots__ = ("kind", "remaining", "short_bytes")

    def __init__(self, kind: str, remaining: int,
                 short_bytes: Optional[int]):
        self.kind = kind
        self.remaining = remaining
        self.short_bytes = short_bytes


class DiskFaultInjector:
    """Armable disk faults keyed by fault-point name.

    >>> injector = DiskFaultInjector()
    >>> injector.plan("checkpoint.write", "enospc")
    >>> with injector.installed():
    ...     checkpoint.save(path)      # raises OSError(ENOSPC)

    Each plan fires ``times`` times (default 1) then exhausts, so a
    retry after the fault sees a healthy disk.  ``fired`` counts
    injections per point.
    """

    def __init__(self):
        self._plans: Dict[str, List[_Plan]] = {}
        self.fired: Dict[str, int] = {}

    def plan(self, point: str, kind: str, *, times: int = 1,
             short_bytes: Optional[int] = None) -> "DiskFaultInjector":
        if point not in FAULT_POINTS:
            raise ValueError("unknown fault point %r; the catalogue is "
                             "durability.FAULT_POINTS" % point)
        if kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r; expected one of %s"
                             % (kind, ", ".join(FAULT_KINDS)))
        self._plans.setdefault(point, []).append(
            _Plan(kind, times, short_bytes))
        return self

    def clear(self) -> None:
        self._plans.clear()

    def install(self) -> None:
        global _active
        _active = self

    def uninstall(self) -> None:
        global _active
        if _active is self:
            _active = None

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- internals -----------------------------------------------------------

    def _take(self, point: str) -> Optional[_Plan]:
        plans = self._plans.get(point)
        if not plans:
            return None
        plan = plans[0]
        plan.remaining -= 1
        if plan.remaining <= 0:
            plans.pop(0)
        self.fired[point] = self.fired.get(point, 0) + 1
        return plan

    def on_op(self, point: str) -> None:
        """Non-write operation (fsync, rename, dir sync) at *point*."""
        plan = self._take(point)
        if plan is None:
            return
        if plan.kind == "crash":
            raise CrashPoint(point)
        if plan.kind == "enospc":
            raise OSError(errno.ENOSPC, "injected ENOSPC at %s" % point)
        # fsync / eio / short_write on a non-write op all surface as EIO
        raise OSError(errno.EIO, "injected EIO at %s" % point)

    def on_write(self, point: str, handle, data) -> Tuple[bool, object]:
        """Write *data* at *point*; returns ``(handled, prefix)``.

        When a torn write fires, the prefix that "reached the disk" has
        already been written to *handle* before the raise.
        """
        plan = self._take(point)
        if plan is None:
            return False, None
        if plan.kind == "crash":
            raise CrashPoint(point)
        if plan.kind == "short_write":
            cut = plan.short_bytes
            if cut is None:
                cut = max(1, len(data) // 2)
            handle.write(data[:cut])
            raise OSError(errno.ENOSPC,
                          "injected short write (%d of %d) at %s"
                          % (cut, len(data), point))
        if plan.kind == "enospc":
            raise OSError(errno.ENOSPC, "injected ENOSPC at %s" % point)
        raise OSError(errno.EIO, "injected EIO at %s" % point)


_active: Optional[DiskFaultInjector] = None


def installed_injector() -> Optional[DiskFaultInjector]:
    """The currently installed injector, if any (None in production)."""
    return _active


# -- the durable I/O vocabulary ----------------------------------------------

def durable_write(handle, data, point: str) -> None:
    """Write *data* (bytes or str, matching *handle*'s mode) at *point*."""
    injector = _active
    if injector is not None:
        injector.on_write(point, handle, data)
    handle.write(data)


def durable_fsync(handle, point: str) -> None:
    """Flush *handle* and fsync its descriptor, failable at *point*."""
    handle.flush()
    injector = _active
    if injector is not None:
        injector.on_op(point)
    os.fsync(handle.fileno())


def durable_append(handle, data: bytes, point: str,
                   sync_point: Optional[str] = None) -> None:
    """Append *data* to the binary append-mode *handle*, all or nothing.

    The one append discipline of both durable logs (the state-store WAL
    and the delta correction logs): write at *point*, then flush — or,
    with *sync_point*, fsync there — before returning.  On ``OSError``
    the file is cut back to its length before the call and the error
    re-raises, so a refused append leaves no bytes behind for a later,
    acknowledged append to land after.
    """
    start = handle.tell()
    try:
        durable_write(handle, data, point)
        if sync_point is None:
            handle.flush()
        else:
            durable_fsync(handle, sync_point)
    except OSError:
        try:
            handle.truncate(start)
            handle.seek(start)
        except OSError:
            pass  # the torn bytes stay; recovery cuts a torn tail
        raise


def durable_replace(src, dst, point: str) -> None:
    """``os.replace`` with a *crash-before-rename* fault point."""
    injector = _active
    if injector is not None:
        injector.on_op(point)
    os.replace(src, dst)


def fsync_dir(path, point: Optional[str] = None) -> None:
    """Fsync directory *path* so a rename into it survives power loss.

    ``os.replace`` makes the rename atomic *in the cache*; until the
    parent directory's entry block is flushed, a crash can resurrect
    the old name.  Best-effort on filesystems that refuse directory
    fsync (the error is swallowed), but injected faults do surface.
    """
    injector = _active
    if injector is not None and point is not None:
        injector.on_op(point)
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_replace_bytes(path, data: bytes, family: str) -> None:
    """Durably publish *data* at *path*: tmp + write + fsync + rename +
    parent-dir fsync, with fault points ``<family>.write`` /
    ``.fsync`` / ``.rename`` / ``.dirsync``.

    On ``OSError`` the temp file is removed and the target is
    untouched (old content, if any, still fully valid).  On
    :class:`CrashPoint` the temp file is *left behind* — that is what
    a real crash leaves — and the target is still untouched.
    """
    import tempfile
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".durable.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            durable_write(handle, data, family + ".write")
            durable_fsync(handle, family + ".fsync")
        durable_replace(tmp, path, family + ".rename")
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(directory, family + ".dirsync")
