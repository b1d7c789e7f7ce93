"""Fault-injecting filesystem: enumerate crash points under durability code.

The journal, snapshot and sweep-checkpoint layers
(:mod:`repro.service.journal`, :mod:`repro.service.snapshot`,
:mod:`repro.experiments.runner`) route every byte they move to disk
through the :class:`~repro.service.journal.FileSystem` seam.
:class:`FaultFS` is the drop-in test double: a fully in-memory
filesystem that models the one thing a real crash exposes -- the gap
between **cached** state (what the process wrote) and **durable** state
(what an fsync actually pinned down).

Model:

* every file is an inode with a ``cached`` byte buffer and a
  ``durable`` buffer -- ``fsync`` copies cached over durable;
* every directory has a cached name->inode table and a durable one --
  ``fsync_dir`` commits the cached table (this is what makes a rename
  or create *findable* after a crash, exactly like a real POSIX
  directory);
* directories themselves are durable on creation (a deliberate
  simplification: the code under test only ever creates its snapshot
  directory once, up front).

Every durability-relevant operation -- create, write, flush, fsync,
rename, directory fsync, remove, truncate -- increments an operation
counter. Constructing ``FaultFS(root, crash_at=k)`` raises
:class:`SimulatedCrash` *before* operation ``k`` takes effect; with
``torn=True`` a crashing ``write`` first applies a strict prefix of its
data (the torn-write case). After the crash, :meth:`materialise` copies
either world onto a real directory:

* ``"durable"`` -- only fsync'd bytes under dir-fsync'd names: the
  *pessimistic* post-crash disk (everything the kernel was allowed to
  lose, lost);
* ``"cached"`` -- everything the process wrote, torn bytes included:
  the *optimistic* disk (nothing lost, the final write possibly torn).

A real crash lands somewhere between the two, so recovery must succeed
on both -- the sweep in ``tests/robustness/test_faultfs.py`` asserts
recovery at every ``k`` for both worlds reconstructs a digest-exact
prefix of acknowledged history.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator

from repro.exceptions import ReproError

#: Operation kinds that consume a crash-point slot, in the order they
#: appear in :attr:`FaultFS.ops`.
OP_KINDS = ("create", "write", "flush", "fsync", "replace", "fsync_dir", "remove", "truncate")


class SimulatedCrash(ReproError):
    """The injected crash: the 'process' died before this op completed."""


class _FaultFile:
    """One inode: the cached buffer and the last-fsync'd buffer."""

    __slots__ = ("cached", "durable")

    def __init__(self) -> None:
        self.cached = bytearray()
        self.durable: bytes | None = None


class _FaultHandle:
    """File-object shim over a :class:`_FaultFile` (binary, unbuffered)."""

    def __init__(self, fs: "FaultFS", file: _FaultFile, writable: bool) -> None:
        self._fs = fs
        self._file = file
        self._writable = writable
        self._pos = 0
        self._closed = False

    def write(self, data: bytes) -> int:
        self._check_open()
        if not self._writable:
            raise OSError("handle is not writable")
        payload = bytes(data)
        file, pos = self._file, self._pos

        def effect() -> None:
            _splice(file.cached, pos, payload)

        def torn_effect() -> None:
            _splice(file.cached, pos, payload[: len(payload) // 2])

        self._fs._tick("write", effect, torn_effect)
        self._pos += len(payload)
        return len(payload)

    def flush(self) -> None:
        self._check_open()
        self._fs._tick("flush")

    def seek(self, offset: int, whence: int = 0) -> int:
        self._check_open()
        if whence == 0:
            self._pos = offset
        elif whence == 1:
            self._pos += offset
        elif whence == 2:
            self._pos = len(self._file.cached) + offset
        else:
            raise ValueError(f"bad whence {whence}")
        return self._pos

    def tell(self) -> int:
        return self._pos

    def truncate(self, size: int | None = None) -> int:
        self._check_open()
        length = self._pos if size is None else size
        file = self._file

        def effect() -> None:
            del file.cached[length:]

        self._fs._tick("truncate", effect)
        return length

    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("I/O operation on closed file")


def _splice(buffer: bytearray, pos: int, data: bytes) -> None:
    if pos > len(buffer):
        buffer.extend(b"\x00" * (pos - len(buffer)))
    buffer[pos : pos + len(data)] = data


class FaultFS:
    """In-memory ``FileSystem`` double with crash-point injection.

    Duck-types :class:`repro.service.journal.FileSystem`. All paths
    must live under ``root`` (a virtual path -- nothing is created on
    the real filesystem until :meth:`materialise`).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        crash_at: int | None = None,
        torn: bool = False,
    ) -> None:
        self.root = Path(root)
        self.crash_at = crash_at
        self.torn = torn
        self.op_count = 0
        self.crashed = False
        #: Kind of every counted operation, in order (``ops[k-1]`` is
        #: the op that crash point ``k`` lands on).
        self.ops: list[str] = []
        self._dirs: dict[str, dict[str, _FaultFile]] = {}
        self._durable_dirs: dict[str, dict[str, _FaultFile]] = {}
        self.mkdir(self.root)

    # ------------------------------------------------------------------
    # Crash-point machinery
    # ------------------------------------------------------------------

    def _tick(
        self,
        kind: str,
        effect: Callable[[], None] | None = None,
        torn_effect: Callable[[], None] | None = None,
    ) -> None:
        if self.crashed:
            raise SimulatedCrash("filesystem already crashed")
        self.op_count += 1
        self.ops.append(kind)
        if self.crash_at is not None and self.op_count == self.crash_at:
            if self.torn and torn_effect is not None:
                torn_effect()
            self.crashed = True
            raise SimulatedCrash(f"injected crash at op {self.op_count} ({kind})")
        if effect is not None:
            effect()

    # ------------------------------------------------------------------
    # The FileSystem interface
    # ------------------------------------------------------------------

    def open(self, path: str | Path, mode: str) -> _FaultHandle:
        directory, name = self._locate(path)
        if mode == "xb":
            if name in directory:
                raise FileExistsError(f"{path}: file exists")
            file = _FaultFile()
            self._tick("create", lambda: directory.__setitem__(name, file))
            return _FaultHandle(self, file, writable=True)
        if mode == "wb":
            file = _FaultFile()
            self._tick("create", lambda: directory.__setitem__(name, file))
            return _FaultHandle(self, file, writable=True)
        if mode == "r+b":
            if name not in directory:
                raise FileNotFoundError(f"{path}: no such file")
            return _FaultHandle(self, directory[name], writable=True)
        if mode == "rb":
            if name not in directory:
                raise FileNotFoundError(f"{path}: no such file")
            return _FaultHandle(self, directory[name], writable=False)
        raise ValueError(f"unsupported mode {mode!r}")

    def fsync(self, handle: _FaultHandle) -> None:
        file = handle._file

        def effect() -> None:
            file.durable = bytes(file.cached)

        self._tick("fsync", effect)

    def fsync_dir(self, directory: str | Path) -> None:
        key = str(Path(directory))
        if key not in self._dirs:
            raise FileNotFoundError(f"{directory}: no such directory")

        def effect() -> None:
            self._durable_dirs[key] = dict(self._dirs[key])

        self._tick("fsync_dir", effect)

    def replace(self, src: str | Path, dst: str | Path) -> None:
        src_dir, src_name = self._locate(src)
        dst_dir, dst_name = self._locate(dst)
        if src_name not in src_dir:
            raise FileNotFoundError(f"{src}: no such file")
        file = src_dir[src_name]

        def effect() -> None:
            del src_dir[src_name]
            dst_dir[dst_name] = file

        self._tick("replace", effect)

    def remove(self, path: str | Path) -> None:
        directory, name = self._locate(path)
        if name not in directory:
            raise FileNotFoundError(f"{path}: no such file")
        self._tick("remove", lambda: directory.__delitem__(name))

    def read_bytes(self, path: str | Path) -> bytes:
        directory, name = self._locate(path)
        if name not in directory:
            raise FileNotFoundError(f"{path}: no such file")
        return bytes(directory[name].cached)

    def exists(self, path: str | Path) -> bool:
        key = str(Path(path))
        if key in self._dirs:
            return True
        parent = str(Path(path).parent)
        return parent in self._dirs and Path(path).name in self._dirs[parent]

    def is_dir(self, path: str | Path) -> bool:
        return str(Path(path)) in self._dirs

    def listdir(self, path: str | Path) -> list[str]:
        key = str(Path(path))
        if key not in self._dirs:
            raise FileNotFoundError(f"{path}: no such directory")
        return list(self._dirs[key])

    def mkdir(self, path: str | Path) -> None:
        # Deliberately uncounted and immediately durable (see module
        # docstring): the code under test creates directories once,
        # before any crash-relevant traffic.
        path = Path(path)
        path.relative_to(self.root)  # raises ValueError outside the root
        for ancestor in [path, *path.parents]:
            key = str(ancestor)
            if key not in self._dirs:
                self._dirs[key] = {}
                self._durable_dirs[key] = {}
            if ancestor == self.root:
                break

    # ------------------------------------------------------------------
    # Post-crash inspection
    # ------------------------------------------------------------------

    def materialise(self, target: str | Path, world: str = "durable") -> None:
        """Copy one post-crash world onto a real directory.

        ``world="durable"``: only fsync'd bytes under dir-fsync'd names
        (the pessimistic disk). ``world="cached"``: everything written,
        torn bytes included (the optimistic disk). A file whose name is
        durable but whose content never saw an fsync materialises empty.
        """
        if world not in ("durable", "cached"):
            raise ValueError(f"unknown world {world!r}")
        target = Path(target)
        for key in self._dirs:
            (target / self._relative(key)).mkdir(parents=True, exist_ok=True)
        tables = self._durable_dirs if world == "durable" else self._dirs
        for key, entries in tables.items():
            base = target / self._relative(key)
            for name, file in entries.items():
                if world == "durable":
                    content = b"" if file.durable is None else file.durable
                else:
                    content = bytes(file.cached)
                (base / name).write_bytes(content)

    def iter_files(self, world: str = "cached") -> Iterator[tuple[str, bytes]]:
        """Yield ``(path, content)`` for every file in one world."""
        tables = self._durable_dirs if world == "durable" else self._dirs
        for key, entries in sorted(tables.items()):
            for name, file in sorted(entries.items()):
                if world == "durable":
                    yield str(Path(key) / name), b"" if file.durable is None else file.durable
                else:
                    yield str(Path(key) / name), bytes(file.cached)

    # ------------------------------------------------------------------

    def _locate(self, path: str | Path) -> tuple[dict[str, _FaultFile], str]:
        path = Path(path)
        self._relative(str(path))  # raises if outside the root
        parent = str(path.parent)
        if parent not in self._dirs:
            raise FileNotFoundError(f"{path.parent}: no such directory")
        return self._dirs[parent], path.name

    def _relative(self, key: str) -> Path:
        return Path(key).relative_to(self.root) if key != str(self.root) else Path(".")
