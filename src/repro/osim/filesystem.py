"""Simulated file system: inodes, a directory tree, extents on the disk.

Functional file contents are real bytes (the web server serves actual file
data; the database reads back the tuples it wrote) — held in a bytearray,
or, for generated read-mostly content, produced on demand from a repeated
seed (:class:`RepeatedBytes`) until first written. Each file gets a
contiguous extent of simulated-disk blocks at creation so the disk model sees
realistic offsets (sequential scans stay sequential).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import events as ev
from ..core.errors import OSError_

BLOCK_SIZE = 4096


class RepeatedBytes:
    """Read-only file content: ``seed`` repeated out to ``size`` bytes,
    produced slice by slice on demand. Generated read-mostly content (the
    web server's file set) then costs neither memory nor set-up time; the
    file system swaps in a real ``bytearray`` on the first write."""

    __slots__ = ("seed", "size")

    def __init__(self, seed: bytes, size: int) -> None:
        if not seed:
            raise ValueError("seed must not be empty")
        self.seed = seed
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, sl: slice) -> bytes:
        start, stop, _ = sl.indices(self.size)
        if stop <= start:
            return b""
        skip = start % len(self.seed)
        end = skip + stop - start
        return (self.seed * (end // len(self.seed) + 1))[skip:end]

    def __bytes__(self) -> bytes:
        return self[:]


class Inode:
    """One file: data bytes plus its disk extent."""

    __slots__ = ("ino", "path", "data", "disk_base", "mtime", "open_count")

    def __init__(self, ino: int, path: str, disk_base: int) -> None:
        self.ino = ino
        self.path = path
        self.data = bytearray()
        self.disk_base = disk_base
        self.mtime = 0
        self.open_count = 0

    @property
    def size(self) -> int:
        return len(self.data)

    def disk_offset(self, block_index: int) -> int:
        """Simulated-disk byte offset of file block ``block_index``."""
        return self.disk_base + block_index * BLOCK_SIZE

    def nblocks(self) -> int:
        return (len(self.data) + BLOCK_SIZE - 1) // BLOCK_SIZE


class FileSystem:
    """Flat-namespace (path-keyed) file system with extent allocation."""

    def __init__(self, extent_gap_blocks: int = 8) -> None:
        self._by_path: Dict[str, Inode] = {}
        self._by_ino: Dict[int, Inode] = {}
        self._next_ino = 2    # 1 = root
        #: next free disk byte offset for new extents
        self._disk_cursor = 0
        #: slack blocks between extents (keeps growth in-extent mostly)
        self._gap = extent_gap_blocks * BLOCK_SIZE

    # -- namespace ------------------------------------------------------------

    def create(self, path: str, data=b"", reserve: int = 0) -> Inode:
        """Create ``path`` (error if it exists) holding ``data`` — bytes,
        copied, or a :class:`RepeatedBytes`, kept as is until written;
        ``reserve`` bytes of extent are set aside beyond the initial data."""
        if path in self._by_path:
            raise OSError_(f"create: {path} exists")
        ino = Inode(self._next_ino, path, self._disk_cursor)
        self._next_ino += 1
        ino.data = (data if isinstance(data, RepeatedBytes)
                    else bytearray(data))
        extent = max(len(data), reserve) + self._gap
        extent = (extent + BLOCK_SIZE - 1) // BLOCK_SIZE * BLOCK_SIZE
        self._disk_cursor += extent
        self._by_path[path] = ino
        self._by_ino[ino.ino] = ino
        return ino

    def lookup(self, path: str) -> Optional[Inode]:
        return self._by_path.get(path)

    def inode(self, ino: int) -> Inode:
        node = self._by_ino.get(ino)
        if node is None:
            raise OSError_(f"no inode {ino}")
        return node

    def unlink(self, path: str) -> None:
        node = self._by_path.pop(path, None)
        if node is None:
            raise OSError_(f"unlink: {path} not found")
        self._by_ino.pop(node.ino, None)

    def exists(self, path: str) -> bool:
        return path in self._by_path

    def paths(self) -> List[str]:
        return sorted(self._by_path)

    # -- data ---------------------------------------------------------------

    def read(self, ino: int, offset: int, nbytes: int) -> bytes:
        node = self.inode(ino)
        if offset >= len(node.data) or nbytes <= 0:
            return b""
        return bytes(node.data[offset:offset + nbytes])

    def _writable(self, ino: int) -> Inode:
        node = self.inode(ino)
        if not isinstance(node.data, bytearray):
            node.data = bytearray(bytes(node.data))
        return node

    def write(self, ino: int, offset: int, data: bytes) -> int:
        node = self._writable(ino)
        end = offset + len(data)
        if end > len(node.data):
            node.data.extend(b"\0" * (end - len(node.data)))
        node.data[offset:end] = data
        return len(data)

    def truncate(self, ino: int, size: int) -> None:
        node = self._writable(ino)
        if size < len(node.data):
            del node.data[size:]
        else:
            node.data.extend(b"\0" * (size - len(node.data)))

    def total_bytes(self) -> int:
        return sum(len(n.data) for n in self._by_ino.values())
