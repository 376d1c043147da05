"""mtime-polling snapshot differ: what changed since the last poll?

No inotify/kqueue dependency — a poll walks the tree and stats every
matching file, which is portable and cheap at the corpus sizes the paper
targets (stat is ~1 µs; 10k files poll in ~10 ms).  Each file is reduced
to a :class:`FileStamp` (mtime_ns, size, inode); two consecutive
snapshots diff into a :class:`TreeDelta`:

* **created / deleted** — path present in only one snapshot;
* **modified** — same path, different stamp (covers truncate-and-rewrite,
  in-place edit, and delete-then-recreate between polls, which changes
  the inode);
* **moved** — a deleted path and a created path with the *same* stamp
  (inode + size + mtime) pair up as a rename.

Robustness rules, each covered by ``tests/test_daemon_watch.py``:

* A file whose mtime falls inside the ``debounce`` window (an editor or
  ``rsync`` may still be writing it) is deferred: the previous stamp is
  kept, so the change surfaces on a later poll once the file is quiet.
* Files that cannot be stat'ed or read (permission loss, dangling
  symlink) drop out of the snapshot — i.e. they are reported deleted
  rather than fed to the engine where the read would fail.
* Directory symlink loops are broken by a visited ``(st_dev, st_ino)``
  set, so a self-referential tree terminates in one pass.
"""

from __future__ import annotations

import fnmatch
import os
import stat as stat_module
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["FileStamp", "TreeDelta", "TreeWatcher", "diff_snapshots"]


@dataclass(frozen=True)
class FileStamp:
    """Identity of one file's content at one instant (no content read)."""

    mtime_ns: int
    size: int
    inode: int


@dataclass
class TreeDelta:
    """Classification of one poll's changes against the previous poll."""

    created: list[str] = field(default_factory=list)
    modified: list[str] = field(default_factory=list)
    deleted: list[str] = field(default_factory=list)
    #: ``(old_path, new_path)`` pairs detected as renames.
    moved: list[tuple[str, str]] = field(default_factory=list)

    @property
    def dirty(self) -> list[str]:
        """Paths needing (re-)audit this cycle, sorted and deduplicated.

        A moved file is dirty under its new path: verdicts are content
        functions but records embed the filename, so the cache key (which
        hashes the filename) misses and the file is re-verified once.
        """
        paths = set(self.created) | set(self.modified)
        paths.update(new for _, new in self.moved)
        return sorted(paths)

    @property
    def gone(self) -> list[str]:
        """Paths that no longer exist under their old name."""
        paths = set(self.deleted)
        paths.update(old for old, _ in self.moved)
        return sorted(paths)

    def __bool__(self) -> bool:
        return bool(self.created or self.modified or self.deleted or self.moved)


def diff_snapshots(
    old: dict[str, FileStamp], new: dict[str, FileStamp]
) -> TreeDelta:
    """Classify the transition between two snapshots (move-aware)."""
    delta = TreeDelta()
    created = sorted(set(new) - set(old))
    deleted = sorted(set(old) - set(new))
    for path in sorted(set(old) & set(new)):
        if old[path] != new[path]:
            delta.modified.append(path)
    # Rename detection: an identical stamp disappearing at one path and
    # appearing at another is overwhelmingly a move (same inode, size,
    # and mtime).  Ambiguous stamps (hard links) pair greedily in sorted
    # order; leftovers stay plain created/deleted.
    by_stamp: dict[FileStamp, list[str]] = {}
    for path in deleted:
        by_stamp.setdefault(old[path], []).append(path)
    for path in created:
        candidates = by_stamp.get(new[path])
        if candidates:
            delta.moved.append((candidates.pop(0), path))
        else:
            delta.created.append(path)
    matched = {old_path for old_path, _ in delta.moved}
    delta.deleted.extend(p for p in deleted if p not in matched)
    return delta


class TreeWatcher:
    """Stateful poller: each :meth:`poll` diffs against the last one.

    ``clock`` is injectable (defaults to ``time.time``) so tests drive
    the debounce window deterministically with ``os.utime``-controlled
    mtimes and a fake clock — no real sleeps anywhere in the test suite.
    """

    def __init__(
        self,
        root: str | Path,
        pattern: str = "*.php",
        debounce: float = 0.0,
        clock=time.time,
    ) -> None:
        self.root = Path(root)
        self.pattern = pattern
        self.debounce = debounce
        self._clock = clock
        self._snapshot: dict[str, FileStamp] = {}

    @property
    def tracked(self) -> int:
        """Files in the last committed snapshot."""
        return len(self._snapshot)

    def paths(self) -> list[str]:
        """Paths in the last committed snapshot, sorted — the watch
        loop's project universe when it builds include closures."""
        return sorted(self._snapshot)

    # -- snapshotting -------------------------------------------------------

    def stat_tree(self) -> dict[str, FileStamp]:
        """Stat every matching file under the root right now."""
        stamps: dict[str, FileStamp] = {}
        visited: set[tuple[int, int]] = set()
        self._walk(self.root, stamps, visited)
        return stamps

    def _walk(
        self,
        directory: Path,
        stamps: dict[str, FileStamp],
        visited: set[tuple[int, int]],
    ) -> None:
        try:
            dir_stat = os.stat(directory)
        except OSError:
            return  # directory vanished or became unreadable mid-poll
        identity = (dir_stat.st_dev, dir_stat.st_ino)
        if identity in visited:
            return  # symlink loop (or bind-mount alias): already walked
        visited.add(identity)
        try:
            with os.scandir(directory) as it:
                entries = sorted(it, key=lambda e: e.name)
        except OSError:
            return
        for entry in entries:
            path = Path(entry.path)
            try:
                if entry.is_dir(follow_symlinks=True):
                    self._walk(path, stamps, visited)
                    continue
                if not fnmatch.fnmatch(entry.name, self.pattern):
                    continue
                st = entry.stat(follow_symlinks=True)
            except OSError:
                continue  # dangling symlink / stat-permission loss
            if not stat_module.S_ISREG(st.st_mode):
                continue
            if not os.access(path, os.R_OK):
                continue  # unreadable = invisible (surfaces as deleted)
            stamps[str(path)] = FileStamp(st.st_mtime_ns, st.st_size, st.st_ino)

    # -- polling ------------------------------------------------------------

    def poll(self) -> TreeDelta:
        """Snapshot, debounce, diff against (and replace) the baseline."""
        current = self.stat_tree()
        if self.debounce > 0:
            cutoff_ns = int((self._clock() - self.debounce) * 1e9)
            committed: dict[str, FileStamp] = {}
            for path, stamp in current.items():
                previous = self._snapshot.get(path)
                if stamp != previous and stamp.mtime_ns > cutoff_ns:
                    # Possibly mid-write: pretend this poll never saw the
                    # change (keep the old stamp; brand-new files stay
                    # invisible) so it lands whole on a later poll.
                    if previous is not None:
                        committed[path] = previous
                    continue
                committed[path] = stamp
            current = committed
        delta = diff_snapshots(self._snapshot, current)
        self._snapshot = current
        return delta
