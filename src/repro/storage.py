"""Shared on-disk storage machinery.

:class:`DirectoryStore` is the content-addressed two-level directory
store underlying both persistent caches -- execution records
(:mod:`repro.core.resultcache`) and compiled DBT blocks
(:mod:`repro.sim.dbt.codestore`).  It lives here, close to
dependency-free, so either side can import it without dragging in the
other's package.

Two layers of accounting:

- **session counters** (``hits``/``misses``/``stores``/``quarantined``)
  live on the instance and cover this process only; they are mirrored
  into the process-global metrics registry under
  ``<metrics_name>.<event>`` names so the observability layer sees
  them without polling;
- **persistent totals** live in a ``_totals.json`` file at the store
  root (never mistaken for an entry: entries only live in the
  two-character fan-out subdirectories).  :meth:`fold_totals` folds a
  session delta in with a read-add-replace over an atomic rename,
  serialised across processes by an advisory ``fcntl.flock`` on a
  sidecar ``_totals.lock`` file -- so two concurrent runners (or the
  experiment service plus a CLI run on the same store) never lose each
  other's deltas.  Callers fold once per run (the experiment runner
  does this for the parent *and* every pool worker's shipped delta),
  so ``repro cache stats`` reports activity across all processes, not
  just the parent.
"""

import json
import os
import tempfile

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.obs.metrics import METRICS

#: The persistent-totals file at the store root.
TOTALS_FILENAME = "_totals.json"

#: Sidecar advisory-lock file serialising concurrent totals folds.
TOTALS_LOCKFILE = "_totals.lock"

#: The session-counter vocabulary (also the totals-file schema).
SESSION_KEYS = ("hits", "misses", "stores", "quarantined")


class DirectoryStore:
    """Content-addressed two-level directory store with quarantine.

    Entries fan out as ``root/<key[:2]>/<key><suffix>``, writes go
    through a temp file + atomic rename so concurrent runs never
    observe torn entries, and entries that exist but fail to decode
    are *quarantined* (unlinked, counted) rather than left to make
    every future run re-pay a doomed open+parse.

    Subclasses define :attr:`suffix`, :attr:`decode_errors`, the
    :meth:`_read_entry`/:meth:`_write_entry` codecs and
    :attr:`metrics_name` (the registry prefix for hit/miss/store/
    quarantine counters; ``None`` disables mirroring).
    """

    suffix = ".json"
    #: Exception types that mark an on-disk entry as corrupt (beyond
    #: ``OSError``, which is a plain miss -- e.g. entry absent).
    decode_errors = (ValueError, KeyError, TypeError)
    #: Prefix for mirrored metrics counters (``<name>.hits``, ...).
    metrics_name = None

    def __init__(self, root):
        self.root = os.fspath(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    def _path(self, key):
        return os.path.join(self.root, key[:2], key + self.suffix)

    def _record(self, event):
        # Store traffic is rare (at most once per unique job / per
        # translated block) and sits on I/O paths, so it records
        # unconditionally -- the registry's enabled gate is a *hot-path*
        # economy, and cache accounting must never be lossy.
        if self.metrics_name is not None:
            METRICS.inc("%s.%s" % (self.metrics_name, event))

    def _read_entry(self, path):
        """Decode one entry file; raise ``decode_errors`` on corruption."""
        raise NotImplementedError

    def _write_entry(self, fd, value):
        """Encode ``value`` to the open (binary-capable) descriptor."""
        raise NotImplementedError

    def get(self, key):
        """The stored value, or ``None`` on a miss or quarantine."""
        path = self._path(key)
        try:
            value = self._read_entry(path)
        except OSError:
            self.misses += 1
            self._record("misses")
            return None
        except self.decode_errors:
            self.misses += 1
            self.quarantined += 1
            self._record("misses")
            self._record("quarantined")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        self._record("hits")
        return value

    def scan(self):
        """Iterate every decodable entry as ``(key, value)`` pairs.

        The shared full-store read path (dataset queries, audits).
        Corrupt entries get exactly the :meth:`get` treatment --
        quarantined (unlinked, counted, mirrored to metrics) rather
        than aborting the scan or being silently skipped -- so a bad
        row costs one scan, not every future one.  Entries are yielded
        in sorted key order, so scans are deterministic.
        """
        for path in self._entry_paths():
            name = os.path.basename(path)
            key = name[: -len(self.suffix)] if self.suffix else name
            try:
                value = self._read_entry(path)
            except OSError:
                continue  # raced with a concurrent quarantine/clear
            except self.decode_errors:
                self.quarantined += 1
                self._record("quarantined")
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            yield key, value

    def put(self, key, value):
        """Store a value atomically (write to a temp file, then rename)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            self._write_entry(fd, value)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        self._record("stores")

    def put_new(self, key, value):
        """Store a value only if the key has no entry yet.

        The exclusive-create counterpart of :meth:`put` for append-only
        stores: the value is encoded to a temp file and *linked* into
        place, so when two writers race the same key exactly one link
        succeeds -- the loser observes the existing entry, discards its
        temp file, and returns ``False`` without counting a store.
        """
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            self._write_entry(fd, value)
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
            except OSError:
                # Filesystem without hard links: degrade to a checked
                # replace (a window remains, but the entry content for
                # one key is identical across writers by construction).
                if os.path.exists(path):
                    return False
                os.replace(tmp, path)
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self.stores += 1
        self._record("stores")
        return True

    # ------------------------------------------------------------------
    def session_stats(self):
        """This process's counters (a delta suitable for fold_totals)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
        }

    def _totals_path(self):
        return os.path.join(self.root, TOTALS_FILENAME)

    def totals(self):
        """The persistent cross-process totals (zeros when absent)."""
        try:
            with open(self._totals_path(), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return dict.fromkeys(SESSION_KEYS, 0)
        return {key: int(payload.get(key, 0)) for key in SESSION_KEYS}

    def _fold_lock(self):
        """An exclusively-flocked descriptor on the sidecar lock file,
        or ``None`` where advisory locks are unavailable (the fold then
        degrades to the bare atomic replace)."""
        if fcntl is None:
            return None
        try:
            fd = os.open(
                os.path.join(self.root, TOTALS_LOCKFILE),
                os.O_CREAT | os.O_RDWR,
                0o644,
            )
        except OSError:
            return None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            os.close(fd)
            return None
        return fd

    def fold_totals(self, delta=None):
        """Fold a session delta into ``_totals.json`` and return the new
        totals.

        ``delta`` defaults to this instance's session counters.  The
        fold is read-add-replace through an atomic rename, guarded by
        an advisory ``fcntl.flock`` on a sidecar lock file: the rename
        alone keeps the file from tearing, but two concurrent folds
        would both read the same base and the second replace would
        silently drop the first's delta -- with the lock held across
        read-add-replace, every delta lands exactly once however many
        runners share the store.
        """
        if delta is None:
            delta = self.session_stats()
        if not any(int(delta.get(key, 0)) for key in SESSION_KEYS):
            return self.totals()
        os.makedirs(self.root, exist_ok=True)
        lock_fd = self._fold_lock()
        try:
            totals = self.totals()
            for key in SESSION_KEYS:
                totals[key] += int(delta.get(key, 0))
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(totals, fh, sort_keys=True)
                os.replace(tmp, self._totals_path())
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        finally:
            if lock_fd is not None:
                try:
                    fcntl.flock(lock_fd, fcntl.LOCK_UN)
                finally:
                    os.close(lock_fd)
        return totals

    def fold_session(self):
        """Fold this instance's session counters into the totals and
        zero them, so the next fold carries only newer activity.  For a
        store one owner folds (the dataset under a resolver or the
        experiment service); totals are best-effort accounting, so a
        failed fold is dropped rather than raised."""
        delta = self.session_stats()
        if any(delta.values()):
            try:
                self.fold_totals(delta)
            except OSError:
                pass
        self.hits = self.misses = self.stores = self.quarantined = 0

    # ------------------------------------------------------------------
    def _entry_paths(self):
        if not os.path.isdir(self.root):
            return
        for prefix in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, prefix)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(self.suffix):
                    yield os.path.join(subdir, name)

    def stats(self):
        """Summary of the on-disk store plus this session's counters
        and the persistent cross-process totals."""
        entries = 0
        total_bytes = 0
        for path in self._entry_paths():
            entries += 1
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        return {
            "root": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "totals": self.totals(),
        }

    def clear(self):
        """Delete every cache entry (and the persistent totals);
        returns the number of entries removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        for name in (TOTALS_FILENAME, TOTALS_LOCKFILE):
            try:
                os.unlink(os.path.join(self.root, name))
            except OSError:
                pass
        return removed

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.root)
