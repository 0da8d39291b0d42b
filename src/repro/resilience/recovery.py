"""Journaled checkpoint/restart: crash-safe out-of-core execution.

The resilience layer (DESIGN.md §10) survives *in-process* faults — a
kernel raising, a worker dying, memory pressure — but nothing in it
survives the death of the process itself.  For the jobs the out-of-core
layer exists for (tiled TTMs over memmap tensors, multi-sweep HOOI
decompositions) that is the dominant failure: a ``kill -9`` at tile
900/1000 throws away every completed tile and, worse, leaves a torn
output file that looks like a finished result.  This module closes the
gap with two mechanisms:

**The journal** — a JSON-lines manifest beside the job.  Line 1 is a
header carrying the schema version, the job kind, a digest of the
execution decision (the tiling geometry, the HOOI configuration), and
cheap content fingerprints of the inputs.  Every completed unit of work
(tile, stream chunk, HOOI sweep) then appends one commit record carrying
a CRC-32 content checksum of the bytes it landed.  Appends are a single
``write`` of one line, so a crash can tear at most the final line, which
the parser drops; fsync is grouped on a time interval
(:data:`SYNC_INTERVAL_S`) so durability costs O(elapsed time), not
O(commits).  The journal also owns its directory's durability: its own
creation and every sidecar or output rename it lands share one
directory fsync, made at the journal's next sync.  A commit record is
never *trusted* on resume: the landed bytes are re-checksummed first,
and a mismatch (torn page, bit rot) recomputes the unit instead of
silently keeping it.

**Complete-or-untouched landing** — outputs written to a path go to
``<path>.partial`` and are published with fsync + ``os.replace`` only
after every unit committed, so a file at the requested path is always
a complete, verified result, across crashes and power loss alike.

The consumers are :func:`repro.core.tiling.execute_tiled` /
``ttm_tiled`` (``journal_path=``), :func:`repro.core.tiling.ttm_stream`
(resumable chunk cursors), and :func:`repro.decomp.tucker.hooi`
(``checkpoint_path=``), all through :func:`_journaled`;
``python -m repro recover {show,resume,verify}`` is the operator surface.  The deterministic ``crash`` fault point
(:mod:`repro.resilience.faults`) makes process death a test input at
sites ``tile-commit``, ``journal-append``, ``chunk-commit`` and
``sweep-end``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Sequence

import numpy as np

from repro.obs.tracer import active_tracer
from repro.perf.profiler import active_hot_counters
from repro.resilience.faults import active_faults
from repro.util.errors import RecoveryError

#: Journal file format version.  Bumped on any change to the header or
#: record shapes; a mismatched journal refuses to resume (the safe
#: failure: recompute from scratch under a fresh journal).
JOURNAL_SCHEMA = 1

#: Grouped-fsync interval for commit records, seconds.  A crash loses at
#: most this much *committed-but-unsynced* work to a power cut (a plain
#: ``kill -9`` loses nothing: the page cache survives the process), and
#: in exchange journal durability costs O(elapsed time) instead of one
#: fsync per tile.  The final record is always fsync'd, and every
#: checkpoint sidecar's data before its rename; the header and the
#: directory entries become durable at the journal's next sync.
SYNC_INTERVAL_S = 0.05

#: Bytes sampled per region (head, middle, tail) by the input
#: fingerprints.  Sampling keeps fingerprinting O(1) for memmap tensors
#: that deliberately do not fit in RAM; the full-file checksum lives in
#: the per-tile commit records, not here.
FINGERPRINT_SAMPLE_BYTES = 1 << 16


# -- checksums and fingerprints ----------------------------------------------


#: Contiguous runs shorter than this are packed before their CRC: one
#: small copy costs less than a ``zlib.crc32`` call per run.
_CRC_MIN_RUN_BYTES = 4096


def region_checksum(arr) -> int:
    """CRC-32 over an array region's bytes in memory order.

    The content checksum the journal commits and resume verifies.  Any
    single-bit flip changes a CRC-32, which is the integrity class this
    layer defends against (torn pages, partial writes, bit rot) —
    adversarial corruption is out of scope.

    Memory order is the order ``copy(order="K")`` packs: axes by
    decreasing stride, so a strided view of a column-major array sums
    like its contiguous column-major copy.  A strided region is fed
    to the CRC one contiguous inner run at a time, without a copy,
    unless its runs are short.
    """
    a = np.asarray(arr)
    if a.flags["F_CONTIGUOUS"] and not a.flags["C_CONTIGUOUS"]:
        a = a.T
    if not a.flags["C_CONTIGUOUS"]:
        a = a.transpose(
            sorted(range(a.ndim), key=lambda ax: -abs(a.strides[ax]))
        )
        # The trailing axes that are contiguous together form one run.
        inner, run = a.ndim, a.itemsize
        while inner and (a.shape[inner - 1] == 1
                         or a.strides[inner - 1] == run):
            inner -= 1
            run *= a.shape[inner]
        if run < _CRC_MIN_RUN_BYTES:
            a = np.ascontiguousarray(a)
        else:
            crc = 0
            for index in np.ndindex(a.shape[:inner]):
                crc = zlib.crc32(a[index], crc)
            return crc & 0xFFFFFFFF
    return zlib.crc32(a) & 0xFFFFFFFF


def file_checksum(path) -> int:
    """CRC-32 of a whole file, streamed through one reused 64 KiB buffer."""
    crc = 0
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            crc = zlib.crc32(view[:n], crc)
    return crc & 0xFFFFFFFF


def fingerprint_array(arr: np.ndarray) -> dict:
    """A cheap, stable identity for one input operand.

    Geometry plus CRC-32s of sampled byte ranges (head/middle/tail).
    Sampling is deliberate: fingerprinting a terabyte memmap must not
    read a terabyte.  Two tensors that differ only outside the sampled
    ranges collide here — the per-unit content checksums still catch
    any output divergence on verify.
    """
    a = np.asarray(arr)
    if a.flags["F_CONTIGUOUS"] and not a.flags["C_CONTIGUOUS"]:
        a = a.T
    if not a.flags["C_CONTIGUOUS"]:
        a = np.ascontiguousarray(a)
    flat = a.reshape(-1)
    n = flat.size
    step = max(1, FINGERPRINT_SAMPLE_BYTES // max(1, a.itemsize))
    samples = []
    for lo in (0, max(0, n // 2 - step // 2), max(0, n - step)):
        samples.append(region_checksum(flat[lo : lo + step]))
    return {
        "shape": list(a.shape),
        "dtype": a.dtype.name,
        "nbytes": int(a.nbytes),
        "samples": samples,
    }


def fingerprint_tensor(x) -> dict:
    """:func:`fingerprint_array` plus the tensor's declared layout."""
    info = fingerprint_array(x.data)
    info["layout"] = x.layout.name
    return info


def digest_payload(payload: dict) -> str:
    """A short stable digest of a JSON-safe decision record.

    Used to pin the execution decision (tiling geometry, HOOI config)
    in the journal header: resume refuses to continue a job under a
    different decision than the one that wrote the committed work.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def memmap_path(x) -> str | None:
    """The backing file of a memmap-backed tensor/array, or None."""
    node = getattr(x, "data", x)
    while node is not None:
        if isinstance(node, np.memmap):
            filename = getattr(node, "filename", None)
            return None if filename is None else str(filename)
        node = getattr(node, "base", None)
    return None


# -- durable file landing -----------------------------------------------------


def partial_path(path) -> str:
    """Where an output lands before it is published."""
    return f"{path}.partial"


def _fsync(fd: int) -> None:
    """``os.fsync``, counted under ``store_fsyncs``: every sync this layer
    makes (file data, directories, the journal) goes through here."""
    os.fsync(fd)
    counters = active_hot_counters()
    if counters is not None:
        counters.add("store_fsyncs")


def fsync_file(path) -> None:
    """fsync an existing file by path (flushes the page cache to media).

    On Linux this also writes back pages dirtied through a shared
    ``mmap`` of the file, so a memmapped output needs no ``msync`` first.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        _fsync(fd)
    finally:
        os.close(fd)


def _parent(path) -> str:
    return os.path.dirname(os.path.abspath(path)) or "."


def _fsync_directory(directory: str) -> None:
    """fsync *directory* so the renames inside it survive power loss.

    Best-effort: some filesystems refuse O_RDONLY on directories; the
    rename itself is still atomic there, only its durability window
    widens to the next metadata flush.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        _fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def publish_file(partial: str, final: str, journal=None) -> None:
    """Atomically publish a completed ``.partial`` file at its final path.

    fsync the data, ``os.replace`` into place, fsync the directory: the
    complete-or-untouched commit protocol.  After this returns, a file
    at *final* is a complete result even across power loss.  With a
    *journal*, the directory fsync is deferred to that journal's next
    sync (:meth:`Journal._sync`), which every record depending on this
    file must pass through before it is durable itself.
    """
    fsync_file(partial)
    os.replace(partial, final)
    if journal is None:
        _fsync_directory(_parent(final))
    else:
        journal._defer_dir(final)


def _land_sidecar(path: str, write: Callable[[BinaryIO], None],
                  journal=None) -> int:
    """The one sidecar landing: *write* ``<path>.partial``, CRC the file,
    publish it (through *journal*, if any); returns the CRC for the
    unit's commit record."""
    part = partial_path(path)
    with open(part, "wb") as fh:
        write(fh)
    crc = file_checksum(part)
    publish_file(part, path, journal)
    return crc


def atomic_save_array(path: str, arr: np.ndarray, journal=None) -> int:
    """Write an ``.npy`` durably via the partial + publish protocol.

    The array is saved in its own memory order (``.npy`` records
    ``fortran_order``), so a column-major array is neither copied to row
    major nor reloaded as one.  Returns the CRC-32 of the written file so
    callers can journal it.
    """
    return _land_sidecar(path, lambda fh: np.save(fh, arr), journal)


def _publish_text(path: str, text: str, prefix: str) -> None:
    """Land *text* at *path* complete-or-untouched, through a unique
    temp file (concurrent writers never share one) and :func:`publish_file`.
    """
    fd, tmp_path = tempfile.mkstemp(
        prefix=prefix, suffix=".tmp", dir=os.path.dirname(os.path.abspath(path))
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        publish_file(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# -- the journal ---------------------------------------------------------------


@dataclass
class Journal:
    """An append-only JSON-lines manifest for one resumable job.

    One header line, then one commit record per completed unit of work,
    then a ``done`` record.  Appends are single ``write`` calls (a crash
    tears at most the trailing line); fsync is grouped on
    :data:`SYNC_INTERVAL_S`.  A sync (:meth:`_sync`) first fsyncs every
    directory holding a deferred rename — the journal's own creation, a
    sidecar or an output landed through it — then the journal file, and
    only when something changed since the last one.  Use :meth:`fresh`
    to start a job, :meth:`read` to inspect one, and
    :func:`open_or_resume` for the create-or-continue decision executors
    need.
    """

    path: str
    header: dict
    sync_interval_s: float = SYNC_INTERVAL_S
    _fd: int | None = field(default=None, repr=False)
    _last_sync: float = field(default=0.0, repr=False)
    #: Bytes written to the journal file since its last fsync.
    _unsynced: bool = field(default=False, repr=False)
    #: Directories whose entries await the next sync's fsync.
    _dirs: set = field(default_factory=set, repr=False)

    @classmethod
    def fresh(cls, path, header: dict,
              sync_interval_s: float = SYNC_INTERVAL_S) -> "Journal":
        """Create (truncating any previous journal) and write the header.

        The header and the journal's directory entry become durable at
        the first sync, with the first records that depend on them.
        """
        header = dict(header)
        header["type"] = "header"
        header["schema"] = JOURNAL_SCHEMA
        journal = cls(str(path), header, sync_interval_s)
        journal._fd = os.open(
            str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
        )
        os.write(journal._fd, cls._encode(header))
        journal._unsynced = True
        journal._defer_dir(path)
        journal._last_sync = time.monotonic()
        return journal

    @classmethod
    def read(cls, path) -> tuple[dict, list[dict]]:
        """Parse a journal: (header, records), dropping a torn last line.

        Raises :class:`RecoveryError` for a journal with no parseable
        header — an unusable file, distinct from a merely torn tail.
        """
        header: dict | None = None
        records: list[dict] = []
        with open(path, "rb") as fh:
            raw = fh.read()
        for i, line in enumerate(raw.splitlines()):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if header is None:
                    raise RecoveryError(
                        f"journal {path} has no parseable header; delete it "
                        "to restart the job from scratch"
                    ) from None
                # A torn trailing line is the expected crash artifact;
                # a torn line in the *middle* would desynchronize the
                # manifest, so everything after it is dropped too.
                break
            if i == 0 or header is None:
                if record.get("type") != "header":
                    raise RecoveryError(
                        f"journal {path} does not start with a header record"
                    )
                header = record
            else:
                records.append(record)
        if header is None:
            raise RecoveryError(f"journal {path} is empty")
        return header, records

    @classmethod
    def resume(cls, path, sync_interval_s: float = SYNC_INTERVAL_S,
               ) -> tuple["Journal", list[dict]]:
        """Reopen an existing journal for appending; returns its records."""
        header, records = cls.read(path)
        journal = cls(str(path), header, sync_interval_s)
        journal._fd = os.open(str(path), os.O_WRONLY | os.O_APPEND, 0o644)
        journal._last_sync = time.monotonic()
        return journal, records

    @staticmethod
    def _encode(record: dict) -> bytes:
        return (json.dumps(record, sort_keys=True,
                           separators=(",", ":")) + "\n").encode()

    def append(self, record: dict) -> None:
        """Append one commit record (a single write; grouped fsync).

        The deterministic ``crash`` fault point fires here with
        ``site="journal-append"`` *before* the write, so an injected
        kill loses exactly this record and nothing earlier.
        """
        if self._fd is None:
            raise RecoveryError(f"journal {self.path} is closed")
        faults = active_faults()
        if faults is not None:
            faults.check("crash", site="journal-append",
                         record=record.get("type"))
        os.write(self._fd, self._encode(record))
        self._unsynced = True
        counters = active_hot_counters()
        if counters is not None:
            counters.add("journal_commits")
        if time.monotonic() - self._last_sync >= self.sync_interval_s:
            self._sync()

    def _defer_dir(self, path) -> None:
        """Make the directory entry of *path* durable at the next sync."""
        self._dirs.add(_parent(path))

    def _sync(self) -> None:
        """fsync what changed since the last sync: each deferred directory
        first (a record never names a file whose entry is less durable
        than itself), then the journal file."""
        for directory in sorted(self._dirs):
            _fsync_directory(directory)
        self._dirs.clear()
        if self._unsynced:
            _fsync(self._fd)
            self._unsynced = False
        self._last_sync = time.monotonic()

    def close(self, final: dict | None = None) -> None:
        """Append an optional final record, sync, and release the fd."""
        if self._fd is None:
            return
        try:
            if final is not None:
                self.append(final)
            self._sync()
        finally:
            os.close(self._fd)
            self._fd = None


def open_or_resume(
    path,
    header: dict,
    sync_interval_s: float = SYNC_INTERVAL_S,
) -> tuple[Journal, list[dict]]:
    """A journal for *header*'s job: resumed when one exists, else fresh.

    An existing journal resumes only when its kind, schema, decision
    digest, and input fingerprints all match *header* — anything else
    raises :class:`RecoveryError` rather than silently splicing two
    different jobs' work together.  A journal whose header cannot be
    parsed at all is treated as garbage and overwritten.
    """
    path = str(path)
    if not os.path.exists(path):
        return Journal.fresh(path, header, sync_interval_s), []
    try:
        existing, records = Journal.read(path)
    except RecoveryError:
        return Journal.fresh(path, header, sync_interval_s), []
    if existing.get("schema") != JOURNAL_SCHEMA:
        raise RecoveryError(
            f"journal {path} was written under schema "
            f"{existing.get('schema')!r}; this build writes "
            f"{JOURNAL_SCHEMA}.  Delete it to restart from scratch."
        )
    for key in ("kind", "digest", "inputs"):
        if existing.get(key) != header.get(key):
            raise RecoveryError(
                f"journal {path} is for a different job ({key} mismatch: "
                f"journal {existing.get(key)!r} vs current "
                f"{header.get(key)!r}); delete it to restart, or point "
                "journal_path somewhere else"
            )
    journal, _ = Journal.resume(path, sync_interval_s)
    return journal, records


def committed_units(records: Sequence[dict], rtype: str,
                    key: str = "index") -> dict[int, dict]:
    """The last committed record per unit index for one record type."""
    out: dict[int, dict] = {}
    for record in records:
        if record.get("type") == rtype and key in record:
            out[int(record[key])] = record
    return out


def is_done(records: Sequence[dict]) -> bool:
    return any(record.get("type") == "done" for record in records)


# -- the one journal client ----------------------------------------------------


@dataclass
class _Run:
    """One job's open journal and the units it has already committed."""

    journal: Journal | None
    committed: dict[int, dict]
    done: bool
    #: The ``done`` record to close with on a clean exit.
    final: dict | None = None
    #: ``(partial, final)`` paths of an output to publish on a clean exit.
    land: tuple[str, str] | None = None


@contextmanager
def _journaled(journal_path, header: dict | None, rtype: str,
               key: str = "index"):
    """The one journal lifecycle: open or resume *journal_path*, yield a
    :class:`_Run` of its committed *rtype* units, and on a clean exit
    write ``run.final`` (unless the journal is already done), publish
    ``run.land`` and close; on an error close it flushed but resumable.

    The final record, the output's rename and everything deferred
    before them become durable in one :meth:`Journal._sync` at close.
    """
    if journal_path is None:
        run = _Run(None, {}, False)
        yield run
        if run.land is not None:
            publish_file(*run.land)
        return
    journal, records = open_or_resume(journal_path, header)
    run = _Run(journal, committed_units(records, rtype, key=key),
               is_done(records))
    try:
        yield run
        if run.final is not None and not run.done:
            journal.append(run.final)
        if run.land is not None:
            publish_file(*run.land, journal)
    finally:
        journal.close()


def _count_resume(checked: int, kept: int) -> None:
    """Count a resume: ``tiles_reverified`` per check made, passed or
    failed, and ``tiles_resumed`` per unit kept."""
    counters = active_hot_counters()
    if counters is not None:
        counters.add("tiles_reverified", checked)
        counters.add("tiles_resumed", kept)


def _sidecar_matches(path, record: dict) -> bool:
    """Whether the sidecar at *path* is the file *record* committed."""
    return os.path.exists(path) and file_checksum(path) == record.get("crc")


def _resume_sidecar(path, committed: dict[int, dict], upto: int) -> bool:
    """Whether the sidecar matches unit ``upto - 1``'s commit, so units
    ``0..upto-1`` resume from it; counts the check and what it keeps."""
    ok = _sidecar_matches(path, committed[upto - 1])
    _count_resume(1, upto if ok else 0)
    return ok


def _check_tiles(tiling, out: np.ndarray,
                 committed: dict[int, dict]) -> tuple[set[int], list[int]]:
    """Re-checksum the committed tiles of *tiling* against *out*:
    ``(kept, mismatched)`` tile indices."""
    specs = {spec.index: spec for spec in tiling.tiles()}
    kept: set[int] = set()
    mismatched: list[int] = []
    for index, record in sorted(committed.items()):
        spec = specs.get(index)
        if (spec is not None
                and region_checksum(out[spec.out_slices]) == record.get("crc")):
            kept.add(index)
        else:
            mismatched.append(index)
    return kept, mismatched


# -- verification --------------------------------------------------------------


@dataclass
class VerifyReport:
    """What re-checksumming a landed result against its journal found."""

    journal_path: str
    kind: str
    target: str | None
    total: int
    verified: int
    mismatched: list[int]
    missing: bool = False
    done: bool = False

    @property
    def ok(self) -> bool:
        return not self.missing and not self.mismatched and self.verified > 0

    def describe(self) -> str:
        if self.missing:
            return (f"FAIL  {self.kind}: output {self.target} missing "
                    f"(journal {self.journal_path})")
        status = "ok" if self.ok else "FAIL"
        extra = "" if not self.mismatched else (
            f", CORRUPT units {self.mismatched}"
        )
        done = "complete" if self.done else "in progress"
        return (
            f"{status}    {self.kind} ({done}): {self.verified}/{self.total} "
            f"unit checksums match on {self.target}{extra}"
        )


def _tiling_from_header(header: dict):
    from repro.core.tiling import TilingPlan

    return TilingPlan.from_dict(header["decision"])


def verify_journal(journal_path, out_path=None) -> VerifyReport:
    """Re-checksum a journal's landed data; the ``recover verify`` core.

    For a tiled TTM every committed tile's output region is re-read and
    CRC-checked against its commit record (a published result is
    preferred over a lingering ``.partial``); for HOOI and streaming
    accumulation the checkpoint sidecar file is checked against the last
    committed record.  A single flipped byte anywhere a record covers
    flips its CRC-32 and lands in ``mismatched``.
    """
    header, records = Journal.read(journal_path)
    kind = header.get("kind", "?")
    done = is_done(records)
    tracer = active_tracer()
    if not tracer.enabled:
        return _verify_impl(journal_path, header, records, kind, done,
                            out_path)
    with tracer.span("recover-verify", journal=str(journal_path),
                     kind=kind) as span:
        report = _verify_impl(journal_path, header, records, kind, done,
                              out_path)
        span.set(total=report.total, verified=report.verified,
                 mismatched=len(report.mismatched), ok=report.ok)
    return report


def _verify_impl(journal_path, header, records, kind, done,
                 out_path) -> VerifyReport:
    if kind == "ttm-tiled":
        tiling = _tiling_from_header(header)
        target = out_path or header.get("out_path")
        if target is None:
            raise RecoveryError(
                f"journal {journal_path} landed no output file (in-RAM "
                "out=); nothing on disk to verify"
            )
        actual = str(target)
        if not os.path.exists(actual):
            part = partial_path(actual)
            if os.path.exists(part):
                actual = part
            else:
                return VerifyReport(str(journal_path), kind, str(target),
                                    tiling.n_tiles, 0, [], missing=True,
                                    done=done)
        from repro.tensor.dense import open_memmap_tensor

        out = open_memmap_tensor(actual, "r")
        kept, mismatched = _check_tiles(
            tiling, out.data, committed_units(records, "tile")
        )
        return VerifyReport(
            str(journal_path), kind, actual, tiling.n_tiles, len(kept),
            mismatched, done=done,
        )
    if kind in ("hooi", "ttm-stream"):
        rtype = "sweep" if kind == "hooi" else "chunk"
        key = rtype
        committed = committed_units(records, rtype, key=key) or \
            committed_units(records, rtype)
        sidecar = header.get("state_path")
        if sidecar is None:
            # Streaming with axis != mode hands chunks to the caller;
            # there is no file of ours to re-read, only the manifest.
            return VerifyReport(str(journal_path), kind, None,
                                len(committed), len(committed), [],
                                done=done)
        if not os.path.exists(sidecar):
            return VerifyReport(str(journal_path), kind, sidecar,
                                len(committed), 0, [], missing=True,
                                done=done)
        if not committed:
            return VerifyReport(str(journal_path), kind, sidecar, 0, 0, [],
                                done=done)
        last = max(committed)
        ok = _sidecar_matches(sidecar, committed[last])
        return VerifyReport(str(journal_path), kind, sidecar, 1, int(ok),
                            [] if ok else [last], done=done)
    raise RecoveryError(
        f"journal {journal_path} has unknown kind {kind!r}"
    )


# -- operator surface (the `recover` CLI core) ---------------------------------


def describe_journal(journal_path) -> list[tuple[str, str]]:
    """Label/value rows summarizing a journal, for ``recover show``."""
    header, records = Journal.read(journal_path)
    kind = header.get("kind", "?")
    rows = [
        ("journal", str(journal_path)),
        ("kind", kind),
        ("schema", str(header.get("schema"))),
        ("decision digest", str(header.get("digest"))),
    ]
    if kind == "ttm-tiled":
        tiling = _tiling_from_header(header)
        committed = committed_units(records, "tile")
        rows += [
            ("signature", tiling.describe()),
            ("tiles committed", f"{len(committed)} / {tiling.n_tiles}"),
            ("out_path", str(header.get("out_path"))),
            ("x_path", str(header.get("x_path"))),
        ]
    elif kind == "hooi":
        committed = committed_units(records, "sweep", key="sweep")
        fit = committed[max(committed)].get("fit") if committed else None
        rows += [
            ("sweeps committed", str(len(committed))),
            ("last fit", "-" if fit is None else f"{fit:.6f}"),
            ("state_path", str(header.get("state_path"))),
            ("x_path", str(header.get("x_path"))),
        ]
    elif kind == "ttm-stream":
        committed = committed_units(records, "chunk", key="chunk")
        rows += [
            ("chunks committed", str(len(committed))),
            ("state_path", str(header.get("state_path"))),
        ]
    status = "complete" if is_done(records) else "interrupted (resumable)"
    rows.append(("status", status))
    return rows


def resume_job(journal_path, max_threads: int = 1) -> dict:
    """Finish an interrupted journaled job from its manifest alone.

    The CLI's ``recover resume``: everything needed to continue must
    have been recorded at journal-creation time — the input tensor's
    backing file (``x_path``), the U sidecar, the decision record.
    Jobs whose inputs were in-RAM only (no recorded paths) are not
    CLI-resumable; resume those by re-invoking the original API call
    with the same ``journal_path``.
    """
    header, records = Journal.read(journal_path)
    kind = header.get("kind")
    if kind == "ttm-tiled":
        x_path = header.get("x_path")
        u_path = header.get("u_path")
        if not x_path or not u_path:
            raise RecoveryError(
                f"journal {journal_path} records no input paths (the job "
                "ran on in-RAM operands); re-invoke ttm_tiled with the "
                "original operands and the same journal_path to resume"
            )
        if header.get("out_path") is None:
            raise RecoveryError(
                f"journal {journal_path} landed no output file; re-invoke "
                "ttm_tiled with the original out= to resume"
            )
        from repro.core.tiling import execute_tiled
        from repro.tensor.dense import open_memmap_tensor

        tiling = _tiling_from_header(header)
        x = open_memmap_tensor(x_path, "r")
        u = np.load(u_path)
        out = execute_tiled(
            x, u, tiling, out_path=header["out_path"],
            journal_path=journal_path,
        )
        return {"kind": kind, "out_path": header["out_path"],
                "shape": list(out.shape)}
    if kind == "hooi":
        x_path = header.get("x_path")
        if not x_path:
            raise RecoveryError(
                f"journal {journal_path} records no tensor path; re-invoke "
                "hooi(checkpoint_path=...) with the original tensor to "
                "resume"
            )
        from repro.decomp.tucker import hooi
        from repro.tensor.dense import open_memmap_tensor

        x = open_memmap_tensor(x_path, "r")
        result = hooi(
            x,
            tuple(header["ranks"]),
            max_iterations=int(header["max_iterations"]),
            tolerance=float(header["tolerance"]),
            svd_method=header.get("svd_method", "auto"),
            checkpoint_path=journal_path,
        )
        return {"kind": kind, "fit": result.fit,
                "iterations": result.iterations}
    if kind == "ttm-stream":
        raise RecoveryError(
            "streaming jobs consume a live slice source the journal cannot "
            "reconstruct; resume by re-invoking ttm_stream with the same "
            "slices and journal_path — committed chunks will be skipped"
        )
    raise RecoveryError(f"journal {journal_path} has unknown kind {kind!r}")
