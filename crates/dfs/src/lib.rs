#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
//! # sigmund-dfs
//!
//! A simulated shared distributed filesystem — the GFS [9] stand-in.
//!
//! Sigmund leans on three filesystem behaviours that this crate reproduces:
//!
//! * **shared, fault-tolerant storage**: any task in any cell can read any
//!   path (a training task resumed on a different machine must find its
//!   checkpoint);
//! * **atomic publish via rename**: checkpoints are written to a temp path
//!   and renamed, so readers never observe a torn checkpoint, and the
//!   previous checkpoint is garbage-collected as soon as a new one lands
//!   (Section IV-B3);
//! * **data placement and cross-cell transfer accounting**: training "simply
//!   migrate[s] the training data to the data center where the computation is
//!   run" (Section IV-B1) — the byte counters here let the pipeline weigh
//!   that network cost against the CPU savings.
//!
//! Everything lives in process memory behind a [`parking_lot`] lock; paths
//! are plain `/`-separated strings.
//!
//! ## Chunk-checksummed blob framing
//!
//! Every [`Dfs::write`] stamps the stored blob with one FNV-1a 64 checksum
//! ([`sigmund_types::fnv1a64`]) per [`CHUNK`]-byte chunk of the bytes the
//! caller handed in — GFS's 64 KB checksum blocks, HDFS's 512-byte
//! `bytes-per-checksum` — in the same single pass the whole-blob hash used
//! to take. Every [`Dfs::read`] re-hashes every chunk of the bytes about to
//! be returned and compares; [`Dfs::read_range`] re-hashes only the chunks
//! its range overlaps, which is what makes a read of one record cost one
//! record instead of one table while *every byte a reader is handed is
//! still verified here*. A mismatch — a torn read, or a bit silently
//! flipped at rest by the [`fault`] injector's `BitFlip` class — surfaces as
//! [`SigmundError::Corrupt`] *at the storage layer*, instead of wherever the
//! bytes happen to deserialize (or worse, don't). The checksums are kept in
//! the entry's metadata, not framed into the payload, so [`Dfs::peek`] still
//! returns exactly the stored bytes (and stays the only unverified
//! accessor — an audit surface for tests). [`Dfs::scrub`] walks a prefix
//! offline, verifies every blob, and repairs from the retained previous
//! version of the path where that version still verifies.

pub mod checkpoint;
pub mod fault;

pub use checkpoint::CheckpointStore;
pub use fault::{FaultInjector, FaultStats};

use bytes::Bytes;
use fault::{ReadFault, WriteFault};
use parking_lot::RwLock;
use sigmund_types::{fnv1a64, fnv1a64_chunks, CellId, FaultPlan, SigmundError};
use std::collections::BTreeMap;

/// Bytes per checksum. HDFS's `bytes-per-checksum` default, and the size
/// the cold-lookup probe was measured at: a ranged read of a ~170-byte
/// record hashes one chunk (two when it straddles a boundary) — ≈ 0.6 µs
/// each at FNV-1a's byte-serial rate — while the per-chunk sums cost 1.6 %
/// of the stored bytes. See DESIGN.md §10.
const CHUNK: usize = 512;

/// The per-chunk FNV-1a 64 checksums of one blob. Chunk 0's sum is held
/// inline (an empty blob is one empty chunk), so a blob of at most one
/// chunk — every checkpoint header, marker and small manifest — costs one
/// `fnv1a64` and no allocation, exactly what the whole-blob checksum cost.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChunkSums {
    head: u64,
    tail: Vec<u64>,
}

impl ChunkSums {
    /// Sums `data` in one pass.
    fn stamp(data: &[u8]) -> Self {
        let (head, rest) = data.split_at(data.len().min(CHUNK));
        let mut tail = Vec::with_capacity(rest.len().div_ceil(CHUNK));
        fnv1a64_chunks(rest, CHUNK, |sum| tail.push(sum));
        ChunkSums {
            head: fnv1a64(head),
            tail,
        }
    }

    /// Chunks summed.
    fn len(&self) -> usize {
        1 + self.tail.len()
    }

    fn get(&self, chunk: usize) -> Option<u64> {
        match chunk.checked_sub(1) {
            None => Some(self.head),
            Some(i) => self.tail.get(i).copied(),
        }
    }

    /// True iff `span` is exactly the bytes that were summed for chunks
    /// `first .. first + n`: every chunk of it re-hashes to its stamp and
    /// there are `n` of them — a span cut short fails on its last chunk or
    /// on the count.
    fn verifies(&self, first: usize, n: usize, span: &[u8]) -> bool {
        if span.is_empty() {
            return n == 1 && self.get(first) == Some(fnv1a64(span));
        }
        let (mut at, mut ok) = (first, true);
        fnv1a64_chunks(span, CHUNK, |sum| {
            ok &= self.get(at) == Some(sum);
            at += 1;
        });
        ok && at - first == n
    }

    /// [`ChunkSums::verifies`] for a whole blob.
    fn verifies_all(&self, data: &[u8]) -> bool {
        self.verifies(0, self.len(), data)
    }
}

/// A file plus the cell its primary replica lives in.
///
/// `sums` are the chunk checksums of the bytes the *writer supplied* — if
/// the injector flipped a bit on the way to storage, `data` no longer
/// matches them, which is exactly how the corruption is caught. `prev`
/// retains the previous version of the path (data + its checksums) so
/// [`Dfs::scrub`] has a healthy generation to repair from.
#[derive(Debug, Clone)]
struct Entry {
    data: Bytes,
    sums: ChunkSums,
    home: CellId,
    prev: Option<(Bytes, ChunkSums)>,
}

/// Cross-cell traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferStats {
    /// Bytes read by a cell other than the one holding the data. A ranged
    /// read is charged the whole checksum chunks it verified — those are
    /// what crosses the wire, as in HDFS.
    pub cross_cell_read_bytes: u64,
    /// Bytes moved by explicit [`Dfs::migrate`] calls.
    pub migrated_bytes: u64,
}

/// Integrity counters: corruption *detected* by checksum verification, as
/// opposed to the injector's [`FaultStats`], which counts corruption
/// *injected*. Reconciling the two is how tests prove nothing slips through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Reads that failed checksum verification (torn or bit-flipped blobs).
    pub checksum_failures: u64,
    /// Blobs a [`Dfs::scrub`] pass found corrupt.
    pub scrub_corrupt: u64,
    /// Corrupt blobs a [`Dfs::scrub`] pass repaired from a previous version.
    pub scrub_repairs: u64,
}

/// Outcome of one [`Dfs::scrub`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blobs whose checksum was verified.
    pub scanned: u64,
    /// Blobs that failed verification.
    pub corrupt: u64,
    /// Corrupt blobs restored from a verified previous version.
    pub repaired: u64,
    /// Paths left corrupt: no previous version, or the previous version is
    /// itself corrupt.
    pub unrepairable: Vec<String>,
    /// Orphaned `…/TMP` blobs removed — the stranded half of an interrupted
    /// write-temp + atomic-rename publish (crash between the temp write and
    /// the rename).
    pub orphans_removed: u64,
}

/// The simulated distributed filesystem.
///
/// ```
/// use sigmund_dfs::Dfs;
/// use sigmund_types::CellId;
/// use bytes::Bytes;
/// let dfs = Dfs::new();
/// dfs.write(CellId(0), "/models/r1/c0", Bytes::from_static(b"weights")).unwrap();
/// assert_eq!(&dfs.read(CellId(0), "/models/r1/c0").unwrap()[..], b"weights");
/// // Reading from another cell is accounted as cross-cell traffic.
/// dfs.read(CellId(1), "/models/r1/c0").unwrap();
/// assert_eq!(dfs.stats().cross_cell_read_bytes, 7);
/// ```
#[derive(Debug, Default)]
pub struct Dfs {
    files: RwLock<BTreeMap<String, Entry>>,
    stats: RwLock<TransferStats>,
    integrity: RwLock<IntegrityStats>,
    injector: Option<FaultInjector>,
}

impl Dfs {
    /// An empty filesystem with no fault injection: every operation that
    /// would succeed on a healthy filesystem succeeds.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty filesystem whose reads and writes are filtered through a
    /// seeded [`FaultInjector`] executing `plan`. With an all-zero plan the
    /// injector draws nothing, but callers that want provable transparency
    /// should check [`FaultPlan::is_noop`] and use [`Dfs::new`] instead.
    pub fn with_faults(plan: FaultPlan) -> Self {
        Dfs {
            files: RwLock::default(),
            stats: RwLock::default(),
            integrity: RwLock::default(),
            injector: Some(FaultInjector::new(plan)),
        }
    }

    /// The fault injector, if this filesystem was built with one. The
    /// pipeline uses this to advance the injector's virtual day and to
    /// export [`FaultStats`] counters.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// True iff a kill-point has fired on this filesystem's injector: the
    /// simulated process is dead, and every storage operation fails with
    /// [`SigmundError::Crashed`] until a restart.
    pub fn crashed(&self) -> bool {
        self.injector.as_ref().is_some_and(|inj| inj.crashed())
    }

    /// A restarted filesystem handle, for crash recovery: durable state —
    /// files, retained previous versions, replica homes — carries over,
    /// while per-process state (traffic counters, integrity counters, and
    /// the fault injector with its sticky crash) is rebuilt fresh from
    /// `plan`. A noop plan attaches no injector at all, exactly like
    /// [`Dfs::new`].
    pub fn restart(&self, plan: FaultPlan) -> Dfs {
        Dfs {
            files: RwLock::new(self.files.read().clone()),
            stats: RwLock::default(),
            integrity: RwLock::default(),
            injector: if plan.is_noop() {
                None
            } else {
                Some(FaultInjector::new(plan))
            },
        }
    }

    /// Writes (or overwrites) `path`, homing the data in `cell` and stamping
    /// the chunk checksums of the supplied bytes. Overwriting retains the
    /// replaced version as the path's repair source for [`Dfs::scrub`].
    ///
    /// # Errors
    /// [`SigmundError::Transient`] if the fault injector drops the write
    /// (nothing is stored; the caller may retry). A `BitFlip` fault instead
    /// *succeeds*, storing the payload with one bit flipped — the corruption
    /// is only discovered when a later read fails checksum verification.
    pub fn write(&self, cell: CellId, path: &str, data: Bytes) -> Result<(), SigmundError> {
        let sums = ChunkSums::stamp(&data);
        let data = match self
            .injector
            .as_ref()
            .map_or(WriteFault::None, |inj| inj.on_write())
        {
            WriteFault::None => data,
            WriteFault::Error => {
                return Err(SigmundError::Transient(format!(
                    "injected write fault: {path}"
                )));
            }
            WriteFault::BitFlip { entropy } => fault::flip(&data, entropy),
            // Crash-atomic: an interrupted write stores nothing, so restart
            // either sees the previous version of the path or no path at all
            // — never a torn blob the checksum would have to catch.
            WriteFault::Crashed => {
                return Err(SigmundError::Crashed(format!("write {path}")));
            }
        };
        let mut entry = Entry {
            data,
            sums,
            home: cell,
            prev: None,
        };
        let mut files = self.files.write();
        match files.get_mut(path) {
            Some(slot) => {
                std::mem::swap(slot, &mut entry);
                slot.prev = Some((entry.data, entry.sums));
            }
            None => {
                files.insert(path.to_string(), entry);
            }
        }
        Ok(())
    }

    /// The injector's verdict on one read of data homed in `home`: `Ok(true)`
    /// if the bytes come back torn, `Ok(false)` if they come back whole.
    /// [`Dfs::read`] and [`Dfs::read_range`] both take exactly this one draw.
    fn read_fault(&self, cell: CellId, home: CellId, path: &str) -> Result<bool, SigmundError> {
        match self
            .injector
            .as_ref()
            .map_or(ReadFault::None, |inj| inj.on_read(cell, home))
        {
            ReadFault::None => Ok(false),
            ReadFault::Torn => Ok(true),
            ReadFault::Error => Err(SigmundError::Transient(format!(
                "injected read fault: {path}"
            ))),
            ReadFault::Partitioned => Err(SigmundError::Transient(format!(
                "partition: cell {} cannot reach {path} (home cell {})",
                cell.0, home.0
            ))),
            ReadFault::Crashed => Err(SigmundError::Crashed(format!("read {path}"))),
        }
    }

    fn checksum_failure(&self, path: &str) -> SigmundError {
        self.integrity.write().checksum_failures += 1;
        SigmundError::Corrupt(format!("checksum mismatch reading {path}"))
    }

    /// Reads `path` from `cell`, charging cross-cell traffic if the data
    /// lives elsewhere.
    ///
    /// # Errors
    /// [`SigmundError::NotFound`] if the path does not exist;
    /// [`SigmundError::Transient`] if the fault injector fails the read or
    /// an active partition blocks the cross-cell transfer;
    /// [`SigmundError::Corrupt`] if any chunk of the bytes about to be
    /// returned fails checksum verification — a torn read, or a payload
    /// bit-flipped at write time. Corrupt is retryable for torn reads (the
    /// stored blob is intact) but persistent for bit flips.
    pub fn read(&self, cell: CellId, path: &str) -> Result<Bytes, SigmundError> {
        let files = self.files.read();
        let entry = files
            .get(path)
            .ok_or_else(|| SigmundError::NotFound(path.to_string()))?;
        let torn = self.read_fault(cell, entry.home, path)?;
        if entry.home != cell {
            self.stats.write().cross_cell_read_bytes += entry.data.len() as u64;
        }
        let fetched = if torn {
            fault::tear(&entry.data)
        } else {
            &entry.data
        };
        if !entry.sums.verifies_all(fetched) {
            return Err(self.checksum_failure(path));
        }
        Ok(if torn {
            Bytes::copy_from_slice(fetched)
        } else {
            entry.data.clone()
        })
    }

    /// Reads bytes `offset .. offset + len` of `path` from `cell`: one
    /// record out of a table blob. The storage layer fetches the whole
    /// checksum chunks the range overlaps, verifies exactly those, and
    /// hands back the requested bytes — so a ranged read costs its range,
    /// not its blob, and is still a verified read. It takes the same single
    /// injector draw as [`Dfs::read`] (the fault lands on the chunks
    /// fetched) and charges them as cross-cell traffic if the data lives
    /// elsewhere.
    ///
    /// # Errors
    /// As [`Dfs::read`]; additionally [`SigmundError::Corrupt`] if the range
    /// does not lie inside the blob (whatever told the caller to look there
    /// does not describe these bytes), or if a bit flipped at rest lies in
    /// a chunk the range overlaps — a flip elsewhere in the blob is not
    /// this read's to find.
    pub fn read_range(
        &self,
        cell: CellId,
        path: &str,
        offset: usize,
        len: usize,
    ) -> Result<Bytes, SigmundError> {
        let files = self.files.read();
        let entry = files
            .get(path)
            .ok_or_else(|| SigmundError::NotFound(path.to_string()))?;
        let total = entry.data.len();
        let Some(end) = offset.checked_add(len).filter(|&end| end <= total) else {
            return Err(SigmundError::Corrupt(format!(
                "range {offset}+{len} is outside {path} ({total} bytes)"
            )));
        };
        let torn = self.read_fault(cell, entry.home, path)?;
        if len == 0 {
            return Ok(Bytes::new());
        }
        let (first, last) = (offset / CHUNK, end.div_ceil(CHUNK));
        let span_start = first * CHUNK;
        let span = &entry.data[span_start..total.min(last * CHUNK)];
        if entry.home != cell {
            self.stats.write().cross_cell_read_bytes += span.len() as u64;
        }
        let fetched = if torn { fault::tear(span) } else { span };
        // A verified span is the whole span, so the range is in it.
        match fetched.get(offset - span_start..end - span_start) {
            Some(range) if entry.sums.verifies(first, last - first, fetched) => {
                Ok(Bytes::copy_from_slice(range))
            }
            _ => Err(self.checksum_failure(path)),
        }
    }

    /// Reads `path` without consulting the fault injector and without
    /// charging cross-cell traffic: an audit-surface read for tests and
    /// offline inspection. Production loads must go through [`Dfs::read`] so
    /// faults and transfer accounting stay on the data path.
    pub fn peek(&self, path: &str) -> Option<Bytes> {
        self.files.read().get(path).map(|e| e.data.clone())
    }

    /// True iff `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// Deletes `path`.
    ///
    /// # Errors
    /// [`SigmundError::NotFound`] if the path does not exist;
    /// [`SigmundError::Crashed`] if the kill-point fires (nothing is
    /// removed — a dead process cannot mutate storage).
    pub fn delete(&self, path: &str) -> Result<(), SigmundError> {
        if self.injector.as_ref().is_some_and(|inj| inj.on_meta_op()) {
            return Err(SigmundError::Crashed(format!("delete {path}")));
        }
        self.files
            .write()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| SigmundError::NotFound(path.to_string()))
    }

    /// Atomically renames `from` to `to` (replacing `to` if present), the
    /// primitive checkpointing builds on. A replaced target becomes the new
    /// entry's retained previous version, so [`Dfs::scrub`] can repair a
    /// corrupt publish from the generation it superseded.
    ///
    /// # Errors
    /// [`SigmundError::NotFound`] if `from` does not exist;
    /// [`SigmundError::Crashed`] if the kill-point fires — the rename does
    /// not happen, which is exactly the "crash between temp write and
    /// publish" window: the target keeps its previous version and the temp
    /// blob is stranded for [`Dfs::scrub`] / recovery to garbage-collect.
    pub fn rename(&self, from: &str, to: &str) -> Result<(), SigmundError> {
        if self.injector.as_ref().is_some_and(|inj| inj.on_meta_op()) {
            return Err(SigmundError::Crashed(format!("rename {from} -> {to}")));
        }
        let mut files = self.files.write();
        let mut entry = files
            .remove(from)
            .ok_or_else(|| SigmundError::NotFound(from.to_string()))?;
        match files.get_mut(to) {
            Some(slot) => {
                std::mem::swap(slot, &mut entry);
                slot.prev = Some((entry.data, entry.sums));
            }
            None => {
                files.insert(to.to_string(), entry);
            }
        }
        Ok(())
    }

    /// Re-homes `path`'s data into `cell`, charging migration traffic.
    /// Used to move training data into the cell that will compute on it.
    ///
    /// # Errors
    /// [`SigmundError::NotFound`] if the path does not exist;
    /// [`SigmundError::Crashed`] if the kill-point fires (placement is
    /// unchanged).
    pub fn migrate(&self, path: &str, cell: CellId) -> Result<(), SigmundError> {
        if self.injector.as_ref().is_some_and(|inj| inj.on_meta_op()) {
            return Err(SigmundError::Crashed(format!("migrate {path}")));
        }
        let mut files = self.files.write();
        let entry = files
            .get_mut(path)
            .ok_or_else(|| SigmundError::NotFound(path.to_string()))?;
        if entry.home != cell {
            self.stats.write().migrated_bytes += entry.data.len() as u64;
            entry.home = cell;
        }
        Ok(())
    }

    /// The cell currently holding `path`.
    pub fn home_of(&self, path: &str) -> Option<CellId> {
        self.files.read().get(path).map(|e| e.home)
    }

    /// All paths with the given prefix, in lexicographic order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Total bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.files
            .read()
            .values()
            .map(|e| e.data.len() as u64)
            .sum()
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> TransferStats {
        *self.stats.read()
    }

    /// Integrity counters so far (corruption detected, scrub activity).
    pub fn integrity_stats(&self) -> IntegrityStats {
        *self.integrity.read()
    }

    /// Verifies the checksum of every blob under `prefix` and repairs
    /// corrupt blobs from the path's retained previous version where that
    /// version still verifies. Also garbage-collects orphaned `…/TMP` blobs
    /// — the stranded temp half of an interrupted write-temp + atomic-rename
    /// publish. An offline maintenance pass: it bypasses the fault injector
    /// (scrubbing reads the replica directly) and charges no cross-cell
    /// traffic.
    pub fn scrub(&self, prefix: &str) -> ScrubReport {
        let mut report = ScrubReport::default();
        let mut files = self.files.write();
        let orphans: Vec<String> = files
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter(|(k, _)| k.rsplit('/').next() == Some("TMP"))
            .map(|(k, _)| k.clone())
            .collect();
        for path in orphans {
            files.remove(&path);
            report.orphans_removed += 1;
        }
        for (path, entry) in files.range_mut(prefix.to_string()..) {
            if !path.starts_with(prefix) {
                break;
            }
            report.scanned += 1;
            if entry.sums.verifies_all(&entry.data) {
                continue;
            }
            report.corrupt += 1;
            match entry.prev.take() {
                Some((data, sums)) if sums.verifies_all(&data) => {
                    entry.data = data;
                    entry.sums = sums;
                    report.repaired += 1;
                }
                _ => report.unrepairable.push(path.clone()),
            }
        }
        let mut integ = self.integrity.write();
        integ.scrub_corrupt += report.corrupt;
        integ.scrub_repairs += report.repaired;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CellId = CellId(0);
    const C1: CellId = CellId(1);

    #[test]
    fn write_read_round_trip() {
        let dfs = Dfs::new();
        dfs.write(C0, "/a/b", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(dfs.read(C0, "/a/b").unwrap(), Bytes::from_static(b"hello"));
        assert!(dfs.exists("/a/b"));
        assert!(!dfs.exists("/a"));
    }

    #[test]
    fn missing_path_errors() {
        let dfs = Dfs::new();
        assert!(matches!(
            dfs.read(C0, "/nope"),
            Err(SigmundError::NotFound(_))
        ));
        assert!(dfs.delete("/nope").is_err());
        assert!(dfs.rename("/nope", "/x").is_err());
        assert!(dfs.migrate("/nope", C0).is_err());
    }

    #[test]
    fn cross_cell_reads_are_charged() {
        let dfs = Dfs::new();
        dfs.write(C0, "/data", Bytes::from(vec![0u8; 100])).unwrap();
        dfs.read(C0, "/data").unwrap(); // local: free
        assert_eq!(dfs.stats().cross_cell_read_bytes, 0);
        dfs.read(C1, "/data").unwrap(); // remote: charged
        assert_eq!(dfs.stats().cross_cell_read_bytes, 100);
    }

    #[test]
    fn migrate_rehomes_and_charges_once() {
        let dfs = Dfs::new();
        dfs.write(C0, "/data", Bytes::from(vec![0u8; 64])).unwrap();
        dfs.migrate("/data", C1).unwrap();
        assert_eq!(dfs.home_of("/data"), Some(C1));
        assert_eq!(dfs.stats().migrated_bytes, 64);
        // Idempotent: migrating to the same cell is free.
        dfs.migrate("/data", C1).unwrap();
        assert_eq!(dfs.stats().migrated_bytes, 64);
        // Reads from the new home are now local.
        dfs.read(C1, "/data").unwrap();
        assert_eq!(dfs.stats().cross_cell_read_bytes, 0);
    }

    #[test]
    fn rename_is_atomic_replace() {
        let dfs = Dfs::new();
        dfs.write(C0, "/tmp", Bytes::from_static(b"new")).unwrap();
        dfs.write(C0, "/final", Bytes::from_static(b"old")).unwrap();
        dfs.rename("/tmp", "/final").unwrap();
        assert!(!dfs.exists("/tmp"));
        assert_eq!(dfs.read(C0, "/final").unwrap(), Bytes::from_static(b"new"));
    }

    #[test]
    fn list_by_prefix() {
        let dfs = Dfs::new();
        dfs.write(C0, "/models/r1/c0", Bytes::new()).unwrap();
        dfs.write(C0, "/models/r1/c1", Bytes::new()).unwrap();
        dfs.write(C0, "/models/r2/c0", Bytes::new()).unwrap();
        dfs.write(C0, "/data/r1", Bytes::new()).unwrap();
        assert_eq!(dfs.list("/models/r1/").len(), 2);
        assert_eq!(dfs.list("/models/").len(), 3);
        assert_eq!(dfs.list("/zzz").len(), 0);
    }

    #[test]
    fn injected_write_fault_drops_the_write() {
        let dfs = Dfs::with_faults(FaultPlan {
            seed: 1,
            write_error_rate: 1.0,
            ..FaultPlan::default()
        });
        let err = dfs.write(C0, "/a", Bytes::from_static(b"x")).unwrap_err();
        assert!(matches!(err, SigmundError::Transient(_)));
        assert!(!dfs.exists("/a"), "a faulted write must store nothing");
        assert_eq!(dfs.injector().unwrap().stats().write_errors, 1);
    }

    #[test]
    fn torn_read_is_caught_by_checksum() {
        let dfs = Dfs::with_faults(FaultPlan {
            seed: 1,
            corrupt_rate: 1.0,
            ..FaultPlan::default()
        });
        dfs.write(C0, "/a", Bytes::from(vec![9u8; 8])).unwrap();
        // The injector tears the payload, the storage layer detects it:
        // callers see Corrupt instead of silently short bytes.
        assert!(matches!(dfs.read(C0, "/a"), Err(SigmundError::Corrupt(_))));
        assert_eq!(dfs.injector().unwrap().stats().torn_reads, 1);
        assert_eq!(dfs.integrity_stats().checksum_failures, 1);
        // The stored blob itself is intact — a retry that doesn't tear wins.
        assert_eq!(dfs.peek("/a").unwrap().len(), 8);
    }

    #[test]
    fn bit_flipped_write_succeeds_but_every_read_fails_checksum() {
        let dfs = Dfs::with_faults(FaultPlan {
            seed: 3,
            bitflip_rate: 1.0,
            ..FaultPlan::default()
        });
        dfs.write(C0, "/m", Bytes::from(vec![0u8; 32])).unwrap();
        assert!(dfs.exists("/m"), "a bit-flip write reports success");
        assert_eq!(dfs.injector().unwrap().stats().bit_flips, 1);
        // Unlike a torn read, the corruption is persistent: every read fails.
        for _ in 0..3 {
            assert!(matches!(dfs.read(C0, "/m"), Err(SigmundError::Corrupt(_))));
        }
        assert_eq!(dfs.integrity_stats().checksum_failures, 3);
        // peek exposes the raw (corrupt) replica for audits.
        let raw = dfs.peek("/m").unwrap();
        assert_eq!(raw.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn scrub_repairs_from_previous_version() {
        let dfs = Dfs::with_faults(FaultPlan {
            seed: 3,
            bitflip_rate: 1.0,
            from_day: 1,
            until_day: 2,
            ..FaultPlan::default()
        });
        // Day 0: healthy generation lands.
        dfs.write(C0, "/m", Bytes::from(vec![1u8; 16])).unwrap();
        dfs.write(C0, "/other", Bytes::from(vec![2u8; 16])).unwrap();
        // Day 1: the overwrite is silently flipped.
        dfs.injector().unwrap().begin_day(1);
        dfs.write(C0, "/m", Bytes::from(vec![3u8; 16])).unwrap();
        assert!(dfs.read(C0, "/m").is_err());
        let report = dfs.scrub("/");
        assert_eq!((report.scanned, report.corrupt, report.repaired), (2, 1, 1));
        assert!(report.unrepairable.is_empty());
        // Repaired to the day-0 generation, readable again.
        assert_eq!(dfs.read(C0, "/m").unwrap(), Bytes::from(vec![1u8; 16]));
        let integ = dfs.integrity_stats();
        assert_eq!((integ.scrub_corrupt, integ.scrub_repairs), (1, 1));
    }

    #[test]
    fn scrub_reports_unrepairable_first_generation_corruption() {
        let dfs = Dfs::with_faults(FaultPlan {
            seed: 3,
            bitflip_rate: 1.0,
            ..FaultPlan::default()
        });
        // First-ever write of the path is flipped: no previous version.
        dfs.write(C0, "/m", Bytes::from(vec![1u8; 16])).unwrap();
        let report = dfs.scrub("/");
        assert_eq!((report.corrupt, report.repaired), (1, 0));
        assert_eq!(report.unrepairable, vec!["/m".to_string()]);
        // Scrub is honest: the blob stays corrupt rather than silently
        // "repaired" with bad bytes.
        assert!(dfs.read(C0, "/m").is_err());
    }

    #[test]
    fn scrub_of_healthy_tree_is_a_no_op() {
        let dfs = Dfs::new();
        dfs.write(C0, "/a", Bytes::from_static(b"x")).unwrap();
        dfs.write(C0, "/b", Bytes::from_static(b"y")).unwrap();
        let report = dfs.scrub("/");
        assert_eq!((report.scanned, report.corrupt), (2, 0));
        assert_eq!(dfs.integrity_stats(), IntegrityStats::default());
    }

    #[test]
    fn partition_blocks_cross_cell_reads_until_window_ends() {
        let dfs = Dfs::with_faults(FaultPlan {
            partitions: vec![sigmund_types::Partition {
                cell: C1,
                from_day: 0,
                until_day: 1,
            }],
            ..FaultPlan::default()
        });
        dfs.write(C1, "/data", Bytes::from(vec![0u8; 4])).unwrap();
        assert!(dfs.read(C1, "/data").is_ok(), "local read unaffected");
        assert!(matches!(
            dfs.read(C0, "/data"),
            Err(SigmundError::Transient(_))
        ));
        dfs.injector().unwrap().begin_day(1);
        assert!(dfs.read(C0, "/data").is_ok(), "partition healed on day 1");
    }

    #[test]
    fn crash_is_sticky_across_every_operation_and_restart_clears_it() {
        let dfs = Dfs::with_faults(FaultPlan {
            crash_at: Some((0, 2)),
            ..FaultPlan::default()
        });
        dfs.write(C0, "/a", Bytes::from_static(b"one")).unwrap(); // op 0
        dfs.write(C0, "/b", Bytes::from_static(b"two")).unwrap(); // op 1
                                                                  // Op 2 is the kill-point: the write stores nothing …
        let err = dfs.write(C0, "/c", Bytes::from_static(b"x")).unwrap_err();
        assert!(matches!(err, SigmundError::Crashed(_)));
        assert!(!dfs.exists("/c"));
        assert!(dfs.crashed());
        // … and every later op is dead too, retries included.
        assert!(matches!(dfs.read(C0, "/a"), Err(SigmundError::Crashed(_))));
        assert!(matches!(dfs.delete("/a"), Err(SigmundError::Crashed(_))));
        assert!(matches!(
            dfs.rename("/a", "/z"),
            Err(SigmundError::Crashed(_))
        ));
        assert!(matches!(
            dfs.migrate("/a", C1),
            Err(SigmundError::Crashed(_))
        ));
        assert!(dfs.exists("/a"), "a dead process cannot mutate storage");
        // Restart: durable state survives, the crash does not.
        let reborn = dfs.restart(FaultPlan::default());
        assert!(!reborn.crashed());
        assert!(
            reborn.injector().is_none(),
            "noop plan attaches no injector"
        );
        assert_eq!(reborn.read(C0, "/a").unwrap(), Bytes::from_static(b"one"));
        assert_eq!(reborn.read(C0, "/b").unwrap(), Bytes::from_static(b"two"));
        assert_eq!(reborn.stats(), TransferStats::default());
        assert_eq!(reborn.integrity_stats(), IntegrityStats::default());
    }

    #[test]
    fn restart_preserves_previous_versions_for_scrub() {
        let dfs = Dfs::new();
        dfs.write(C0, "/m", Bytes::from_static(b"v1")).unwrap();
        dfs.write(C0, "/m", Bytes::from_static(b"v2")).unwrap();
        let reborn = dfs.restart(FaultPlan::default());
        // Corrupt the live copy in place via a bit-flipping overwrite on yet
        // another restart, then scrub-repair from the retained v2.
        let flipping = reborn.restart(FaultPlan {
            bitflip_rate: 1.0,
            ..FaultPlan::default()
        });
        flipping.write(C0, "/m", Bytes::from_static(b"v3")).unwrap();
        assert!(flipping.read(C0, "/m").is_err());
        let report = flipping.scrub("/");
        assert_eq!(report.repaired, 1);
        assert_eq!(flipping.read(C0, "/m").unwrap(), Bytes::from_static(b"v2"));
    }

    #[test]
    fn scrub_collects_orphaned_tmp_blobs() {
        let dfs = Dfs::new();
        dfs.write(C0, "/ckpt/r0/c0/TMP", Bytes::from_static(b"half"))
            .unwrap();
        dfs.write(C0, "/ckpt/r0/c0/LIVE", Bytes::from_static(b"live"))
            .unwrap();
        dfs.write(C0, "/journal/day-0/TMP", Bytes::from_static(b"torn"))
            .unwrap();
        // Not an orphan: TMP is a path segment, not the final component.
        dfs.write(C0, "/data/TMPDIR/x", Bytes::from_static(b"keep"))
            .unwrap();
        let report = dfs.scrub("/");
        assert_eq!(report.orphans_removed, 2);
        assert!(!dfs.exists("/ckpt/r0/c0/TMP"));
        assert!(!dfs.exists("/journal/day-0/TMP"));
        assert!(dfs.exists("/ckpt/r0/c0/LIVE"));
        assert!(dfs.exists("/data/TMPDIR/x"));
        // Orphans are GC'd, not scanned: only the survivors are verified.
        assert_eq!(report.scanned, 2);
        // Idempotent.
        assert_eq!(dfs.scrub("/").orphans_removed, 0);
    }

    /// Deterministic filler whose every chunk differs.
    fn blob(len: usize) -> Bytes {
        Bytes::from(
            (0..len as u64)
                .map(|i| sigmund_types::splitmix64(i).to_le_bytes()[0])
                .collect::<Vec<u8>>(),
        )
    }

    fn is_corrupt<T>(r: Result<T, SigmundError>) -> bool {
        matches!(r, Err(SigmundError::Corrupt(_)))
    }

    /// The sizes where chunking can go wrong, plus one long enough for the
    /// lockstep hasher to run a full group and leave a ragged tail.
    const EDGE_LENS: [usize; 7] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 9 * CHUNK + 3];

    #[test]
    fn chunk_edge_blobs_round_trip_whole_and_by_range() {
        for len in EDGE_LENS {
            let dfs = Dfs::new();
            let data = blob(len);
            dfs.write(C0, "/b", data.clone()).unwrap();
            assert_eq!(dfs.read(C0, "/b").unwrap(), data, "len {len}");
            let sums = dfs.files.read()["/b"].sums.clone();
            assert_eq!(sums.len(), len.div_ceil(CHUNK).max(1), "len {len}");
            assert_eq!(
                sums.tail.capacity() == 0,
                len <= CHUNK,
                "one-chunk blobs allocate nothing for their sums"
            );
            let cuts = [
                0,
                1,
                CHUNK - 1,
                CHUNK,
                CHUNK + 1,
                len / 2,
                len.saturating_sub(1),
                len,
            ];
            for &at in cuts.iter().filter(|&&at| at <= len) {
                for &n in cuts.iter().filter(|&&n| at + n <= len) {
                    let got = dfs.read_range(C0, "/b", at, n).unwrap();
                    assert_eq!(got, data[at..at + n], "len {len} range {at}+{n}");
                }
                // One past the end, and an end that overflows: errors, not panics.
                assert!(is_corrupt(dfs.read_range(C0, "/b", at, len - at + 1)));
                assert!(is_corrupt(dfs.read_range(C0, "/b", at.max(1), usize::MAX)));
            }
            assert!(matches!(
                dfs.read_range(C0, "/nope", 0, 0),
                Err(SigmundError::NotFound(_))
            ));
            assert_eq!(dfs.integrity_stats(), IntegrityStats::default());
        }
    }

    #[test]
    fn a_flipped_byte_fails_whole_reads_and_exactly_the_ranges_on_its_chunk() {
        for len in EDGE_LENS.into_iter().filter(|&len| len > 0) {
            for victim in [0, len / 3, len / 2, len - 1] {
                let dfs = Dfs::new();
                dfs.write(C0, "/b", blob(len)).unwrap();
                {
                    let mut files = dfs.files.write();
                    let entry = files.get_mut("/b").unwrap();
                    let mut bad = entry.data.to_vec();
                    bad[victim] ^= 0x10;
                    entry.data = Bytes::from(bad);
                }
                assert!(is_corrupt(dfs.read(C0, "/b")), "len {len} byte {victim}");
                for at in (0..len).step_by(97) {
                    for n in [1, 40, CHUNK, len - at] {
                        let n = n.min(len - at);
                        let touches =
                            at / CHUNK <= victim / CHUNK && victim / CHUNK <= (at + n - 1) / CHUNK;
                        assert_eq!(
                            is_corrupt(dfs.read_range(C0, "/b", at, n)),
                            touches,
                            "len {len} byte {victim} range {at}+{n}"
                        );
                    }
                }
                assert_eq!(dfs.scrub("/").unrepairable, vec!["/b".to_string()]);
            }
        }
    }

    #[test]
    fn a_torn_range_read_is_corrupt_and_a_retry_wins() {
        let plan = FaultPlan {
            seed: 1,
            corrupt_rate: 1.0,
            until_day: 1,
            ..FaultPlan::default()
        };
        let dfs = Dfs::with_faults(plan);
        let data = blob(3 * CHUNK + 7);
        dfs.write(C0, "/b", data.clone()).unwrap();
        for (at, n) in [(0, 1), (5, 100), (CHUNK - 1, 2), (2 * CHUNK, CHUNK + 7)] {
            assert!(is_corrupt(dfs.read_range(C0, "/b", at, n)), "{at}+{n}");
        }
        assert_eq!(dfs.injector().unwrap().stats().torn_reads, 4);
        assert_eq!(dfs.integrity_stats().checksum_failures, 4);
        // Nothing to tear in an empty range.
        assert_eq!(dfs.read_range(C0, "/b", 9, 0).unwrap(), Bytes::new());
        // The stored blob is intact: once the fault window closes, it reads.
        dfs.injector().unwrap().begin_day(1);
        assert_eq!(dfs.read_range(C0, "/b", 5, 100).unwrap(), data[5..105]);
    }

    #[test]
    fn a_range_read_takes_the_injector_draws_of_a_whole_read() {
        let plan = FaultPlan {
            seed: 11,
            read_error_rate: 0.3,
            corrupt_rate: 0.3,
            ..FaultPlan::default()
        };
        let outcome = |r: Result<Bytes, SigmundError>| match r {
            Ok(_) => 0,
            Err(SigmundError::Transient(_)) => 1,
            Err(SigmundError::Corrupt(_)) => 2,
            Err(e) => panic!("unexpected {e}"),
        };
        let (whole, ranged) = (Dfs::with_faults(plan.clone()), Dfs::with_faults(plan));
        for dfs in [&whole, &ranged] {
            dfs.write(C0, "/b", blob(2 * CHUNK)).unwrap();
        }
        // Same plan, same op sequence: each call must meet the same fate,
        // which it only can if each consumed the same draws.
        for i in 0..200 {
            let a = outcome(whole.read(C0, "/b"));
            let b = outcome(ranged.read_range(C0, "/b", i, CHUNK));
            assert_eq!(a, b, "call {i}");
        }
        let stats = whole.injector().unwrap().stats();
        assert_eq!(stats, ranged.injector().unwrap().stats());
        assert!(stats.read_errors > 0 && stats.torn_reads > 0, "{stats:?}");
    }

    #[test]
    fn a_range_read_is_charged_the_chunks_it_verified() {
        let dfs = Dfs::new();
        dfs.write(C0, "/b", blob(4 * CHUNK + 10)).unwrap();
        dfs.read_range(C0, "/b", 10, 20).unwrap(); // local: free
        assert_eq!(dfs.stats().cross_cell_read_bytes, 0);
        dfs.read_range(C1, "/b", 10, 20).unwrap(); // one chunk
        dfs.read_range(C1, "/b", CHUNK - 1, 2).unwrap(); // straddles two
        dfs.read_range(C1, "/b", 4 * CHUNK + 1, 3).unwrap(); // the short tail
        assert_eq!(
            dfs.stats().cross_cell_read_bytes,
            (CHUNK + 2 * CHUNK + 10) as u64
        );
    }

    #[test]
    fn scrub_repairs_a_multi_chunk_blob_for_range_readers_too() {
        let dfs = Dfs::with_faults(FaultPlan {
            seed: 3,
            bitflip_rate: 1.0,
            from_day: 1,
            until_day: 2,
            ..FaultPlan::default()
        });
        let (v1, v2) = (blob(5 * CHUNK + 1), blob(6 * CHUNK));
        dfs.write(C0, "/m", v1.clone()).unwrap();
        dfs.injector().unwrap().begin_day(1);
        dfs.write(C0, "/m", v2.clone()).unwrap(); // silently flipped
        assert!(is_corrupt(dfs.read(C0, "/m")));
        let flipped = dfs.peek("/m").unwrap();
        let at = (0..v2.len()).find(|&i| flipped[i] != v2[i]).unwrap();
        assert!(is_corrupt(dfs.read_range(C0, "/m", at, 1)));
        let report = dfs.scrub("/");
        assert_eq!((report.corrupt, report.repaired), (1, 1));
        assert_eq!(dfs.read(C0, "/m").unwrap(), v1);
        assert_eq!(
            dfs.read_range(C0, "/m", 5 * CHUNK, 1).unwrap(),
            v1[5 * CHUNK..]
        );
    }

    #[test]
    fn plain_dfs_has_no_injector() {
        assert!(Dfs::new().injector().is_none());
        assert!(Dfs::default().injector().is_none());
    }

    #[test]
    fn total_bytes_sums_files() {
        let dfs = Dfs::new();
        dfs.write(C0, "/a", Bytes::from(vec![0u8; 10])).unwrap();
        dfs.write(C0, "/b", Bytes::from(vec![0u8; 5])).unwrap();
        assert_eq!(dfs.total_bytes(), 15);
        dfs.delete("/a").unwrap();
        assert_eq!(dfs.total_bytes(), 5);
    }
}
