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
//! ## Checksummed blob framing
//!
//! Every [`Dfs::write`] stamps the stored blob with an FNV-1a 64 content
//! checksum ([`sigmund_types::fnv1a64`]) computed over the bytes the caller
//! handed in, and every [`Dfs::read`] re-hashes the bytes about to be
//! returned and compares. A mismatch — a torn read, or a bit silently
//! flipped at rest by the [`fault`] injector's `BitFlip` class — surfaces as
//! [`SigmundError::Corrupt`] *at the storage layer*, instead of wherever the
//! bytes happen to deserialize (or worse, don't). The checksum is kept in
//! the entry's metadata, not framed into the payload, so [`Dfs::peek`] still
//! returns exactly the stored bytes. [`Dfs::scrub`] walks a prefix offline,
//! verifies every blob, and repairs from the retained previous version of
//! the path where that version still verifies.

pub mod checkpoint;
pub mod fault;

pub use checkpoint::CheckpointStore;
pub use fault::{FaultInjector, FaultStats};

use bytes::Bytes;
use fault::{ReadFault, WriteFault};
use parking_lot::RwLock;
use sigmund_types::{fnv1a64, CellId, FaultPlan, SigmundError};
use std::collections::BTreeMap;

/// A file plus the cell its primary replica lives in.
///
/// `crc` is the FNV-1a 64 hash of the bytes the *writer supplied* — if the
/// injector flipped a bit on the way to storage, `data` no longer matches
/// `crc`, which is exactly how the corruption is caught. `prev` retains the
/// previous version of the path (data + its checksum) so [`Dfs::scrub`] has
/// a healthy generation to repair from.
#[derive(Debug, Clone)]
struct Entry {
    data: Bytes,
    crc: u64,
    home: CellId,
    prev: Option<(Bytes, u64)>,
}

/// Cross-cell traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferStats {
    /// Bytes read by a cell other than the one holding the data.
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
    /// an FNV-1a 64 checksum over the supplied bytes. Overwriting retains
    /// the replaced version as the path's repair source for [`Dfs::scrub`].
    ///
    /// # Errors
    /// [`SigmundError::Transient`] if the fault injector drops the write
    /// (nothing is stored; the caller may retry). A `BitFlip` fault instead
    /// *succeeds*, storing the payload with one bit flipped — the corruption
    /// is only discovered when a later read fails checksum verification.
    pub fn write(&self, cell: CellId, path: &str, data: Bytes) -> Result<(), SigmundError> {
        let crc = fnv1a64(&data);
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
        let mut files = self.files.write();
        let prev = files.get(path).map(|e| (e.data.clone(), e.crc));
        files.insert(
            path.to_string(),
            Entry {
                data,
                crc,
                home: cell,
                prev,
            },
        );
        Ok(())
    }

    /// Reads `path` from `cell`, charging cross-cell traffic if the data
    /// lives elsewhere.
    ///
    /// # Errors
    /// [`SigmundError::NotFound`] if the path does not exist;
    /// [`SigmundError::Transient`] if the fault injector fails the read or
    /// an active partition blocks the cross-cell transfer;
    /// [`SigmundError::Corrupt`] if the bytes about to be returned fail
    /// checksum verification — a torn read, or a payload bit-flipped at
    /// write time. Corrupt is retryable for torn reads (the stored blob is
    /// intact) but persistent for bit flips.
    pub fn read(&self, cell: CellId, path: &str) -> Result<Bytes, SigmundError> {
        let files = self.files.read();
        let entry = files
            .get(path)
            .ok_or_else(|| SigmundError::NotFound(path.to_string()))?;
        let data = match self
            .injector
            .as_ref()
            .map_or(ReadFault::None, |inj| inj.on_read(cell, entry.home))
        {
            ReadFault::None => entry.data.clone(),
            ReadFault::Error => {
                return Err(SigmundError::Transient(format!(
                    "injected read fault: {path}"
                )));
            }
            ReadFault::Partitioned => {
                return Err(SigmundError::Transient(format!(
                    "partition: cell {} cannot reach {path} (home cell {})",
                    cell.0, entry.home.0
                )));
            }
            ReadFault::Torn => fault::tear(&entry.data),
            ReadFault::Crashed => {
                return Err(SigmundError::Crashed(format!("read {path}")));
            }
        };
        if entry.home != cell {
            self.stats.write().cross_cell_read_bytes += entry.data.len() as u64;
        }
        if fnv1a64(&data) != entry.crc {
            self.integrity.write().checksum_failures += 1;
            return Err(SigmundError::Corrupt(format!(
                "checksum mismatch reading {path}"
            )));
        }
        Ok(data)
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
        if let Some(old) = files.get(to) {
            entry.prev = Some((old.data.clone(), old.crc));
        }
        files.insert(to.to_string(), entry);
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
            if fnv1a64(&entry.data) == entry.crc {
                continue;
            }
            report.corrupt += 1;
            match entry.prev.take() {
                Some((data, crc)) if fnv1a64(&data) == crc => {
                    entry.data = data;
                    entry.crc = crc;
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
