//! Checkpoint management on top of the DFS (Section IV-B3).
//!
//! "During training, we asynchronously checkpoint the model learned to a
//! shared filesystem … we only need to keep the latest checkpoint around, so
//! as soon as a new checkpoint is written, we garbage-collect the previous
//! checkpoint."
//!
//! A checkpoint is published with write-temp + atomic-rename, and carries a
//! monotonically increasing sequence number so a resumed task can tell how
//! much progress the checkpoint represents.

use crate::Dfs;
use bytes::{Buf, Bytes};
use sigmund_types::wire::{Reader, Writer};
use sigmund_types::{CellId, SigmundError};

/// Writes and reads the single live checkpoint under a task's directory.
pub struct CheckpointStore<'a> {
    dfs: &'a Dfs,
    dir: String,
    cell: CellId,
}

/// A restored checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Monotonic sequence number (how many checkpoints preceded this one).
    pub seq: u64,
    /// Opaque progress marker chosen by the writer (e.g. epochs completed).
    pub progress: u64,
    /// The payload (e.g. a serialized `ModelSnapshot`).
    pub data: Bytes,
}

impl<'a> CheckpointStore<'a> {
    /// A store rooted at `dir` (e.g. `/ckpt/r12/c3`), writing from `cell`.
    pub fn new(dfs: &'a Dfs, cell: CellId, dir: impl Into<String>) -> Self {
        Self {
            dfs,
            dir: dir.into(),
            cell,
        }
    }

    fn live_path(&self) -> String {
        format!("{}/LIVE", self.dir)
    }

    fn tmp_path(&self) -> String {
        format!("{}/TMP", self.dir)
    }

    /// Publishes a new checkpoint: writes to a temp path, atomically renames
    /// over the live one (garbage-collecting it), and returns the new
    /// sequence number.
    pub fn publish(&self, progress: u64, payload: &[u8]) -> Result<u64, SigmundError> {
        let seq = match self.latest()? {
            Some(c) => c.seq + 1,
            None => 0,
        };
        let mut w = Writer::with_capacity(b"", 16 + payload.len());
        w.u64(seq);
        w.u64(progress);
        w.raw(payload);
        let tmp = self.tmp_path();
        // A faulted temp write aborts the publish; the previous LIVE
        // checkpoint is untouched, so readers never observe the torn state.
        self.dfs.write(self.cell, &tmp, Bytes::from(w.finish()))?;
        // Atomic publish: replaces (== garbage-collects) the old checkpoint.
        self.dfs.rename(&tmp, &self.live_path())?;
        Ok(seq)
    }

    /// Loads the live checkpoint, if any.
    ///
    /// # Errors
    /// [`SigmundError::Corrupt`] if the stored bytes are malformed.
    pub fn latest(&self) -> Result<Option<Checkpoint>, SigmundError> {
        let path = self.live_path();
        if !self.dfs.exists(&path) {
            return Ok(None);
        }
        let mut bytes = self.dfs.read(self.cell, &path)?;
        let mut r = Reader::open("checkpoint", b"", &bytes)?;
        let seq = r.u64("too short")?;
        let progress = r.u64("too short")?;
        // The payload runs to the end of the blob: keep the shared buffer,
        // past the header just read.
        let header = bytes.len() - r.remaining();
        bytes.advance(header);
        Ok(Some(Checkpoint {
            seq,
            progress,
            data: bytes,
        }))
    }

    /// Removes the live checkpoint (end-of-training cleanup).
    pub fn clear(&self) {
        // xtask: allow(error-swallow) — end-of-training cleanup: the live blob may never have been written, and a leftover checkpoint is harmless
        let _ = self.dfs.delete(&self.live_path());
        // xtask: allow(error-swallow) — same: the tmp blob only exists if a publish was interrupted mid-swap
        let _ = self.dfs.delete(&self.tmp_path());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CellId = CellId(0);

    #[test]
    fn publish_and_restore() {
        let dfs = Dfs::new();
        let store = CheckpointStore::new(&dfs, C0, "/ckpt/r0/c0");
        assert_eq!(store.latest().unwrap(), None);
        let seq = store.publish(3, b"model-bytes").unwrap();
        assert_eq!(seq, 0);
        let c = store.latest().unwrap().unwrap();
        assert_eq!(c.seq, 0);
        assert_eq!(c.progress, 3);
        assert_eq!(&c.data[..], b"model-bytes");
    }

    #[test]
    fn sequence_increments_and_old_is_gone() {
        let dfs = Dfs::new();
        let store = CheckpointStore::new(&dfs, C0, "/ckpt/x");
        store.publish(1, b"v1").unwrap();
        let seq = store.publish(2, b"v2").unwrap();
        assert_eq!(seq, 1);
        let c = store.latest().unwrap().unwrap();
        assert_eq!(&c.data[..], b"v2");
        // Only the live file remains under the directory.
        assert_eq!(dfs.list("/ckpt/x/").len(), 1);
    }

    #[test]
    fn clear_removes_checkpoint() {
        let dfs = Dfs::new();
        let store = CheckpointStore::new(&dfs, C0, "/ckpt/y");
        store.publish(1, b"v").unwrap();
        store.clear();
        assert_eq!(store.latest().unwrap(), None);
        store.clear(); // idempotent
    }

    #[test]
    fn corrupt_checkpoint_is_reported() {
        let dfs = Dfs::new();
        dfs.write(C0, "/ckpt/z/LIVE", Bytes::from_static(b"short"))
            .unwrap();
        let store = CheckpointStore::new(&dfs, C0, "/ckpt/z");
        assert!(matches!(store.latest(), Err(SigmundError::Corrupt(_))));
    }

    #[test]
    fn resumed_task_in_other_cell_reads_checkpoint() {
        let dfs = Dfs::new();
        let writer = CheckpointStore::new(&dfs, CellId(0), "/ckpt/w");
        writer.publish(7, b"state").unwrap();
        let reader = CheckpointStore::new(&dfs, CellId(1), "/ckpt/w");
        let c = reader.latest().unwrap().unwrap();
        assert_eq!(c.progress, 7);
        // Cross-cell read was charged.
        assert!(dfs.stats().cross_cell_read_bytes > 0);
    }
}
