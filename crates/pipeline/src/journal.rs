//! Durable day journal for crash–restart recovery (DESIGN.md §14).
//!
//! The journal is the service's *persistent* memory of where a day stands:
//! a checksummed manifest blob at `/journal/day-<d>` rewritten (tmp +
//! rename) at every phase boundary of [`crate::SigmundService::run_day`],
//! plus per-retailer publish-completion markers under `/journal/pub-<d>/`
//! so a crash mid-stitch resumes at the next retailer instead of rewriting
//! the fleet. Sealing a day overwrites the manifest with the post-day
//! snapshot ([`Phase::Sealed`]) and an opaque driver payload (monitor and
//! serving metadata), so at any instant the DFS holds at most one sealed
//! manifest and at most one in-progress manifest.
//!
//! Recovery ([`crate::SigmundService::recover`]) reads manifests back with
//! [`sigmund_dfs::Dfs::peek`] — an offline scan that bypasses any fault
//! injector — and trusts nothing: every manifest is a sealed
//! [`sigmund_types::wire`] frame (trailing `fnv1a64` over its payload), so
//! a torn tmp blob or a bit flip is rejected (and garbage-collected) rather
//! than replayed. The encoding is a fixed little-endian binary layout with
//! no serde backend — the journal must stay writable and readable in
//! exactly the environments where crash recovery matters.
//!
//! Like every other robustness layer in this workspace, the journal is
//! byte-invisible when off: [`crate::PipelineConfig::journal`] defaults to
//! `false`, and an enabled journal only *adds* DFS blobs under `/journal/`
//! — it emits no obs events and perturbs no seeded decision, so traces and
//! published artifacts are unchanged (asserted in `tests/chaos.rs`).

use crate::data::retry_op;
use bytes::Bytes;
use sigmund_dfs::Dfs;
use sigmund_types::wire::{Reader, Writer};
use sigmund_types::{
    CellId, ConfigRecord, HyperParams, ModelId, ModelMetrics, RetailerId, SigmundError,
};

/// Magic bytes opening every journal manifest blob.
pub const JOURNAL_MAGIC: &[u8; 4] = b"SGJL";
/// Current manifest format version.
pub const JOURNAL_VERSION: u8 = 1;
/// DFS prefix holding day manifests (one blob per day, plus a transient
/// `/TMP` sibling while a rewrite is in flight).
pub const MANIFEST_PREFIX: &str = "/journal/day-";
/// DFS prefix holding per-retailer publish-completion markers.
pub const MARKER_PREFIX: &str = "/journal/pub-";

/// How far through its day a journaled run got. Ordered: a later phase
/// means strictly more of the day's work is durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Day-start snapshot written; no phase work durable yet.
    Planned,
    /// The sweep plan was computed.
    SweepPlanned,
    /// Training MapReduces finished.
    Trained,
    /// Model selection and the admission gate finished.
    Selected,
    /// Inference MapReduces finished.
    Inferred,
    /// Batch publish finished (all recommendation tables durable).
    Published,
    /// The day completed and the driver sealed it; the manifest carries the
    /// *post*-day state plus the driver's opaque ops payload.
    Sealed,
}

impl Phase {
    /// Wire tag.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            Phase::Planned => 0,
            Phase::SweepPlanned => 1,
            Phase::Trained => 2,
            Phase::Selected => 3,
            Phase::Inferred => 4,
            Phase::Published => 5,
            Phase::Sealed => 6,
        }
    }

    /// Parses a wire tag.
    ///
    /// # Errors
    /// [`SigmundError::Corrupt`] on an unknown tag.
    pub fn from_tag(t: u8) -> Result<Self, SigmundError> {
        Ok(match t {
            0 => Phase::Planned,
            1 => Phase::SweepPlanned,
            2 => Phase::Trained,
            3 => Phase::Selected,
            4 => Phase::Inferred,
            5 => Phase::Published,
            6 => Phase::Sealed,
            x => return Err(SigmundError::Corrupt(format!("journal: phase tag {x}"))),
        })
    }

    /// Human-readable name (used in recovery logs and the watch dashboard).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Planned => "planned",
            Phase::SweepPlanned => "sweep-planned",
            Phase::Trained => "trained",
            Phase::Selected => "selected",
            Phase::Inferred => "inferred",
            Phase::Published => "published",
            Phase::Sealed => "sealed",
        }
    }
}

/// One journal manifest: everything [`crate::SigmundService::recover`]
/// needs to rebuild the service's in-memory arenas for (or after) a day.
///
/// A manifest at [`Phase::Sealed`] holds the *post*-day snapshot (the state
/// a fresh day would start from) plus the driver's `ops` payload; every
/// earlier phase holds the *day-start* snapshot, because the interrupted
/// day is re-executed from its inputs — deterministic overwrites make the
/// re-run idempotent.
#[derive(Debug, Clone, PartialEq)]
pub struct DayManifest {
    /// The day this manifest describes.
    pub day: u32,
    /// How far the day got.
    pub phase: Phase,
    /// The service's virtual clock at the snapshot point.
    pub virtual_now: f64,
    /// `(retailer, catalog size)` in onboarding order.
    pub retailers: Vec<(RetailerId, u64)>,
    /// Retailers awaiting their first full-grid sweep.
    pub new_since_last_run: Vec<RetailerId>,
    /// Last admission-accepted MAP@10 per dense retailer id (NaN = none).
    pub last_accepted_map: Vec<f64>,
    /// The previous run's annotated config records.
    pub last_outputs: Vec<ConfigRecord>,
    /// Opaque driver payload (monitor + serving metadata); empty except on
    /// sealed manifests. The pipeline never parses it — see [`pack_ops`].
    pub ops: Vec<u8>,
}

/// DFS path of day `day`'s manifest.
#[must_use]
pub fn manifest_path(day: u32) -> String {
    format!("{MANIFEST_PREFIX}{day:08}")
}

/// Transient sibling a manifest rewrite lands on before its rename.
#[must_use]
pub fn manifest_tmp_path(day: u32) -> String {
    format!("{MANIFEST_PREFIX}{day:08}/TMP")
}

/// DFS path of the marker recording that retailer `r`'s day-`day` table
/// was published durably.
#[must_use]
pub fn publish_marker_path(day: u32, r: RetailerId) -> String {
    format!("{MARKER_PREFIX}{day:08}/r{}", r.0)
}

fn encode_record(w: &mut Writer, r: &ConfigRecord) {
    w.u32(r.model.retailer.0);
    w.u32(r.model.config);
    w.raw(&r.params.to_wire());
    w.str(&r.train_path);
    w.str(&r.holdout_path);
    w.str(&r.model_path);
    w.bool(r.warm_start_path.is_some());
    if let Some(p) = &r.warm_start_path {
        w.str(p);
    }
    w.bool(r.epochs_override.is_some());
    if let Some(e) = r.epochs_override {
        w.u32(e);
    }
    w.bool(r.metrics.is_some());
    if let Some(m) = &r.metrics {
        for v in [
            m.map_at_10,
            m.auc,
            m.precision_at_10,
            m.recall_at_10,
            m.ndcg_at_10,
        ] {
            w.f64(v);
        }
        w.u64(m.holdout_size);
        w.bool(m.map_sampled);
    }
}

fn decode_record(r: &mut Reader) -> Result<ConfigRecord, SigmundError> {
    // Struct fields are evaluated in source order, which is the wire order.
    Ok(ConfigRecord {
        model: ModelId {
            retailer: RetailerId(r.u32("record retailer")?),
            config: r.u32("record config")?,
        },
        params: HyperParams::from_wire(r.raw(HyperParams::WIRE_LEN, "record params")?)?,
        train_path: r.str("record train path")?,
        holdout_path: r.str("record holdout path")?,
        model_path: r.str("record model path")?,
        warm_start_path: r
            .bool("record warm flag")?
            .then(|| r.str("record warm path"))
            .transpose()?,
        epochs_override: r
            .bool("record epochs flag")?
            .then(|| r.u32("record epochs"))
            .transpose()?,
        metrics: if r.bool("record metrics flag")? {
            Some(ModelMetrics {
                map_at_10: r.f64("metrics map")?,
                auc: r.f64("metrics auc")?,
                precision_at_10: r.f64("metrics precision")?,
                recall_at_10: r.f64("metrics recall")?,
                ndcg_at_10: r.f64("metrics ndcg")?,
                holdout_size: r.u64("metrics holdout size")?,
                map_sampled: r.bool("metrics sampled flag")?,
            })
        } else {
            None
        },
    })
}

impl DayManifest {
    /// Serializes to the checksummed wire format.
    ///
    /// # Errors
    /// [`SigmundError::Invalid`] if any collection or string exceeds `u32`
    /// length (unreachable for real fleets).
    pub fn to_bytes(&self) -> Result<Bytes, SigmundError> {
        let mut w = Writer::new(JOURNAL_MAGIC);
        w.u8(JOURNAL_VERSION);
        w.u8(self.phase.tag());
        w.u32(self.day);
        w.f64(self.virtual_now);
        w.list(self.retailers.iter(), |w, (r, n)| {
            w.u32(r.0);
            w.u64(*n);
        });
        w.list(self.new_since_last_run.iter(), |w, r| w.u32(r.0));
        w.list(self.last_accepted_map.iter(), |w, v| w.f64(*v));
        w.list(self.last_outputs.iter(), encode_record);
        w.bytes(&self.ops);
        if let Some(n) = w.overflow() {
            return Err(SigmundError::Invalid(format!(
                "journal: length {n} overflows u32"
            )));
        }
        Ok(Bytes::from(w.seal()))
    }

    /// Parses and verifies a manifest blob. Any truncation, trailing
    /// garbage, unknown tag, or checksum mismatch is a clean
    /// [`SigmundError::Corrupt`] — never a panic — so recovery can treat a
    /// torn manifest as absent and fall back to the previous boundary.
    ///
    /// # Errors
    /// [`SigmundError::Corrupt`] as above.
    pub fn from_bytes(b: &[u8]) -> Result<Self, SigmundError> {
        let mut r = Reader::open_sealed("journal", JOURNAL_MAGIC, b)?;
        let version = r.u8("version")?;
        if version != JOURNAL_VERSION {
            return Err(r.corrupt(format_args!("unknown version {version}")));
        }
        let phase = Phase::from_tag(r.u8("phase")?)?;
        let day = r.u32("day")?;
        let virtual_now = r.f64("virtual now")?;
        let m = DayManifest {
            day,
            phase,
            virtual_now,
            retailers: r.list(12, "retailer count", |r| {
                Ok((RetailerId(r.u32("retailer id")?), r.u64("retailer items")?))
            })?,
            new_since_last_run: r.list(4, "new retailer count", |r| {
                r.u32("new retailer id").map(RetailerId)
            })?,
            last_accepted_map: r.list(8, "accepted map count", |r| r.f64("accepted map"))?,
            // A record is at least its two ids and its hyper-parameters.
            last_outputs: r.list(8 + HyperParams::WIRE_LEN, "record count", decode_record)?,
            ops: r.bytes("ops bytes")?.to_vec(),
        };
        r.finish()?;
        Ok(m)
    }
}

/// Writes `m` durably at its canonical path: the blob lands on the `/TMP`
/// sibling first and is renamed into place, so a crash mid-write strands a
/// tmp blob (swept by recovery and [`sigmund_dfs::Dfs::scrub`]) instead of
/// tearing the live manifest. Transient injected faults are retried within
/// a small budget; a crash is propagated immediately (it is sticky — no
/// retry can absorb it).
///
/// # Errors
/// [`SigmundError::Crashed`] if the kill-point fired; the last transient
/// error if the retry budget is exhausted.
pub fn write_manifest(dfs: &Dfs, cell: CellId, m: &DayManifest) -> Result<(), SigmundError> {
    let blob = m.to_bytes()?;
    let tmp = manifest_tmp_path(m.day);
    retry_op(|| dfs.write(cell, &tmp, blob.clone()))?;
    retry_op(|| dfs.rename(&tmp, &manifest_path(m.day)))
}

/// Records that retailer `r`'s day-`day` table is durable. The marker's
/// content is irrelevant — existence is the record — but it still carries
/// the standard magic so a scrub pass has something to verify.
///
/// # Errors
/// As [`write_manifest`].
pub fn write_publish_marker(
    dfs: &Dfs,
    cell: CellId,
    day: u32,
    r: RetailerId,
) -> Result<(), SigmundError> {
    let path = publish_marker_path(day, r);
    let blob = Bytes::from_static(JOURNAL_MAGIC);
    retry_op(|| dfs.write(cell, &path, blob.clone()))
}

/// Packs independent driver payload sections (e.g. monitor state, serving
/// metadata) into one opaque `ops` blob: each section is length-prefixed,
/// so drivers can evolve what they stash without a journal format bump.
#[must_use]
pub fn pack_ops(sections: &[&[u8]]) -> Vec<u8> {
    let mut w = Writer::new(b"");
    for s in sections {
        w.bytes(s);
    }
    w.finish()
}

/// Splits a [`pack_ops`] blob back into its sections.
///
/// # Errors
/// [`SigmundError::Corrupt`] on a truncated section.
pub fn unpack_ops(b: &[u8]) -> Result<Vec<Vec<u8>>, SigmundError> {
    let mut r = Reader::open("journal", b"", b)?;
    let mut out = Vec::new();
    while r.remaining() > 0 {
        out.push(r.bytes("ops section")?.to_vec());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> DayManifest {
        let mut rec = ConfigRecord::cold(RetailerId(2), 1, HyperParams::default());
        rec.warm_start_path = Some("/models/r2/c1".into());
        rec.epochs_override = Some(3);
        rec.metrics = Some(ModelMetrics {
            map_at_10: 0.31,
            auc: 0.8,
            precision_at_10: 0.1,
            recall_at_10: 0.4,
            ndcg_at_10: 0.5,
            holdout_size: 17,
            map_sampled: true,
        });
        DayManifest {
            day: 3,
            phase: Phase::Trained,
            virtual_now: 123.5,
            retailers: vec![(RetailerId(0), 40), (RetailerId(2), 55)],
            new_since_last_run: vec![RetailerId(2)],
            last_accepted_map: vec![0.2, f64::NAN, 0.31],
            last_outputs: vec![
                ConfigRecord::cold(RetailerId(0), 0, HyperParams::default()),
                rec,
            ],
            ops: vec![9, 8, 7],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = manifest();
        let bytes = m.to_bytes().unwrap();
        assert!(bytes.starts_with(JOURNAL_MAGIC));
        let back = DayManifest::from_bytes(&bytes).unwrap();
        assert_eq!(back.day, m.day);
        assert_eq!(back.phase, m.phase);
        assert_eq!(back.virtual_now, m.virtual_now);
        assert_eq!(back.retailers, m.retailers);
        assert_eq!(back.new_since_last_run, m.new_since_last_run);
        assert_eq!(back.last_outputs, m.last_outputs);
        assert_eq!(back.ops, m.ops);
        // NaN slots survive bit-exactly (PartialEq would reject NaN == NaN).
        assert_eq!(
            back.last_accepted_map
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            m.last_accepted_map
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn every_truncation_is_rejected_cleanly() {
        let bytes = manifest().to_bytes().unwrap();
        for len in 0..bytes.len() {
            assert!(
                DayManifest::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes parsed"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = manifest().to_bytes().unwrap().to_vec();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1;
            assert!(
                DayManifest::from_bytes(&bad).is_err(),
                "bit flip at byte {i} parsed"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = manifest().to_bytes().unwrap().to_vec();
        bytes.push(0);
        assert!(DayManifest::from_bytes(&bytes).is_err());
    }

    #[test]
    fn phase_tags_round_trip_and_order_tracks_progress() {
        for p in [
            Phase::Planned,
            Phase::SweepPlanned,
            Phase::Trained,
            Phase::Selected,
            Phase::Inferred,
            Phase::Published,
            Phase::Sealed,
        ] {
            assert_eq!(Phase::from_tag(p.tag()).unwrap(), p);
            assert!(!p.label().is_empty());
        }
        assert!(Phase::Planned < Phase::Published);
        assert!(Phase::Published < Phase::Sealed);
        assert!(Phase::from_tag(7).is_err());
    }

    #[test]
    fn manifest_writer_lands_via_tmp_rename() {
        let dfs = Dfs::new();
        let m = manifest();
        write_manifest(&dfs, CellId(0), &m).unwrap();
        assert!(dfs.exists(&manifest_path(3)));
        assert!(!dfs.exists(&manifest_tmp_path(3)), "tmp blob consumed");
        let back = DayManifest::from_bytes(&dfs.peek(&manifest_path(3)).unwrap()).unwrap();
        assert_eq!(back.day, 3);
        // Rewriting at a later phase overwrites in place.
        let mut m2 = m;
        m2.phase = Phase::Published;
        write_manifest(&dfs, CellId(0), &m2).unwrap();
        let back = DayManifest::from_bytes(&dfs.peek(&manifest_path(3)).unwrap()).unwrap();
        assert_eq!(back.phase, Phase::Published);
    }

    #[test]
    fn publish_markers_are_per_day_and_listable() {
        let dfs = Dfs::new();
        write_publish_marker(&dfs, CellId(0), 2, RetailerId(5)).unwrap();
        write_publish_marker(&dfs, CellId(0), 2, RetailerId(7)).unwrap();
        write_publish_marker(&dfs, CellId(0), 3, RetailerId(5)).unwrap();
        let day2 = dfs.list("/journal/pub-00000002/");
        assert_eq!(day2.len(), 2);
        assert!(day2.contains(&publish_marker_path(2, RetailerId(7))));
    }

    #[test]
    fn ops_sections_round_trip() {
        let packed = pack_ops(&[b"monitor", b"", b"serving meta"]);
        let back = unpack_ops(&packed).unwrap();
        assert_eq!(
            back,
            vec![b"monitor".to_vec(), Vec::new(), b"serving meta".to_vec()]
        );
        assert!(unpack_ops(&packed[..packed.len() - 1]).is_err());
        assert!(unpack_ops(&[]).unwrap().is_empty());
    }

    #[test]
    fn manifest_paths_sort_numerically() {
        // Zero-padded day numbers make lexicographic listing order equal
        // numeric day order — recovery picks "the latest" by sorting paths.
        assert!(manifest_path(2) < manifest_path(10));
        assert!(publish_marker_path(2, RetailerId(0)).starts_with(MARKER_PREFIX));
    }
}
