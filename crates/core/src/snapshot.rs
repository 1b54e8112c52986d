//! Model checkpoint serialization.
//!
//! During training on pre-emptible VMs Sigmund "asynchronously checkpoint[s]
//! the model learned to a shared filesystem" (Section IV-B3). A checkpoint
//! must restore both the embeddings *and* the Adagrad accumulators so a
//! resumed run continues with the right per-row learning rates (incremental
//! runs, by contrast, deliberately reset the accumulators).
//!
//! The format is a sealed `sigmund_types::wire` frame:
//!
//! ```text
//! magic "SGMD" | version u32 | retailer u32 | hp (length-prefixed)
//! | table count u32 | 6 tables: rows u32, dim u32, data f32*, acc f32*
//! | checksum u64 (FNV-1a 64 over every preceding byte)
//! ```
//!
//! The trailing checksum is verified *before* any field is parsed, so a
//! snapshot mutated anywhere — header, hyper-params, or a single f32 bit
//! that would otherwise parse fine — is rejected as
//! [`SigmundError::Corrupt`] instead of restoring a silently-wrong model.
//! The hyper-parameters are the fixed-width [`HyperParams::to_wire`] record:
//! encoding is infallible (no panic surface) and needs no serde backend at
//! runtime. Version 3 is the only one any code in the tree writes; every
//! other version is `Corrupt`.
//! Structural validity beyond parsing is a separate concern:
//! [`ModelSnapshot::validate`] checks finiteness, row norms, and shape
//! consistency, and is what the pipeline's admission gate runs before a
//! model may publish.

use crate::model::BprModel;
use crate::storage::Table;
use bytes::Bytes;
use sigmund_types::wire::{Reader, Writer};
use sigmund_types::{Catalog, HyperParams, RetailerId, SigmundError};

const MAGIC: &[u8; 4] = b"SGMD";
const VERSION: u32 = 3;

/// Upper bound on any embedding row's L2 norm accepted by
/// [`ModelSnapshot::validate`]. Healthy BPR embeddings sit orders of
/// magnitude below this (small init, damped feature updates, L2
/// regularization); a row at the bound means training diverged or the bytes
/// were tampered with.
pub const MAX_ROW_NORM: f64 = 1e4;

/// A serializable snapshot of one model's full training state.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// Owning retailer.
    pub retailer: RetailerId,
    /// Hyper-parameters the model was built with.
    pub hp: HyperParams,
    /// `(rows, dim, data, adagrad_acc)` for the six tables in canonical
    /// order: item, context, category, category-context, brand, price.
    pub tables: Vec<TableSnapshot>,
}

/// One table's raw contents.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Row count.
    pub rows: u32,
    /// Embedding dimension.
    pub dim: u32,
    /// Row-major embedding values (`rows × dim`).
    pub data: Vec<f32>,
    /// Per-row Adagrad accumulators (`rows`).
    pub acc: Vec<f32>,
}

impl ModelSnapshot {
    /// Captures a snapshot of `model`.
    pub fn capture(model: &BprModel) -> Self {
        let tables = model
            .tables()
            .iter()
            // Saturating, not `as`: real tables are orders of magnitude
            // below `u32::MAX` rows, and `validate`'s shape cross-check
            // rejects the (unreachable) clamped case.
            .map(|t| TableSnapshot {
                rows: u32::try_from(t.rows()).unwrap_or(u32::MAX),
                dim: u32::try_from(t.dim()).unwrap_or(u32::MAX),
                data: t.to_vec(),
                acc: t.acc_to_vec(),
            })
            .collect();
        Self {
            retailer: model.retailer,
            hp: model.hp.clone(),
            tables,
        }
    }

    /// Rebuilds a model from the snapshot for `catalog`.
    ///
    /// If the catalog grew since the snapshot (incremental training with new
    /// items), fresh rows are initialized from `grow_seed`; existing rows are
    /// restored exactly.
    ///
    /// # Errors
    /// Returns [`SigmundError::Invalid`] if the snapshot's dimensionality
    /// disagrees with its own hyper-parameters or the catalog *shrank*.
    pub fn restore(&self, catalog: &Catalog, grow_seed: u64) -> Result<BprModel, SigmundError> {
        if self.tables.len() != 6 {
            return Err(SigmundError::Invalid(format!(
                "snapshot has {} tables, expected 6",
                self.tables.len()
            )));
        }
        let f = self.hp.factors;
        if self.tables.iter().any(|t| t.dim != f) {
            return Err(SigmundError::Invalid(
                "snapshot table dim disagrees with hyper-parameters".into(),
            ));
        }
        if (self.tables[0].rows as usize) > catalog.len()
            || (self.tables[2].rows as usize) > catalog.taxonomy.len()
        {
            return Err(SigmundError::Invalid(
                "catalog shrank below snapshot size".into(),
            ));
        }
        let mut model = BprModel::init(catalog, self.hp.clone());
        model.grow_for(catalog, grow_seed);
        for (table, snap) in model.tables().iter().zip(self.tables.iter()) {
            restore_table(table, snap);
        }
        Ok(model)
    }

    /// Structural validation beyond what parsing can see: the admission
    /// gate's first line of defence against a model that *parses* but would
    /// serve garbage.
    ///
    /// Checks, in order: exactly six tables; every table's `dim` equal to
    /// `hp.factors`; `data`/`acc` lengths consistent with the declared
    /// shape; every parameter finite with row L2 norms under
    /// [`MAX_ROW_NORM`]; every Adagrad accumulator finite and non-negative.
    ///
    /// # Errors
    /// Returns [`SigmundError::Invalid`] naming the first failed check.
    pub fn validate(&self) -> Result<(), SigmundError> {
        let invalid = |m: String| SigmundError::Invalid(format!("model snapshot validation: {m}"));
        if self.tables.len() != 6 {
            return Err(invalid(format!("{} tables, expected 6", self.tables.len())));
        }
        for (i, t) in self.tables.iter().enumerate() {
            if t.dim != self.hp.factors {
                return Err(invalid(format!(
                    "table {i} dim {} disagrees with hp.factors {}",
                    t.dim, self.hp.factors
                )));
            }
            let rows = t.rows as usize;
            let dim = t.dim as usize;
            let n_data = rows
                .checked_mul(dim)
                .ok_or_else(|| invalid(format!("table {i} shape overflows")))?;
            if t.data.len() != n_data || t.acc.len() != rows {
                return Err(invalid(format!(
                    "table {i} payload lengths disagree with declared {}x{} shape",
                    t.rows, t.dim
                )));
            }
            for r in 0..rows {
                let norm2: f64 = t.data[r * dim..(r + 1) * dim]
                    .iter()
                    .map(|&v| f64::from(v) * f64::from(v))
                    .sum();
                // A NaN/Inf anywhere in the row poisons the sum, so these
                // two comparisons reject non-finite values and blown-up rows
                // alike.
                if norm2.is_nan() || norm2 > MAX_ROW_NORM * MAX_ROW_NORM {
                    return Err(invalid(format!(
                        "table {i} row {r} norm {} exceeds {MAX_ROW_NORM} or is non-finite",
                        norm2.sqrt()
                    )));
                }
            }
            if let Some(r) = t.acc.iter().position(|a| !a.is_finite() || *a < 0.0) {
                return Err(invalid(format!(
                    "table {i} row {r} adagrad accumulator {} is invalid",
                    t.acc[r]
                )));
            }
        }
        Ok(())
    }

    /// [`ModelSnapshot::validate`] plus catalog consistency: the snapshot's
    /// item and category tables must not claim more rows than the catalog it
    /// is about to serve (the reverse of `restore`'s shrink check).
    ///
    /// # Errors
    /// Returns [`SigmundError::Invalid`] on any failed check.
    pub fn validate_for(&self, catalog: &Catalog) -> Result<(), SigmundError> {
        self.validate()?;
        if (self.tables[0].rows as usize) > catalog.len()
            || (self.tables[2].rows as usize) > catalog.taxonomy.len()
        {
            return Err(SigmundError::Invalid(
                "model snapshot validation: table shape disagrees with catalog".into(),
            ));
        }
        Ok(())
    }

    /// Serializes to bytes.
    pub fn to_bytes(&self) -> Bytes {
        let payload: usize = self
            .tables
            .iter()
            .map(|t| 8 + t.data.len() * 4 + t.acc.len() * 4)
            .sum();
        let mut w = Writer::with_capacity(MAGIC, 28 + HyperParams::WIRE_LEN + payload);
        w.u32(VERSION);
        w.u32(self.retailer.0);
        w.bytes(&self.hp.to_wire());
        w.list(self.tables.iter(), |w, t| {
            w.u32(t.rows);
            w.u32(t.dim);
            w.f32s(&t.data);
            w.f32s(&t.acc);
        });
        Bytes::from(w.seal())
    }

    /// Deserializes from bytes. The trailing payload checksum is verified
    /// before anything else is parsed.
    ///
    /// # Errors
    /// Returns [`SigmundError::Corrupt`] on any malformed input, including a
    /// checksum mismatch or an unknown format version.
    pub fn from_bytes(raw: &[u8]) -> Result<Self, SigmundError> {
        let mut r = Reader::open_sealed("model snapshot", MAGIC, raw)?;
        let version = r.u32("truncated header")?;
        if version != VERSION {
            return Err(r.corrupt(format_args!("unsupported version {version}")));
        }
        let retailer = RetailerId(r.u32("truncated header")?);
        let hp = HyperParams::from_wire(r.bytes("truncated hyper-parameters")?)?;
        let n_tables = r.len(8, "truncated table count")?;
        if n_tables > 16 {
            return Err(r.corrupt("implausible table count"));
        }
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let rows = r.u32("truncated table header")?;
            let dim = r.u32("truncated table header")?;
            // Checked arithmetic: an adversarial header must not wrap into a
            // small element count that the reader's bounds check happily
            // accepts (or a capacity that aborts the process).
            let n_data = (rows as usize)
                .checked_mul(dim as usize)
                .ok_or_else(|| r.corrupt("table shape overflows"))?;
            tables.push(TableSnapshot {
                rows,
                dim,
                data: r.f32s(n_data, "truncated table payload")?,
                acc: r.f32s(rows as usize, "truncated table payload")?,
            });
        }
        r.finish()?;
        Ok(Self {
            retailer,
            hp,
            tables,
        })
    }
}

/// Restores one table's leading rows from a snapshot (the live table may have
/// extra, freshly initialized rows).
fn restore_table(table: &Table, snap: &TableSnapshot) {
    let dim = table.dim();
    debug_assert_eq!(dim, snap.dim as usize);
    // Brand/price tables can legitimately shrink between runs (feature spaces
    // are derived from the catalog); restore only the overlapping rows.
    let rows = (snap.rows as usize).min(table.rows());
    for r in 0..rows {
        for (cell, &v) in table.row(r).iter().zip(&snap.data[r * dim..(r + 1) * dim]) {
            cell.store(v);
        }
    }
    let mut merged = table.acc_to_vec();
    merged[..rows].copy_from_slice(&snap.acc[..rows]);
    table.load_acc_from(&merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmund_types::{ItemMeta, Taxonomy};

    fn catalog(n: usize) -> Catalog {
        let mut t = Taxonomy::new();
        let a = t.add_child(t.root());
        let mut c = Catalog::new(RetailerId(3), t);
        for _ in 0..n {
            c.add_item(ItemMeta::bare(a));
        }
        c
    }

    fn model(c: &Catalog) -> BprModel {
        BprModel::init(
            c,
            HyperParams {
                factors: 4,
                init_seed: 7,
                ..Default::default()
            },
        )
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let c = catalog(12);
        let m = model(&c);
        let snap = ModelSnapshot::capture(&m);
        let bytes = snap.to_bytes();
        let back = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn restore_reproduces_model_exactly() {
        let c = catalog(12);
        let m = model(&c);
        // Perturb so restore isn't trivially equal to init.
        m.tables()[0].adagrad_step(3, &[1.0, -1.0, 0.5, 0.0], 0.1, 0.01);
        let snap = ModelSnapshot::capture(&m);
        let m2 = snap.restore(&c, 0).unwrap();
        for (a, b) in m.tables().iter().zip(m2.tables().iter()) {
            assert_eq!(a.to_vec(), b.to_vec());
            assert_eq!(a.acc_to_vec(), b.acc_to_vec());
        }
    }

    #[test]
    fn restore_grows_for_bigger_catalog() {
        let c = catalog(10);
        let m = model(&c);
        let snap = ModelSnapshot::capture(&m);
        let c2 = catalog(15);
        let m2 = snap.restore(&c2, 42).unwrap();
        assert_eq!(m2.n_items(), 15);
        // Existing rows identical.
        assert_eq!(
            m.tables()[0].to_vec(),
            m2.tables()[0].to_vec()[..10 * 4].to_vec()
        );
    }

    #[test]
    fn restore_rejects_shrunk_catalog() {
        let c = catalog(10);
        let snap = ModelSnapshot::capture(&model(&c));
        let small = catalog(5);
        assert!(matches!(
            snap.restore(&small, 0),
            Err(SigmundError::Invalid(_))
        ));
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let c = catalog(4);
        let snap = ModelSnapshot::capture(&model(&c));
        let bytes = snap.to_bytes();
        // Truncated.
        assert!(ModelSnapshot::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(ModelSnapshot::from_bytes(&bad).is_err());
        // Trailing garbage.
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(ModelSnapshot::from_bytes(&long).is_err());
        // Empty.
        assert!(ModelSnapshot::from_bytes(&[]).is_err());
    }

    #[test]
    fn current_version_carries_verified_checksum() {
        let snap = ModelSnapshot::capture(&model(&catalog(5)));
        let bytes = snap.to_bytes();
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        assert_eq!(
            u64::from_le_bytes(tail.try_into().unwrap()),
            sigmund_types::fnv1a64(payload),
            "trailing u64 is the FNV-1a 64 of everything before it"
        );
        assert_eq!(&bytes[4..8], &VERSION.to_le_bytes());
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let snap = ModelSnapshot::capture(&model(&catalog(3)));
        let mut bytes = snap.to_bytes().to_vec();
        bytes[4] = 99;
        // Not re-sealed, the edit is refused by the trailer, whatever it says.
        assert!(matches!(
            ModelSnapshot::from_bytes(&bytes),
            Err(SigmundError::Corrupt(_))
        ));
        // A validly sealed frame of another version (the retired v1/v2
        // layouts included) is refused by the version check itself.
        for version in [99, 2, 1, 0] {
            let mut w = Writer::new(MAGIC);
            w.u32(version);
            w.raw(&bytes[8..bytes.len() - 8]);
            let err = ModelSnapshot::from_bytes(&w.seal()).unwrap_err();
            assert!(
                matches!(&err, SigmundError::Corrupt(m) if m.contains("unsupported version")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_mutation_is_rejected() {
        // FNV-1a's per-byte absorption is a bijection on the hash state, so
        // *every* single-byte substitution must be caught — exhaustively
        // checked here on a small snapshot, and property-checked again in
        // tests/properties.rs.
        let snap = ModelSnapshot::capture(&model(&catalog(2)));
        let bytes = snap.to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.to_vec();
                m[i] ^= 1 << bit;
                assert!(
                    ModelSnapshot::from_bytes(&m).is_err(),
                    "mutation at byte {i} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn adversarial_table_headers_are_rejected_not_wrapped() {
        // A handcrafted snapshot whose table header multiplies out past
        // usize: the checksum is attacker-consistent (computed over the
        // malicious bytes), so the parser's checked arithmetic is the only
        // line of defence against a wrapped "needed bytes" figure.
        let hp_wire = HyperParams::default().to_wire();
        for (rows, dim) in [
            (u32::MAX, u32::MAX),
            (u32::MAX, 4),
            (1u32 << 31, 1u32 << 31),
            (u32::MAX, 1),
        ] {
            let mut w = Writer::new(MAGIC);
            w.u32(VERSION);
            w.u32(3);
            w.bytes(&hp_wire);
            w.u32(1);
            w.u32(rows);
            w.u32(dim);
            let err = ModelSnapshot::from_bytes(&w.seal()).unwrap_err();
            let msg = format!("{err:?}");
            assert!(
                msg.contains("overflows") || msg.contains("truncated table payload"),
                "rows={rows} dim={dim}: {msg}"
            );
        }
    }

    #[test]
    fn validate_accepts_a_healthy_snapshot() {
        let c = catalog(6);
        let snap = ModelSnapshot::capture(&model(&c));
        snap.validate().unwrap();
        snap.validate_for(&c).unwrap();
    }

    #[test]
    fn validate_rejects_nan_inf_and_oversized_norms() {
        let c = catalog(6);
        let base = ModelSnapshot::capture(&model(&c));
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 2e4] {
            let mut snap = base.clone();
            snap.tables[0].data[5] = poison;
            assert!(
                matches!(snap.validate(), Err(SigmundError::Invalid(_))),
                "poison {poison} passed validation"
            );
        }
        // Accumulators: non-finite or negative is invalid.
        for poison in [f32::NAN, -1.0] {
            let mut snap = base.clone();
            snap.tables[1].acc[2] = poison;
            assert!(snap.validate().is_err(), "acc poison {poison} passed");
        }
    }

    #[test]
    fn validate_rejects_inconsistent_shapes() {
        let c = catalog(6);
        let base = ModelSnapshot::capture(&model(&c));
        // Payload length disagrees with the declared shape.
        let mut snap = base.clone();
        snap.tables[0].data.pop();
        assert!(snap.validate().is_err());
        // dim disagrees with hyper-parameters.
        let mut snap = base.clone();
        snap.tables[3].dim = 8;
        assert!(snap.validate().is_err());
        // Wrong table count.
        let mut snap = base.clone();
        snap.tables.pop();
        assert!(snap.validate().is_err());
        // More item rows than the catalog has items.
        let small = catalog(3);
        assert!(base.validate_for(&small).is_err());
        assert!(
            base.validate().is_ok(),
            "catalog check is validate_for only"
        );
    }

    #[test]
    fn round_trip_preserves_adagrad_state() {
        let c = catalog(6);
        let m = model(&c);
        m.tables()[1].adagrad_step(2, &[2.0, 0.0, 0.0, 0.0], 0.1, 0.0);
        let acc_before = m.tables()[1].adagrad_acc(2);
        assert!(acc_before > 0.0);
        let snap = ModelSnapshot::capture(&m);
        let m2 = snap.restore(&c, 0).unwrap();
        assert_eq!(m2.tables()[1].adagrad_acc(2), acc_before);
    }
}
