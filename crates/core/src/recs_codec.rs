//! The `SGRC` binary codec for materialized recommendation tables.
//!
//! One compact, magic-tagged framing shared by every layer that moves rec
//! tables through the DFS: the pipeline's part-blob inference writes and
//! publish consolidation (DESIGN.md §12), and the serving cold tier that
//! spills rare retailers' tables to flash and reads them back on demand
//! (DESIGN.md §13). Keeping the codec here — below both crates — means the
//! bytes the pipeline publishes are exactly the bytes serving re-reads, with
//! no duplicated parser to drift.
//!
//! The codec needs no serde backend and is paired with checksummed
//! `Dfs::write`/`read` framing, so a flipped bit surfaces as
//! [`SigmundError::Corrupt`] at the storage layer before these bytes are
//! ever parsed.

use crate::inference::ItemRecs;
use bytes::Bytes;
use sigmund_types::wire::{Reader, Writer};
use sigmund_types::{ItemId, SigmundError};

/// Magic bytes tagging a binary recommendation-table blob (vs legacy JSON).
pub const RECS_MAGIC: &[u8; 4] = b"SGRC";

/// Encodes a recommendation table (one `ItemRecs` per item, in id order):
/// magic, item count, then per item two length-prefixed `(item u32,
/// score f32)` lists (view-based, purchase-based).
pub fn encode_recs(recs: &[ItemRecs]) -> Bytes {
    let entries: usize = recs
        .iter()
        .map(|r| r.view_based.len() + r.purchase_based.len())
        .sum();
    let mut w = Writer::with_capacity(RECS_MAGIC, 8 + recs.len() * 8 + entries * 8);
    w.list(recs.iter(), |w, r| {
        for list in [&r.view_based, &r.purchase_based] {
            w.list(list.iter(), |w, &(item, score)| {
                w.u32(item.0);
                w.f32(score);
            });
        }
    });
    Bytes::from(w.finish())
}

/// Decodes a binary recommendation table (see [`encode_recs`]).
///
/// # Errors
/// [`SigmundError::Corrupt`] on malformed bytes.
pub fn decode_recs(b: &[u8]) -> Result<Vec<ItemRecs>, SigmundError> {
    let mut r = Reader::open("recs blob", RECS_MAGIC, b)?;
    let list = |r: &mut Reader| {
        r.list(8, "truncated list", |r| {
            Ok((ItemId(r.u32("truncated list")?), r.f32("truncated list")?))
        })
    };
    // An item is at least its two list lengths; a list entry is 8 bytes.
    let out = r.list(8, "truncated item count", |r| {
        Ok(ItemRecs {
            view_based: list(r)?,
            purchase_based: list(r)?,
        })
    })?;
    r.finish()?;
    Ok(out)
}

/// Deterministic logical size of a recommendation table: a fixed per-item
/// overhead plus 8 bytes per `(item, score)` entry. This is what the
/// pipeline charges to its [`sigmund_obs::ByteLedger`] — a pure function of
/// the table's shape, never of allocator state (DESIGN.md §12).
pub fn recs_logical_bytes(recs: &[ItemRecs]) -> u64 {
    recs.iter()
        .map(|r| 48 + 8 * (r.view_based.len() + r.purchase_based.len()) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<ItemRecs> {
        vec![
            ItemRecs {
                view_based: vec![(ItemId(1), 0.9), (ItemId(2), 0.5)],
                purchase_based: vec![(ItemId(3), 0.7)],
            },
            ItemRecs {
                view_based: Vec::new(),
                purchase_based: vec![(ItemId(0), 0.1)],
            },
        ]
    }

    #[test]
    fn recs_round_trip() {
        let t = table();
        let bytes = encode_recs(&t);
        assert_eq!(&bytes[..4], RECS_MAGIC);
        let back = decode_recs(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn truncated_and_trailing_bytes_are_corrupt() {
        let bytes = encode_recs(&table());
        assert!(decode_recs(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_recs(&bytes[..6]).is_err());
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(decode_recs(&extended).is_err());
        assert!(decode_recs(b"XXXX").is_err());
    }

    #[test]
    fn logical_bytes_are_a_pure_shape_function() {
        let t = table();
        assert_eq!(recs_logical_bytes(&t), 48 + 8 * 3 + 48 + 8);
        assert_eq!(recs_logical_bytes(&[]), 0);
    }
}
