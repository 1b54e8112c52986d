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
//! The blob indexes itself: after the magic, a version byte and the item
//! count come `n + 1` `u32` byte offsets, so record `i` is bytes
//! `offset[i] .. offset[i + 1]` of the blob (DESIGN.md §16 has the layout
//! table). A reader that wants the whole table calls [`decode_recs`]; a
//! reader that wants one item asks [`locate`] where it is and hands those
//! bytes to [`decode_record`] — or, when the blob sits on the DFS, fetches
//! [`index_entry_span`] and then [`record_span`] with two ranged reads and
//! never sees the rest. There is one layout: anything else, the unversioned
//! layout this one replaced included, is [`SigmundError::Corrupt`].
//!
//! The codec needs no serde backend and is paired with the DFS's
//! chunk-checksummed `write`/`read`/`read_range`, so a flipped bit surfaces
//! as [`SigmundError::Corrupt`] at the storage layer before these bytes are
//! ever parsed — which is why the format carries no checksum of its own.

use crate::inference::{ItemRecs, RecList};
use bytes::Bytes;
use sigmund_types::wire::{Reader, Writer};
use sigmund_types::{ItemId, SigmundError};
use std::ops::Range;

/// Magic bytes tagging a binary recommendation-table blob.
pub const RECS_MAGIC: &[u8; 4] = b"SGRC";
/// The one `SGRC` layout version (1 was the unversioned, unindexed layout).
pub const RECS_VERSION: u8 = 2;

/// Magic, version byte, item count.
const HEADER_BYTES: usize = RECS_MAGIC.len() + 1 + 4;
/// An `(item u32, score f32)` pair.
const PAIR_BYTES: usize = 8;

const CTX: &str = "recs blob";

/// Encoded size of one record: two list lengths plus the pairs.
fn record_bytes(r: &ItemRecs) -> usize {
    8 + PAIR_BYTES * (r.view_based.len() + r.purchase_based.len())
}

/// Encodes a recommendation table (one `ItemRecs` per item, in id order):
/// magic, version, item count `n`, `n + 1` record offsets (from the start of
/// the blob; the last is the blob's length), then per item two
/// length-prefixed `(item u32, score f32)` lists (view-based,
/// purchase-based). A table past 4 GiB saturates its offsets and is
/// refused by every decoder rather than wrapped.
pub fn encode_recs(recs: &[ItemRecs]) -> Bytes {
    let recs = &recs[..recs.len().min(u32::MAX as usize)];
    let index_end = HEADER_BYTES + 4 * (recs.len() + 1);
    let total = index_end + recs.iter().map(record_bytes).sum::<usize>();
    let mut w = Writer::with_capacity(RECS_MAGIC, total);
    w.u8(RECS_VERSION);
    w.len(recs.len());
    let mut at = index_end;
    for r in recs {
        w.u32(u32::try_from(at).unwrap_or(u32::MAX));
        at += record_bytes(r);
    }
    w.u32(u32::try_from(at).unwrap_or(u32::MAX));
    for r in recs {
        for list in [&r.view_based, &r.purchase_based] {
            w.list(list.iter(), |w, &(item, score)| {
                w.u32(item.0);
                w.f32(score);
            });
        }
    }
    Bytes::from(w.finish())
}

/// Checks magic and version; returns a reader positioned at the index and
/// the item count, bounded by the bytes present.
fn open(b: &[u8]) -> Result<(Reader<'_>, usize), SigmundError> {
    let mut r = Reader::open(CTX, RECS_MAGIC, b)?;
    let version = r.u8("truncated version")?;
    if version != RECS_VERSION {
        return Err(r.corrupt(format_args!("unknown version {version}")));
    }
    // An item is at least its offset and its two list lengths.
    let n = r.len(12, "truncated item count")?;
    Ok((r, n))
}

fn offset(r: &mut Reader) -> Result<usize, SigmundError> {
    // Widening: `usize` is at least 32 bits on every supported target.
    Ok(r.u32("truncated index")? as usize)
}

fn pair_list(r: &mut Reader) -> Result<RecList, SigmundError> {
    r.list(PAIR_BYTES, "truncated list", |r| {
        Ok((ItemId(r.u32("truncated list")?), r.f32("truncated list")?))
    })
}

/// Decodes a whole recommendation table (see [`encode_recs`]). The index
/// must describe the records exactly — first offset at the end of the
/// index, every record ending where the next begins, the last at the end of
/// the blob — so no blob reads one way through [`locate`] and another way
/// through here.
///
/// # Errors
/// [`SigmundError::Corrupt`] on malformed bytes.
pub fn decode_recs(b: &[u8]) -> Result<Vec<ItemRecs>, SigmundError> {
    let (mut index, n) = open(b)?;
    let index_end = HEADER_BYTES + 4 * (n + 1);
    let Some(records) = b.get(index_end..) else {
        return Err(index.corrupt("truncated index"));
    };
    let mut r = Reader::open(CTX, b"", records)?;
    if offset(&mut index)? != index_end {
        return Err(index.corrupt("index does not start at the records"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_lists(&mut r)?);
        if offset(&mut index)? != b.len() - r.remaining() {
            return Err(index.corrupt("index disagrees with the records"));
        }
    }
    r.finish()?;
    Ok(out)
}

fn decode_lists(r: &mut Reader) -> Result<ItemRecs, SigmundError> {
    Ok(ItemRecs {
        view_based: pair_list(r)?,
        purchase_based: pair_list(r)?,
    })
}

/// Where the index entry of record `item` sits in an encoded blob, as
/// `(offset, len)` for a ranged read; the bytes there go to
/// [`record_span`]. The caller vouches for `item < n` (the serving store
/// keeps `n` beside its cold marker). `None` only on arithmetic overflow.
pub fn index_entry_span(item: usize) -> Option<(usize, usize)> {
    Some((item.checked_mul(4)?.checked_add(HEADER_BYTES)?, 8))
}

/// Parses the index entry fetched from [`index_entry_span`] — a record's
/// offset and the next one, its end — into the record's `(offset, len)`;
/// the bytes there go to [`decode_record`].
///
/// # Errors
/// [`SigmundError::Corrupt`] unless the entry is two ascending offsets.
pub fn record_span(entry: &[u8]) -> Result<(usize, usize), SigmundError> {
    let mut r = Reader::open(CTX, b"", entry)?;
    let (start, end) = (offset(&mut r)?, offset(&mut r)?);
    let Some(len) = end.checked_sub(start) else {
        return Err(r.corrupt("index runs backwards"));
    };
    r.finish()?;
    Ok((start, len))
}

/// Decodes the one record [`locate`] / [`record_span`] pointed at.
///
/// # Errors
/// [`SigmundError::Corrupt`] unless the bytes are exactly one record.
pub fn decode_record(b: &[u8]) -> Result<ItemRecs, SigmundError> {
    let mut r = Reader::open(CTX, b"", b)?;
    let recs = decode_lists(&mut r)?;
    r.finish()?;
    Ok(recs)
}

/// Finds record `item` in a whole encoded blob without decoding any other:
/// `Ok(None)` if the table has no such item (a clean miss), otherwise the
/// byte range to hand [`decode_record`]. Checks what can be checked in
/// O(1) — header, that the index starts the records and ends at the end of
/// the blob, that the entry lies between the two — so a truncated blob or
/// the old unindexed layout is refused, never misread.
///
/// # Errors
/// [`SigmundError::Corrupt`] on malformed bytes.
pub fn locate(b: &[u8], item: usize) -> Result<Option<Range<usize>>, SigmundError> {
    let (r, n) = open(b)?;
    let index_end = HEADER_BYTES + 4 * (n + 1);
    let offset_at = |i: usize| {
        let at = HEADER_BYTES + 4 * i;
        offset(&mut Reader::open(
            CTX,
            b"",
            b.get(at..).unwrap_or_default(),
        )?)
    };
    if offset_at(0)? != index_end || offset_at(n)? != b.len() {
        return Err(r.corrupt("index does not frame the records"));
    }
    if item >= n {
        return Ok(None);
    }
    let entry = index_entry_span(item)
        .and_then(|(at, len)| b.get(at..at.checked_add(len)?))
        .ok_or_else(|| r.corrupt("truncated index"))?;
    let (start, len) = record_span(entry)?;
    match start.checked_add(len) {
        Some(end) if index_end <= start && end <= b.len() => Ok(Some(start..end)),
        _ => Err(r.corrupt("index entry outside the records")),
    }
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
        assert_eq!(bytes[4], RECS_VERSION);
        let back = decode_recs(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(decode_recs(&encode_recs(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn truncated_and_trailing_bytes_are_corrupt() {
        let bytes = encode_recs(&table());
        assert!(decode_recs(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_recs(&bytes[..6]).is_err());
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(decode_recs(&extended).is_err());
        assert!(locate(&extended, 0).is_err());
        assert!(decode_recs(b"XXXX").is_err());
    }

    /// The layout this one replaced: magic, count, records — no version, no
    /// index.
    fn encode_v1(recs: &[ItemRecs]) -> Vec<u8> {
        let mut w = Writer::new(RECS_MAGIC);
        w.list(recs.iter(), |w, r| {
            for list in [&r.view_based, &r.purchase_based] {
                w.list(list.iter(), |w, &(item, score)| {
                    w.u32(item.0);
                    w.f32(score);
                });
            }
        });
        w.finish()
    }

    #[test]
    fn one_record_reads_agree_with_the_whole_table() {
        let t = table();
        let bytes = encode_recs(&t);
        for (i, want) in t.iter().enumerate() {
            let at = locate(&bytes, i).unwrap().unwrap();
            assert_eq!(&decode_record(&bytes[at.clone()]).unwrap(), want);
            // The ranged path lands on the same bytes.
            let (entry_at, entry_len) = index_entry_span(i).unwrap();
            let (start, len) = record_span(&bytes[entry_at..entry_at + entry_len]).unwrap();
            assert_eq!(start..start + len, at);
        }
        for past in [t.len(), t.len() + 5, usize::MAX] {
            assert_eq!(locate(&bytes, past).unwrap(), None, "clean miss");
        }
        assert_eq!(locate(&encode_recs(&[]), 0).unwrap(), None);
    }

    #[test]
    fn every_prefix_and_the_old_layout_are_refused() {
        let t = table();
        let bytes = encode_recs(&t);
        for cut in 0..bytes.len() {
            assert!(decode_recs(&bytes[..cut]).is_err(), "prefix {cut}");
            for item in [0, 1, t.len()] {
                assert!(locate(&bytes[..cut], item).is_err(), "prefix {cut}");
            }
        }
        // Two items: the old count's low byte reads as this version.
        let old = encode_v1(&t);
        assert_eq!(old[4], RECS_VERSION);
        assert!(decode_recs(&old).is_err());
        assert!(locate(&old, 0).is_err());
        assert!(locate(&old, 9).is_err());
        // A record cut short, or with bytes to spare, is not a record.
        let at = locate(&bytes, 0).unwrap().unwrap();
        assert!(decode_record(&bytes[at.start..at.end - 1]).is_err());
        assert!(decode_record(&bytes[at.start..at.end + 1]).is_err());
        assert!(record_span(&[9, 0, 0, 0, 8, 0, 0, 0]).is_err(), "backwards");
        assert!(record_span(&[0; 7]).is_err());
    }

    #[test]
    fn logical_bytes_are_a_pure_shape_function() {
        let t = table();
        assert_eq!(recs_logical_bytes(&t), 48 + 8 * 3 + 48 + 8);
        assert_eq!(recs_logical_bytes(&[]), 0);
    }
}
