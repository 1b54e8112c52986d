//! DFS layout and codecs for pipeline data.
//!
//! Everything a task needs flows through the DFS, exactly like the paper's
//! pipeline: catalogs and event logs in, models and annotated config records
//! out. Events use a compact fixed-width binary codec (17 bytes/event).
//! Catalogs and recommendation tables use compact magic-tagged binary codecs
//! too (DESIGN.md §12): at fleet scale the JSON encode/decode dominated the
//! day, and the binary path needs no serde backend at runtime. All three go
//! through `sigmund_types::wire` (DESIGN.md §16). Config records keep JSON
//! (they are small and debuggability wins — Section I lists "understand and
//! debug problems efficiently" as a design goal).

use bytes::Bytes;
use sigmund_dfs::Dfs;
use sigmund_types::wire::{Reader, Writer};
use sigmund_types::{
    ActionType, BrandId, Catalog, CategoryId, CellId, ConfigRecord, FacetId, Interaction, ItemId,
    ItemMeta, RetailerId, SigmundError, Taxonomy, UserId,
};

/// DFS path of a retailer's training events.
pub fn train_path(r: RetailerId) -> String {
    format!("/data/r{}/train", r.0)
}

/// DFS path of a retailer's catalog.
pub fn catalog_path(r: RetailerId) -> String {
    format!("/catalog/r{}", r.0)
}

/// DFS path of a trained model for (retailer, config) on a given day.
///
/// The day stamp keeps a day's training from overwriting the previous
/// generation it warm-starts from: with day-stable paths, a mid-day crash
/// after the overwrite would make the recovery re-run warm-start from the
/// partial day's own output and diverge from the uninterrupted run
/// (DESIGN.md §14). Superseded generations are garbage-collected at the
/// next day boundary once nothing references them.
pub fn model_path(r: RetailerId, config: u32, day: u32) -> String {
    format!("/models/r{}/c{}/d{}", r.0, config, day)
}

/// DFS directory for a training task's checkpoints.
pub fn checkpoint_dir(r: RetailerId, config: u32) -> String {
    format!("/ckpt/r{}/c{}", r.0, config)
}

/// DFS path of the materialized recommendations for a retailer.
pub fn recs_path(r: RetailerId) -> String {
    format!("/recs/r{}", r.0)
}

/// DFS prefix of the inference part blobs: scratch that lives from a
/// split's completion to the end of the day's publish phase.
pub const RECS_PARTS_PREFIX: &str = "/recs_parts/";

/// DFS path of one inference split's recommendation part blob (DESIGN.md
/// §12). `start` is the split's first item index.
pub fn recs_part_path(r: RetailerId, start: u32) -> String {
    format!("{RECS_PARTS_PREFIX}r{}/p{start}", r.0)
}

/// The driver-side retry budget for one DFS operation: up to three tries,
/// because injected read/write faults and torn reads are transient. A
/// [`SigmundError::Crashed`] propagates at once — the crash is sticky, no
/// retry can absorb it. Returns the last error when the budget runs out.
pub(crate) fn retry_op<T>(
    mut op: impl FnMut() -> Result<T, SigmundError>,
) -> Result<T, SigmundError> {
    let mut last = op();
    for _ in 1..3 {
        match last {
            Ok(_) | Err(SigmundError::Crashed(_)) => break,
            Err(_) => last = op(),
        }
    }
    last
}

/// Encodes an event log (17 bytes per event).
pub fn encode_events(events: &[Interaction]) -> Bytes {
    let mut w = Writer::with_capacity(b"", 4 + events.len() * 17);
    w.list(events.iter(), |w, e| {
        w.u32(e.user.0);
        w.u32(e.item.0);
        w.u8(e.action.strength());
        w.u64(e.when);
    });
    Bytes::from(w.finish())
}

/// Decodes an event log.
///
/// # Errors
/// [`SigmundError::Corrupt`] on malformed bytes.
pub fn decode_events(b: &[u8]) -> Result<Vec<Interaction>, SigmundError> {
    let mut r = Reader::open("event log", b"", b)?;
    let out = r.list(17, "length mismatch", |r| {
        let user = UserId(r.u32("truncated event")?);
        let item = ItemId(r.u32("truncated event")?);
        let action = match r.u8("truncated event")? {
            0 => ActionType::View,
            1 => ActionType::Search,
            2 => ActionType::Cart,
            3 => ActionType::Conversion,
            x => return Err(r.corrupt(format_args!("bad action {x}"))),
        };
        let when = r.u64("truncated event")?;
        Ok(Interaction::new(user, item, action, when))
    })?;
    r.finish()?;
    Ok(out)
}

/// Magic bytes tagging a binary catalog blob.
pub const CATALOG_MAGIC: &[u8; 4] = b"SGCT";

/// Encodes a catalog in the compact binary layout:
///
/// ```text
/// magic "SGCT" | retailer u32 | n_categories u32 | parent u32 (per non-root
/// category, in id order) | n_items u32 | per item: flags u8 (bit 0 brand,
/// 1 price, 2 facet) , category u32 , then each present optional field
/// ```
///
/// Taxonomies are append-only (every node's parent has a smaller id), so the
/// parent list alone reconstructs the tree, depths included.
pub fn encode_catalog(catalog: &Catalog) -> Bytes {
    let mut w = Writer::with_capacity(
        CATALOG_MAGIC,
        16 + catalog.taxonomy.len() * 4 + catalog.len() * 9,
    );
    w.u32(catalog.retailer.0);
    w.len(catalog.taxonomy.len());
    for i in 1..catalog.taxonomy.len() {
        w.u32(catalog.taxonomy.parent(CategoryId::from_index(i)).0);
    }
    w.len(catalog.len());
    for (_, m) in catalog.iter() {
        w.u8(u8::from(m.brand.is_some())
            | u8::from(m.price.is_some()) << 1
            | u8::from(m.facet.is_some()) << 2);
        w.u32(m.category.0);
        if let Some(b) = m.brand {
            w.u32(b.0);
        }
        if let Some(p) = m.price {
            w.f32(p);
        }
        if let Some(f) = m.facet {
            w.u32(f.0);
        }
    }
    Bytes::from(w.finish())
}

/// Decodes a binary catalog blob (see [`encode_catalog`]).
///
/// # Errors
/// [`SigmundError::Corrupt`] on malformed bytes, including parent or
/// category references that would break the append-only taxonomy invariant.
pub fn decode_catalog(b: &[u8]) -> Result<Catalog, SigmundError> {
    let mut r = Reader::open("catalog blob", CATALOG_MAGIC, b)?;
    let retailer = RetailerId(r.u32("truncated header")?);
    // The count includes the root, which has no parent on the wire.
    let n_cats = r.u32("truncated header")? as usize;
    if n_cats == 0 {
        return Err(r.corrupt("taxonomy missing root"));
    }
    let mut taxonomy = Taxonomy::new();
    for i in 1..n_cats {
        let parent = CategoryId(r.u32("truncated taxonomy")?);
        // add_child asserts on unknown parents; reject instead of panicking.
        if parent.index() >= i {
            return Err(r.corrupt(format_args!("category {i} parent out of range")));
        }
        taxonomy.add_child(parent);
    }
    // An item is at least its flags byte and category.
    let n_items = r.len(5, "truncated item count")?;
    let mut catalog = Catalog::new(retailer, taxonomy);
    for i in 0..n_items {
        let flags = r.u8("truncated item")?;
        if flags & !0b111 != 0 {
            return Err(r.corrupt(format_args!("item {i} reserved flag bits")));
        }
        let category = CategoryId(r.u32("truncated item")?);
        if category.index() >= catalog.taxonomy.len() {
            return Err(r.corrupt(format_args!("item {i} category out of range")));
        }
        let brand = (flags & 1 != 0).then(|| r.u32("truncated item fields"));
        let price = (flags & 2 != 0).then(|| r.f32("truncated item fields"));
        let facet = (flags & 4 != 0).then(|| r.u32("truncated item fields"));
        catalog.add_item(ItemMeta {
            category,
            brand: brand.transpose()?.map(BrandId),
            price: price.transpose()?,
            facet: facet.transpose()?.map(FacetId),
        });
    }
    r.finish()?;
    Ok(catalog)
}

// The `SGRC` recommendation-table codec moved to `sigmund_core::recs_codec`
// so the serving cold tier can read the same blobs the pipeline publishes
// without a pipeline dependency (DESIGN.md §13); re-exported here because
// this module is still its DFS-layout home for pipeline callers.
pub use sigmund_core::recs_codec::{decode_recs, encode_recs, recs_logical_bytes, RECS_MAGIC};

/// Publishes a retailer's catalog and events to the DFS (the ingestion step
/// of the daily pipeline). Each write gets the driver retry budget, so
/// onboarding under an active fault plan survives a transient write fault.
///
/// # Errors
/// The last write error once the budget is exhausted, or
/// [`SigmundError::Crashed`] at once.
pub fn publish_retailer(
    dfs: &Dfs,
    cell: CellId,
    catalog: &Catalog,
    events: &[Interaction],
) -> Result<(), SigmundError> {
    let catalog_blob = encode_catalog(catalog);
    retry_op(|| dfs.write(cell, &catalog_path(catalog.retailer), catalog_blob.clone()))?;
    let events_blob = encode_events(events);
    retry_op(|| dfs.write(cell, &train_path(catalog.retailer), events_blob.clone()))
}

/// Loads a retailer's catalog from the DFS.
pub fn load_catalog(dfs: &Dfs, cell: CellId, r: RetailerId) -> Result<Catalog, SigmundError> {
    decode_catalog(&dfs.read(cell, &catalog_path(r))?)
}

/// Loads a retailer's events from the DFS.
pub fn load_events(
    dfs: &Dfs,
    cell: CellId,
    r: RetailerId,
) -> Result<Vec<Interaction>, SigmundError> {
    decode_events(&dfs.read(cell, &train_path(r))?)
}

/// Serializes a batch of config records to JSON lines.
///
/// # Errors
/// [`SigmundError::Invalid`] if a record fails to serialize.
pub fn encode_config_records(records: &[ConfigRecord]) -> Result<Bytes, SigmundError> {
    let mut out = Vec::new();
    for r in records {
        let line = serde_json::to_vec(r)
            .map_err(|e| SigmundError::Invalid(format!("config record serialize: {e}")))?;
        out.extend_from_slice(&line);
        out.push(b'\n');
    }
    Ok(Bytes::from(out))
}

/// Parses a batch of config records from JSON lines.
///
/// # Errors
/// [`SigmundError::Corrupt`] on malformed lines.
pub fn decode_config_records(bytes: &[u8]) -> Result<Vec<ConfigRecord>, SigmundError> {
    bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| {
            serde_json::from_slice(l)
                .map_err(|e| SigmundError::Corrupt(format!("config record: {e}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmund_core::prelude::ItemRecs;
    use sigmund_types::{HyperParams, ItemMeta, Taxonomy};

    fn events() -> Vec<Interaction> {
        vec![
            Interaction::new(UserId(1), ItemId(2), ActionType::View, 10),
            Interaction::new(UserId(1), ItemId(3), ActionType::Conversion, 20),
            Interaction::new(UserId(2), ItemId(0), ActionType::Cart, 5),
        ]
    }

    #[test]
    fn event_codec_round_trip() {
        let evs = events();
        let bytes = encode_events(&evs);
        assert_eq!(bytes.len(), 4 + 3 * 17);
        let back = decode_events(&bytes).unwrap();
        assert_eq!(back, evs);
    }

    #[test]
    fn event_codec_rejects_corruption() {
        let bytes = encode_events(&events());
        assert!(decode_events(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_events(&[1, 2]).is_err());
        let mut bad = bytes.to_vec();
        bad[4 + 8] = 99; // clobber an action byte
        assert!(decode_events(&bad).is_err());
    }

    #[test]
    fn publish_and_load_retailer() {
        let mut tax = Taxonomy::new();
        let c0 = tax.add_child(tax.root());
        let mut catalog = Catalog::new(RetailerId(7), tax);
        for _ in 0..5 {
            catalog.add_item(ItemMeta::bare(c0));
        }
        let dfs = Dfs::new();
        publish_retailer(&dfs, CellId(0), &catalog, &events()).unwrap();
        let cat2 = load_catalog(&dfs, CellId(0), RetailerId(7)).unwrap();
        assert_eq!(cat2.len(), 5);
        assert_eq!(cat2.retailer, RetailerId(7));
        let evs = load_events(&dfs, CellId(0), RetailerId(7)).unwrap();
        assert_eq!(evs.len(), 3);
    }

    #[test]
    fn publish_retailer_rides_out_a_transient_write_fault() {
        let tax = Taxonomy::new();
        let catalog = Catalog::new(RetailerId(3), tax);
        // A plan whose first write draw faults and whose second does not,
        // found by probing so the test does not pin the hash's constants.
        let flaky = (0..100_000u64)
            .map(|seed| sigmund_types::FaultPlan {
                seed,
                write_error_rate: 0.2,
                ..Default::default()
            })
            .find(|plan| {
                let probe = Dfs::with_faults(plan.clone());
                let blob = Bytes::from_static(b"x");
                probe.write(CellId(0), "/a", blob.clone()).is_err()
                    && probe.write(CellId(0), "/a", blob).is_ok()
            })
            .unwrap();
        let dfs = Dfs::with_faults(flaky);
        publish_retailer(&dfs, CellId(0), &catalog, &events()).unwrap();
        assert!(dfs.injector().unwrap().stats().write_errors >= 1);
        assert!(dfs.exists(&catalog_path(RetailerId(3))));
        assert!(dfs.exists(&train_path(RetailerId(3))));
        // A budget that runs out still surfaces the fault.
        let dead = Dfs::with_faults(sigmund_types::FaultPlan {
            write_error_rate: 1.0,
            ..Default::default()
        });
        assert!(matches!(
            publish_retailer(&dead, CellId(0), &catalog, &events()),
            Err(SigmundError::Transient(_))
        ));
        assert_eq!(dead.injector().unwrap().stats().write_errors, 3);
    }

    #[test]
    fn config_record_lines_round_trip() {
        let recs: Vec<ConfigRecord> = (0..3)
            .map(|i| ConfigRecord::cold(RetailerId(1), i, HyperParams::default()))
            .collect();
        let bytes = encode_config_records(&recs).unwrap();
        let back = decode_config_records(&bytes).unwrap();
        assert_eq!(back, recs);
        assert!(decode_config_records(b"not json\n").is_err());
        assert!(decode_config_records(b"").unwrap().is_empty());
    }

    #[test]
    fn catalog_codec_round_trips_metadata_and_taxonomy() {
        let mut tax = Taxonomy::new();
        let c0 = tax.add_child(tax.root());
        let c1 = tax.add_child(c0);
        let mut catalog = Catalog::new(RetailerId(9), tax);
        catalog.add_item(ItemMeta {
            category: c1,
            brand: Some(sigmund_types::BrandId(4)),
            price: Some(12.5),
            facet: Some(sigmund_types::FacetId(2)),
        });
        catalog.add_item(ItemMeta::bare(c0));
        let bytes = encode_catalog(&catalog);
        let back = decode_catalog(&bytes).unwrap();
        assert_eq!(back.retailer, catalog.retailer);
        assert_eq!(back.len(), catalog.len());
        assert_eq!(back.taxonomy.len(), catalog.taxonomy.len());
        assert_eq!(back.taxonomy.depth(c1), 2);
        assert_eq!(back.meta(ItemId(0)), catalog.meta(ItemId(0)));
        assert_eq!(back.meta(ItemId(1)), catalog.meta(ItemId(1)));
        assert_eq!(back.brand_space(), catalog.brand_space());
    }

    #[test]
    fn catalog_codec_rejects_malformed_bytes() {
        let mut tax = Taxonomy::new();
        let c0 = tax.add_child(tax.root());
        let mut catalog = Catalog::new(RetailerId(1), tax);
        catalog.add_item(ItemMeta::bare(c0));
        let bytes = encode_catalog(&catalog).to_vec();
        assert!(decode_catalog(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_catalog(b"not a catalog").is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_catalog(&long).is_err());
        // A forward parent reference must be rejected, not panic add_child.
        let mut bad_parent = bytes.clone();
        bad_parent[12..16].copy_from_slice(&7u32.to_le_bytes());
        assert!(decode_catalog(&bad_parent).is_err());
    }

    #[test]
    fn recs_codec_round_trips() {
        let recs = vec![
            ItemRecs {
                view_based: vec![(ItemId(3), 0.5), (ItemId(1), 0.25)],
                purchase_based: vec![(ItemId(2), 1.5)],
            },
            ItemRecs::default(),
        ];
        let bytes = encode_recs(&recs);
        assert!(bytes.starts_with(RECS_MAGIC));
        let back = decode_recs(&bytes).unwrap();
        assert_eq!(back, recs);
        assert!(decode_recs(&bytes[..bytes.len() - 2]).is_err());
        assert!(decode_recs(b"junk").is_err());
        let mut long = bytes.to_vec();
        long.push(9);
        assert!(decode_recs(&long).is_err());
    }

    #[test]
    fn recs_logical_bytes_is_shape_determined() {
        let recs = vec![ItemRecs {
            view_based: vec![(ItemId(0), 1.0); 10],
            purchase_based: vec![(ItemId(1), 2.0); 6],
        }];
        assert_eq!(recs_logical_bytes(&recs), 48 + 8 * 16);
        assert_eq!(recs_logical_bytes(&[]), 0);
    }

    #[test]
    fn paths_are_distinct_per_retailer_and_config() {
        assert_ne!(
            model_path(RetailerId(1), 0, 0),
            model_path(RetailerId(1), 1, 0)
        );
        assert_ne!(
            model_path(RetailerId(1), 0, 0),
            model_path(RetailerId(1), 0, 1)
        );
        assert_ne!(train_path(RetailerId(1)), train_path(RetailerId(2)));
        assert_ne!(
            checkpoint_dir(RetailerId(1), 0),
            checkpoint_dir(RetailerId(2), 0)
        );
    }
}
