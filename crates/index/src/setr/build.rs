//! STR bulk loading and meta-page persistence for the SetR-tree.

use super::{Meta, SetRTree, MAGIC};
use crate::model::SpatialObject;
use crate::payload;
use crate::setr::node::{SetrInternalEntry, SetrLeafEntry, SetrNode};
use crate::str_pack;
use std::sync::Arc;
use wnsk_geo::{Point, Rect, WorldBounds};
use wnsk_storage::codec::{Reader, Writer};
use wnsk_storage::{BlobRef, BlobStore, BufferPool, PageId, Result, StorageError, PAGE_DATA_SIZE};
use wnsk_text::KeywordSet;

/// A freshly written node plus the aggregates its parent entry needs.
struct BuiltNode {
    node: BlobRef,
    mbr: Rect,
    union: KeywordSet,
    intersection: KeywordSet,
}

pub(super) fn build(
    pool: Arc<BufferPool>,
    objs: Vec<&SpatialObject>,
    world: WorldBounds,
    fanout: usize,
) -> Result<SetRTree> {
    if fanout < 2 {
        return Err(StorageError::invalid_argument(
            "setr build",
            format!("fanout must be at least 2, got {fanout}"),
        ));
    }
    let allocated = pool.backend().page_count();
    if allocated != 0 {
        return Err(StorageError::invalid_argument(
            "setr build",
            format!("SetR-tree must be built into empty storage, found {allocated} pages"),
        ));
    }
    // Reserve page 0 for the meta record, written last.
    let meta_page = pool.allocate()?;
    debug_assert_eq!(meta_page, PageId(0));

    let blobs = BlobStore::new(Arc::clone(&pool));

    // 1. Write every object's keyword set once.
    let doc_refs: Vec<BlobRef> = objs
        .iter()
        .map(|o| blobs.write(&payload::encode_keyword_set(&o.doc)))
        .collect::<Result<_>>()?;

    // 2. STR grouping over the object points.
    let rects: Vec<Rect> = objs.iter().map(|o| Rect::point(o.loc)).collect();
    let levels = str_pack::str_levels(&rects, fanout);

    // 3. Materialise the leaf level.
    let mut current: Vec<BuiltNode> = levels[0]
        .groups
        .iter()
        .map(|group| {
            let entries: Vec<SetrLeafEntry> = group
                .iter()
                .map(|&i| SetrLeafEntry {
                    object: objs[i].id,
                    loc: objs[i].loc,
                    doc: doc_refs[i],
                })
                .collect();
            let mbr = group
                .iter()
                .fold(Rect::EMPTY, |acc, &i| acc.union(&rects[i]));
            let union = group
                .iter()
                .fold(KeywordSet::empty(), |acc, &i| acc.union(&objs[i].doc));
            let intersection = match group.split_first() {
                None => KeywordSet::empty(),
                Some((&first, rest)) => rest.iter().fold(objs[first].doc.clone(), |acc, &i| {
                    acc.intersection(&objs[i].doc)
                }),
            };
            let node = blobs.write(&SetrNode::Leaf(entries).encode())?;
            Ok(BuiltNode {
                node,
                mbr,
                union,
                intersection,
            })
        })
        .collect::<Result<_>>()?;

    // 4. Materialise internal levels bottom-up.
    for level in &levels[1..] {
        current = level
            .groups
            .iter()
            .map(|group| {
                let mut entries = Vec::with_capacity(group.len());
                let mut mbr = Rect::EMPTY;
                let mut union = KeywordSet::empty();
                let mut intersection: Option<KeywordSet> = None;
                for &i in group {
                    let child = &current[i];
                    let union_ref = blobs.write(&payload::encode_keyword_set(&child.union))?;
                    let inter_ref =
                        blobs.write(&payload::encode_keyword_set(&child.intersection))?;
                    entries.push(SetrInternalEntry {
                        child: child.node,
                        mbr: child.mbr,
                        union: union_ref,
                        intersection: inter_ref,
                    });
                    mbr = mbr.union(&child.mbr);
                    union = union.union(&child.union);
                    intersection = Some(match intersection {
                        None => child.intersection.clone(),
                        Some(acc) => acc.intersection(&child.intersection),
                    });
                }
                let node = blobs.write(&SetrNode::Internal(entries).encode())?;
                Ok(BuiltNode {
                    node,
                    mbr,
                    union,
                    intersection: intersection.unwrap_or_else(KeywordSet::empty),
                })
            })
            .collect::<Result<_>>()?;
    }

    debug_assert_eq!(current.len(), 1, "STR must converge to a single root");
    let meta = Meta {
        root: current[0].node,
        height: levels.len() as u32,
        n_objects: objs.len() as u64,
        world,
        fanout: fanout as u32,
    };
    write_meta(&pool, &meta)?;
    Ok(SetRTree::from_parts(pool, meta))
}

pub(super) fn write_meta(pool: &BufferPool, meta: &Meta) -> Result<()> {
    let mut w = Writer::with_capacity(PAGE_DATA_SIZE);
    w.write_u32(MAGIC);
    meta.root.encode(&mut w);
    w.write_u32(meta.height);
    w.write_u64(meta.n_objects);
    let rect = meta.world.rect();
    w.write_f64(rect.min.x);
    w.write_f64(rect.min.y);
    w.write_f64(rect.max.x);
    w.write_f64(rect.max.y);
    w.write_u32(meta.fanout);
    // The pool zero-pads to the full payload size and embeds the CRC
    // trailer.
    pool.write(PageId(0), &w.into_vec())
}

pub(super) fn read_meta(pool: &BufferPool) -> Result<Meta> {
    let page = pool.read(PageId(0))?;
    let mut r = Reader::new(&page, "setr meta page");
    let magic = r.read_u32()?;
    if magic != MAGIC {
        return Err(StorageError::corrupt(
            "setr meta page",
            format!("bad magic {magic:#x}"),
        ));
    }
    let root = BlobRef::decode(&mut r)?;
    let height = r.read_u32()?;
    let n_objects = r.read_u64()?;
    let min = Point::new(r.read_f64()?, r.read_f64()?);
    let max = Point::new(r.read_f64()?, r.read_f64()?);
    let fanout = r.read_u32()?;
    Ok(Meta {
        root,
        height,
        n_objects,
        world: WorldBounds::new(Rect::new(min, max)),
        fanout,
    })
}
