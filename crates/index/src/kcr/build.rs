//! STR bulk loading and meta-page persistence for the KcR-tree.

use super::node::{KcrInternalEntry, KcrLeafEntry, KcrNode};
use super::{KcrTree, Meta, MAGIC};
use crate::model::SpatialObject;
use crate::payload;
use crate::str_pack;
use std::sync::Arc;
use wnsk_geo::{Point, Rect, WorldBounds};
use wnsk_storage::codec::{Reader, Writer};
use wnsk_storage::{BlobRef, BlobStore, BufferPool, PageId, Result, StorageError, PAGE_DATA_SIZE};
use wnsk_text::KeywordCountMap;

/// A freshly written node plus the aggregates its parent entry needs.
struct BuiltNode {
    node: BlobRef,
    mbr: Rect,
    cnt: u32,
    kcm: KeywordCountMap,
}

pub(super) fn build(
    pool: Arc<BufferPool>,
    objs: Vec<&SpatialObject>,
    world: WorldBounds,
    fanout: usize,
) -> Result<KcrTree> {
    if fanout < 2 {
        return Err(StorageError::invalid_argument(
            "kcr build",
            format!("fanout must be at least 2, got {fanout}"),
        ));
    }
    let allocated = pool.backend().page_count();
    if allocated != 0 {
        return Err(StorageError::invalid_argument(
            "kcr build",
            format!("KcR-tree must be built into empty storage, found {allocated} pages"),
        ));
    }
    let meta_page = pool.allocate()?;
    debug_assert_eq!(meta_page, PageId(0));

    let blobs = BlobStore::new(Arc::clone(&pool));

    let doc_refs: Vec<BlobRef> = objs
        .iter()
        .map(|o| blobs.write(&payload::encode_keyword_set(&o.doc)))
        .collect::<Result<_>>()?;

    let rects: Vec<Rect> = objs.iter().map(|o| Rect::point(o.loc)).collect();
    let levels = str_pack::str_levels(&rects, fanout);

    // Leaf level.
    let mut current: Vec<BuiltNode> = levels[0]
        .groups
        .iter()
        .map(|group| {
            let entries: Vec<KcrLeafEntry> = group
                .iter()
                .map(|&i| KcrLeafEntry {
                    object: objs[i].id,
                    loc: objs[i].loc,
                    doc: doc_refs[i],
                })
                .collect();
            let mbr = group
                .iter()
                .fold(Rect::EMPTY, |acc, &i| acc.union(&rects[i]));
            let mut kcm = KeywordCountMap::new();
            for &i in group {
                kcm.add_doc(&objs[i].doc);
            }
            let node = blobs.write(&KcrNode::Leaf(entries).encode())?;
            Ok(BuiltNode {
                node,
                mbr,
                cnt: group.len() as u32,
                kcm,
            })
        })
        .collect::<Result<_>>()?;

    // Internal levels.
    for level in &levels[1..] {
        current = level
            .groups
            .iter()
            .map(|group| {
                let mut entries = Vec::with_capacity(group.len());
                let mut mbr = Rect::EMPTY;
                let mut cnt = 0u32;
                let mut kcm = KeywordCountMap::new();
                for &i in group {
                    let child = &current[i];
                    let kcm_ref = blobs.write(&payload::encode_kcm(&child.kcm))?;
                    entries.push(KcrInternalEntry {
                        child: child.node,
                        mbr: child.mbr,
                        cnt: child.cnt,
                        kcm: kcm_ref,
                    });
                    mbr = mbr.union(&child.mbr);
                    cnt += child.cnt;
                    kcm.merge(&child.kcm);
                }
                let node = blobs.write(&KcrNode::Internal(entries).encode())?;
                Ok(BuiltNode {
                    node,
                    mbr,
                    cnt,
                    kcm,
                })
            })
            .collect::<Result<_>>()?;
    }

    debug_assert_eq!(current.len(), 1);
    let root = &current[0];
    let root_kcm = blobs.write(&payload::encode_kcm(&root.kcm))?;
    let meta = Meta {
        root: root.node,
        root_mbr: if root.mbr.is_empty() {
            Rect::point(Point::new(0.0, 0.0))
        } else {
            root.mbr
        },
        root_cnt: root.cnt,
        root_kcm,
        height: levels.len() as u32,
        n_objects: objs.len() as u64,
        world,
        fanout: fanout as u32,
    };
    write_meta(&pool, &meta)?;
    Ok(KcrTree::from_parts(pool, meta))
}

pub(super) fn write_meta(pool: &BufferPool, meta: &Meta) -> Result<()> {
    let mut w = Writer::with_capacity(PAGE_DATA_SIZE);
    w.write_u32(MAGIC);
    meta.root.encode(&mut w);
    w.write_f64(meta.root_mbr.min.x);
    w.write_f64(meta.root_mbr.min.y);
    w.write_f64(meta.root_mbr.max.x);
    w.write_f64(meta.root_mbr.max.y);
    w.write_u32(meta.root_cnt);
    meta.root_kcm.encode(&mut w);
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
    let mut r = Reader::new(&page, "kcr meta page");
    let magic = r.read_u32()?;
    if magic != MAGIC {
        return Err(StorageError::corrupt(
            "kcr meta page",
            format!("bad magic {magic:#x}"),
        ));
    }
    let root = BlobRef::decode(&mut r)?;
    let rmin = Point::new(r.read_f64()?, r.read_f64()?);
    let rmax = Point::new(r.read_f64()?, r.read_f64()?);
    let root_cnt = r.read_u32()?;
    let root_kcm = BlobRef::decode(&mut r)?;
    let height = r.read_u32()?;
    let n_objects = r.read_u64()?;
    let wmin = Point::new(r.read_f64()?, r.read_f64()?);
    let wmax = Point::new(r.read_f64()?, r.read_f64()?);
    let fanout = r.read_u32()?;
    Ok(Meta {
        root,
        root_mbr: Rect::new(rmin, rmax),
        root_cnt,
        root_kcm,
        height,
        n_objects,
        world: WorldBounds::new(Rect::new(wmin, wmax)),
        fanout,
    })
}
