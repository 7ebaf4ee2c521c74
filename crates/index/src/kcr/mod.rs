//! The KcR-tree (*Keyword count R-tree*, §V-A, following \[22\]): an R-tree
//! whose internal entries carry, for each child, the subtree cardinality
//! `cnt` and a keyword-count map `kcm` (term → number of objects in the
//! subtree containing it).
//!
//! The dominance-bound machinery ([`max_dom`] /
//! [`min_dom`], module [`dom`]) estimates, for a
//! candidate keyword set, how many objects under a node out-rank the
//! missing object — without descending into the node. The bound-and-prune
//! why-not algorithm (Algorithm 3, implemented in `wnsk-core`) drives one
//! tree traversal for a whole batch of candidate sets.

pub mod dom;

mod build;
mod mutate;
mod node;
mod search;

pub use dom::{
    max_dom, max_dom_counts, min_dom, min_dom_counts, tau_lower, tau_upper, PreparedNode, SCounts,
};
pub use node::{KcrEntry, KcrInternalEntry, KcrLeafEntry, KcrNode};
pub use search::KcrTopKSearch;

use crate::payload;
use crate::stats::TraversalStats;
use std::sync::Arc;
use wnsk_geo::{Rect, WorldBounds};
use wnsk_obs::Registry;
use wnsk_storage::{BlobRef, BlobStore, BufferPool, Result};
use wnsk_text::{KeywordCountMap, KeywordSet};

/// Magic number identifying a KcR-tree meta page.
const MAGIC: u32 = 0x4B43_5231; // "KCR1"

/// The spatial/textual summary of a subtree: everything `MaxDom`/`MinDom`
/// need (§V-B).
#[derive(Clone, Debug)]
pub struct NodeSummary {
    pub mbr: Rect,
    /// Number of objects in the subtree (`N.cnt`).
    pub cnt: u32,
    /// Keyword-count map of the subtree (`N.kcm`).
    pub kcm: KeywordCountMap,
}

/// Tree-level metadata persisted on page 0.
#[derive(Clone, Debug)]
pub(crate) struct Meta {
    pub root: BlobRef,
    pub root_mbr: Rect,
    pub root_cnt: u32,
    pub root_kcm: BlobRef,
    pub height: u32,
    pub n_objects: u64,
    pub world: WorldBounds,
    pub fanout: u32,
}

/// A disk-resident KcR-tree. Bulk-built, read-only afterwards.
pub struct KcrTree {
    pool: Arc<BufferPool>,
    blobs: BlobStore,
    meta: Meta,
    stats: TraversalStats,
}

impl KcrTree {
    /// Bulk-loads a KcR-tree over the live objects of `dataset` into
    /// empty storage (see [`crate::SetRTree::build`]).
    pub fn build(
        pool: Arc<BufferPool>,
        dataset: &crate::model::Dataset,
        fanout: usize,
    ) -> Result<Self> {
        Self::build_from(pool, dataset.live_objects(), *dataset.world(), fanout)
    }

    /// Bulk-loads a KcR-tree over `objects` within `world` (see
    /// [`crate::SetRTree::build_from`]).
    pub fn build_from<'a>(
        pool: Arc<BufferPool>,
        objects: impl IntoIterator<Item = &'a crate::model::SpatialObject>,
        world: WorldBounds,
        fanout: usize,
    ) -> Result<Self> {
        build::build(pool, objects.into_iter().collect(), world, fanout)
    }

    /// Opens a previously built tree.
    pub fn open(pool: Arc<BufferPool>) -> Result<Self> {
        let meta = build::read_meta(&pool)?;
        Ok(Self::from_parts(pool, meta))
    }

    pub(crate) fn from_parts(pool: Arc<BufferPool>, meta: Meta) -> Self {
        let blobs = BlobStore::new(Arc::clone(&pool));
        KcrTree {
            pool,
            blobs,
            meta,
            stats: TraversalStats::detached(),
        }
    }

    /// The buffer pool (I/O metering lives here).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Traversal counters: node visits, pruned subtrees, and the
    /// Theorem 2/3 `MaxDom`/`MinDom` prune events recorded by the
    /// bound-and-prune driver.
    pub fn traversal(&self) -> &TraversalStats {
        &self.stats
    }

    /// Publishes the traversal counters into `registry` under `prefix`
    /// (e.g. `"kcr."`), including the dominance-bound counters.
    pub fn register_metrics(&mut self, registry: &Registry, prefix: &str) {
        self.stats.register(registry, prefix, true);
    }

    /// Attaches a tracer: node visits (and the solvers' Theorem 2/3
    /// prune decisions, which go through [`TraversalStats`]) emit trace
    /// events.
    pub fn set_tracer(&mut self, tracer: wnsk_obs::Tracer) {
        self.stats.set_tracer(tracer);
    }

    /// World bounds the tree was built with.
    pub fn world(&self) -> &WorldBounds {
        &self.meta.world
    }

    /// Number of indexed objects.
    pub fn len(&self) -> u64 {
        self.meta.n_objects
    }

    /// `true` when the tree indexes no objects.
    pub fn is_empty(&self) -> bool {
        self.meta.n_objects == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.meta.height
    }

    /// Blob reference of the root node.
    pub fn root(&self) -> BlobRef {
        self.meta.root
    }

    /// Summary of the whole tree (the root's `mbr`/`cnt`/`kcm`), reading
    /// the root keyword-count map from storage.
    pub fn root_summary(&self) -> Result<NodeSummary> {
        Ok(NodeSummary {
            mbr: self.meta.root_mbr,
            cnt: self.meta.root_cnt,
            kcm: self.read_kcm(self.meta.root_kcm)?,
        })
    }

    /// Reads and decodes a node (every traversal path funnels through
    /// here, so this is also where node visits are counted).
    pub fn read_node(&self, node: BlobRef) -> Result<KcrNode> {
        self.stats.visit_traced(node.first_page.0);
        let bytes = self.blobs.read(node)?;
        KcrNode::decode(&bytes)
    }

    /// Reads a child's keyword-count map.
    pub fn read_kcm(&self, blob: BlobRef) -> Result<KeywordCountMap> {
        let bytes = self.blobs.read(blob)?;
        payload::decode_kcm(&bytes)
    }

    /// Reads an object's keyword set.
    pub fn read_doc(&self, blob: BlobRef) -> Result<KeywordSet> {
        let bytes = self.blobs.read(blob)?;
        payload::decode_keyword_set(&bytes)
    }
}
