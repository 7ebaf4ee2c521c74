//! The SetR-tree (§IV-B): an R-tree whose internal entries carry the
//! union and intersection keyword sets of their subtrees.
//!
//! Theorem 1 bounds the ranking score of every object under a node by
//! combining `MinDist` with `|N∪ ∩ q.doc| / |N∩ ∪ q.doc|`; the search
//! module turns that into an incremental best-first top-k scan and the
//! rank-of-object search at the heart of the basic why-not algorithm.

mod build;
pub(crate) mod mutate;
mod node;
mod search;

pub use node::{SetrInternalEntry, SetrLeafEntry, SetrNode};
pub use search::{RankMode, RankOutcome, TopKSearch};

use crate::model::{Dataset, SpatialObject};
use crate::payload;
use crate::stats::TraversalStats;
use std::sync::Arc;
use wnsk_geo::WorldBounds;
use wnsk_obs::Registry;
use wnsk_storage::{BlobRef, BlobStore, BufferPool, Result};
use wnsk_text::KeywordSet;

/// Magic number identifying a SetR-tree meta page.
const MAGIC: u32 = 0x5352_5431; // "SRT1"

/// Tree-level metadata persisted on page 0.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Meta {
    pub root: BlobRef,
    pub height: u32,
    pub n_objects: u64,
    pub world: WorldBounds,
    pub fanout: u32,
}

/// A disk-resident SetR-tree.
///
/// Built once with [`SetRTree::build`] and read-only afterwards, matching
/// the paper's static datasets. All reads go through the buffer pool.
pub struct SetRTree {
    pool: Arc<BufferPool>,
    blobs: BlobStore,
    meta: Meta,
    stats: TraversalStats,
}

impl SetRTree {
    /// Bulk-loads a SetR-tree over the live objects of `dataset` into
    /// the storage behind `pool` (which must be empty) using the given
    /// node `fanout`. Tombstoned slots never enter the index: a rebuilt
    /// tree over a mutated dataset equals one built over the survivors.
    pub fn build(pool: Arc<BufferPool>, dataset: &Dataset, fanout: usize) -> Result<Self> {
        Self::build_from(pool, dataset.live_objects(), *dataset.world(), fanout)
    }

    /// Bulk-loads a SetR-tree over `objects`, keyed by their own ids and
    /// scored within `world` — e.g. one shard's slice of a dataset. The
    /// STR packing sees the objects in iteration order.
    pub fn build_from<'a>(
        pool: Arc<BufferPool>,
        objects: impl IntoIterator<Item = &'a SpatialObject>,
        world: WorldBounds,
        fanout: usize,
    ) -> Result<Self> {
        build::build(pool, objects.into_iter().collect(), world, fanout)
    }

    /// Opens a previously built tree from its storage.
    pub fn open(pool: Arc<BufferPool>) -> Result<Self> {
        let meta = build::read_meta(&pool)?;
        Ok(Self::from_parts(pool, meta))
    }

    pub(crate) fn from_parts(pool: Arc<BufferPool>, meta: Meta) -> Self {
        let blobs = BlobStore::new(Arc::clone(&pool));
        SetRTree {
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

    /// Traversal counters (node visits, pruned subtrees).
    pub fn traversal(&self) -> &TraversalStats {
        &self.stats
    }

    /// Publishes the traversal counters into `registry` under `prefix`
    /// (e.g. `"setr."`). The SetR-tree has no dominance bounds, so only
    /// `node_visits` / `nodes_pruned` are registered.
    pub fn register_metrics(&mut self, registry: &Registry, prefix: &str) {
        self.stats.register(registry, prefix, false);
    }

    /// Attaches a tracer: node visits (and the solvers' prune decisions,
    /// which go through [`TraversalStats`]) emit trace events.
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

    /// Blob reference of the root node (the entry point for external
    /// traversals such as the parallel counting rank).
    pub fn root(&self) -> BlobRef {
        self.meta.root
    }

    /// Reads and decodes a node (every traversal path funnels through
    /// here, so this is also where node visits are counted). Public for
    /// external traversals and aggregate verification.
    pub fn read_node(&self, node: BlobRef) -> Result<SetrNode> {
        self.stats.visit_traced(node.first_page.0);
        let bytes = self.blobs.read(node)?;
        SetrNode::decode(&bytes)
    }

    /// Reads a keyword-set payload (object doc or node union/intersection).
    pub fn read_keyword_set(&self, blob: BlobRef) -> Result<KeywordSet> {
        let bytes = self.blobs.read(blob)?;
        payload::decode_keyword_set(&bytes)
    }
}
