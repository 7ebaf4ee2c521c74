//! The SetR + KcR index pair: the two trees the solvers read, built over
//! one set of objects and kept in step with the dataset by one mutation
//! path.
//!
//! [`WhyNotEngine`](crate::WhyNotEngine) owns one pair over its whole
//! dataset; a sharded coordinator owns one pair per shard, each over its
//! slice of a single shared dataset and keyed by that dataset's ids. The
//! build, the metric registration and the insert/remove/update code
//! therefore exist once for both.

use crate::error::Result;
use crate::ingest::Mutation;
use std::sync::Arc;
use wnsk_geo::WorldBounds;
use wnsk_index::{Dataset, KcrTree, ObjectId, SetRTree, SpatialObject};
use wnsk_obs::{names, Registry};
use wnsk_storage::{BufferPool, BufferPoolConfig, MemBackend, StorageError};

/// A SetR-tree and a KcR-tree over the same objects, each on its own
/// in-memory page store, publishing into one [`Registry`]: buffer pools
/// under `setr.pool.` / `kcr.pool.`, traversals under `setr.` / `kcr.`,
/// and `ingest.applied`.
pub struct IndexPair {
    setr: SetRTree,
    kcr: KcrTree,
    registry: Registry,
    /// Mutations applied through [`IndexPair::apply`].
    epoch: u64,
}

impl IndexPair {
    /// Builds both trees over `objects` (STR-packed in iteration order,
    /// keyed by the objects' own ids) within `world`.
    pub fn build<'a>(
        objects: impl IntoIterator<Item = &'a SpatialObject>,
        world: WorldBounds,
        fanout: usize,
        pool_config: BufferPoolConfig,
    ) -> Result<Self> {
        let objects: Vec<&SpatialObject> = objects.into_iter().collect();
        let registry = Registry::new();
        let pool = |prefix: &str| {
            Arc::new(BufferPool::new_registered(
                Arc::new(MemBackend::new()),
                pool_config,
                &registry,
                prefix,
            ))
        };
        let mut setr =
            SetRTree::build_from(pool("setr.pool."), objects.iter().copied(), world, fanout)?;
        setr.register_metrics(&registry, "setr.");
        let mut kcr =
            KcrTree::build_from(pool("kcr.pool."), objects.iter().copied(), world, fanout)?;
        kcr.register_metrics(&registry, "kcr.");
        Ok(IndexPair {
            setr,
            kcr,
            registry,
            epoch: 0,
        })
    }

    /// The SetR-tree (top-k, BS / AdvancedBS).
    pub fn setr(&self) -> &SetRTree {
        &self.setr
    }

    /// The KcR-tree (KcRBased).
    pub fn kcr(&self) -> &KcrTree {
        &self.kcr
    }

    /// The registry both trees and their pools publish into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutations applied to this pair: 0 at build, +1 per
    /// [`IndexPair::apply`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Installs one tracer on both trees.
    pub fn set_tracer(&mut self, tracer: wnsk_obs::Tracer) {
        self.setr.set_tracer(tracer.clone());
        self.kcr.set_tracer(tracer);
    }

    /// Applies one mutation to `dataset` and to both trees, and returns
    /// the affected id (an insert takes the dataset's next id). The trees
    /// must index exactly the objects of `dataset` this pair owns; a
    /// remove or update of an id the pair does not index fails.
    pub fn apply(&mut self, dataset: &mut Dataset, m: &Mutation) -> Result<ObjectId> {
        let id = match m {
            Mutation::Insert { loc, doc } => {
                let id = dataset.insert(*loc, doc.clone())?;
                self.setr.insert(id, *loc, doc)?;
                self.kcr.insert(id, *loc, doc)?;
                id
            }
            Mutation::Remove { id } => {
                let loc = live_loc(dataset, *id)?;
                dataset.remove(*id)?;
                self.setr.remove(*id, loc)?;
                self.kcr.remove(*id, loc)?;
                *id
            }
            Mutation::UpdateDoc { id, doc } => {
                let loc = live_loc(dataset, *id)?;
                dataset.update_doc(*id, doc.clone())?;
                self.setr.update_doc(*id, loc, doc)?;
                self.kcr.update_doc(*id, loc, doc)?;
                *id
            }
        };
        self.epoch += 1;
        self.registry.counter(names::INGEST_APPLIED).inc();
        Ok(id)
    }
}

fn live_loc(dataset: &Dataset, id: ObjectId) -> Result<wnsk_geo::Point> {
    if !dataset.is_live(id) {
        return Err(StorageError::invalid_argument("ingest", format!("{id:?} is not live")).into());
    }
    Ok(dataset.object(id).loc)
}
