//! Sharded scatter-gather serving for why-not spatial keyword top-k.
//!
//! Two pieces:
//!
//! * [`partition`] — a deterministic keyword-affinity partitioner: live
//!   objects cluster by their rarest term (spatial-stripe fallback for
//!   empty docs), clusters pack onto shards longest-first with seeded
//!   tie-shuffles, and the result is an explicit, reproducible
//!   [`ShardManifest`] (object-id runs + vocab slices + insert routes)
//!   that round-trips through JSON and is written atomically.
//! * [`coordinator`] — a [`Coordinator`] that keeps the one dataset
//!   and, per shard, only a SetR/KcR [`wnsk_core::IndexPair`] over its
//!   slice. It scatters top-k across shards on a shared executor pool and
//!   answers why-nots with the engine's own KcRBased solver run over the
//!   forest of shard KcR-trees — results **bit-identical** to a
//!   single-shard engine (same penalty bits, same rank lists, same
//!   refined queries) for every shard count and thread count. Mutations
//!   route by partition key and, when durable, go through one route log
//!   that recovery replays.

pub mod coordinator;
pub mod partition;

pub use coordinator::{Coordinator, CoordinatorConfig, Result, ShardError, ShardStatus};
pub use partition::{ShardManifest, ShardSpec};
