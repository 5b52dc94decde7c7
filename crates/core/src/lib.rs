//! # jem-core — the JEM-Mapper (Algorithm 2 of the paper)
//!
//! Maps long-read *end segments* (prefix/suffix of length ℓ) to their best
//! matching contig using the minimizer-based Jaccard estimator sketch:
//!
//! 1. **Index** — every contig is sketched with [`jem_sketch::sketch_by_jem`];
//!    the entries are sorted and written into the `T`-trial
//!    [`jem_index::FlatTable`].
//! 2. **Map** — each query end segment is sketched the same way; for every
//!    trial `t`, contigs colliding with the query in bank `t` form
//!    `Hits_r[t]`; the most frequent contig across trials is the reported
//!    best hit (ties to the smaller contig id). Hit counting uses the
//!    paper's lazy-update counter.
//!
//! Three drivers share this logic:
//!
//! * [`JemMapper::map_reads`] — sequential (one counter, queries one by one);
//! * [`parallel::map_reads_parallel`] — shared-memory `par_map` driver;
//! * [`distributed::run_distributed`] — the paper's S1–S4 distributed
//!   algorithm executed on the `jem-psim` BSP world, producing the per-step
//!   timing breakdown of Figs. 7–8 and the strong-scaling data of Table II.
//!   It runs under a [`jem_psim::FaultPlan`] (empty by default): crashed
//!   ranks' blocks are reassigned and replayed, corrupted sketch streams
//!   are detected (framed, checksummed transport) and re-requested, and an
//!   optional checkpoint makes the run restartable past the sketch-gather
//!   barrier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod contained;
pub mod distributed;
pub mod mapper;
pub mod parallel;
pub mod persist;
pub mod report;
pub mod segment;

pub use config::MapperConfig;
pub use contained::{ContainedHit, TiledMapping};
pub use distributed::{
    run_distributed, DistributedOutcome, ResilienceError, ResilienceOptions, StepBreakdown,
};
pub use mapper::{JemMapper, MapScratch, Mapping};
pub use parallel::{map_reads_parallel, map_reads_parallel_with};
pub use persist::{
    load_index, load_index_path, load_index_path_opts, load_index_path_with, save_index, Integrity,
};
pub use report::{mapping_pairs, write_mappings_tsv, write_mappings_tsv_named};
pub use segment::{make_segments, QuerySegment, ReadEnd};
