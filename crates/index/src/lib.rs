//! # jem-index — the sketch table `S` and hit counting for JEM-Mapper
//!
//! * [`builder`] — the sort-based table build (Algorithm 2, steps S2–S3):
//!   sketch subjects in parallel into per-block `(code, subject)` runs,
//!   sort and deduplicate each trial's runs, write the table. Every
//!   producer of a table goes through [`TableBuilder`].
//! * [`flat`] — [`FlatTable`], the one representation of the table: per
//!   trial, a slot array with single postings stored inline plus a small
//!   arena for shared codes, in one word buffer — the in-memory shape of
//!   the JEMIDX v5 format, built in memory or loaded zero-copy over an
//!   owned buffer or a memory-mapped file.
//! * [`par`] — [`par_map`], the one parallel loop every shared-memory
//!   stage runs on, and [`default_lanes`].
//! * [`probe`] — the one probe-and-count kernel every mapping driver runs:
//!   gather a segment's home slots, resolve each trial's collision set,
//!   hand it to a sink (best hit, ranking, or per-trial sets).
//! * [`stream`] — the flat `u64` entry stream the distributed driver
//!   exchanges in its Allgatherv step (and the v3 file stores), with its
//!   checksummed frame.
//! * [`legacy`] — the read-only decoder of the JEMIDX v4 table blob.
//! * [`hits`] — the lazy-update hit counter array `A[1..n]` of `(count,
//!   query-id)` tuples (paper §III-C implementation notes), plus the naive
//!   reset-per-query counter it replaces, kept for tests and ablations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod flat;
pub mod hits;
pub mod legacy;
pub mod par;
pub mod probe;
pub mod stream;

pub use builder::{build_table_parallel_scheme, build_table_with, TableBuilder};
pub use flat::{FlatError, FlatTable, WordSource};
pub use hits::{HitCounter, HitStats, LazyHitCounter, NaiveHitCounter};
pub use par::{default_lanes, par_map};
pub use probe::{BestHit, ProbeScratch, Ranking, SlotFilter, TrialSink};
pub use stream::{checksum_continue, checksum_words, fnv1a64, DecodeError, SubjectId};
