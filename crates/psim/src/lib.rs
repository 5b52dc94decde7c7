//! # jem-psim — a bulk-synchronous process simulator
//!
//! The paper evaluates JEM-mapper with MPI on a 9-node cluster. This crate
//! substitutes that testbed with a *simulated* distributed-memory machine so
//! the strong-scaling experiments (Table II, Figs. 7–8) can be reproduced on
//! any host, including a single-core one:
//!
//! * A [`World`] of `p` ranks executes **supersteps**. Each rank's work for a
//!   superstep runs as ordinary Rust code and its compute time is measured
//!   individually (ranks execute back-to-back by default, so measurements
//!   are not distorted by oversubscription; a threaded executor is available
//!   for hosts with enough cores).
//! * **Collectives** ([`World::allgatherv`]; [`World::charge_comm`] when
//!   the caller states the wire size) move values between ranks and
//!   charge *virtual* communication time from a [`CostModel`] — the
//!   `τ·log p + μ·bytes` LogP-style model the paper itself uses for its
//!   complexity analysis (§III-C-1).
//! * The [`RunReport`] exposes per-step per-rank compute times, per-collective
//!   communication times, and the **simulated makespan**
//!   `Σ_steps (max_rank compute) + Σ collectives comm` — exactly the quantity
//!   a bulk-synchronous MPI program's wall clock converges to.
//!
//! The simulation is *work-conserving*: every byte a collective moves and
//! every instruction a rank executes is really moved/executed; only the
//! notion of them happening concurrently is modeled.

//!
//! ## Fault injection
//!
//! A [`FaultPlan`] schedules deterministic faults — fail-stop crashes,
//! corrupted payloads, stragglers — at `(superstep, rank)` coordinates.
//! [`World::superstep_faulty`] surfaces them as [`RankOutcome`] values
//! (never host panics) and charges straggler delays to the report, so a
//! recovering driver can be tested against degraded machines while the
//! [`RunReport`] shows the degraded makespan and the
//! [`FaultStats`] recovery counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod fault;
pub mod report;
pub mod world;

pub use cost::CostModel;
pub use fault::{corrupt_u64s, Fault, FaultKind, FaultPlan, FaultStats, RankOutcome};
pub use report::{step_span_path, RunReport, StepKind, StepReport};
pub use world::{block_range, ExecMode, World};
