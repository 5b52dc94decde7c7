//! The BSP world: supersteps, collectives, and timing capture.

use crate::cost::CostModel;
use crate::fault::{FaultKind, FaultPlan, FaultStats, RankOutcome};
use crate::report::{RunReport, StepKind, StepReport};
use std::time::Instant;

/// Partition `n` items into `p` contiguous blocks; returns the half-open
/// item range of block `rank` (the block distribution of step S1). Blocks
/// cover `0..n` exactly and differ in size by at most one item.
///
/// This is the one definition of the block formula — [`World::block_range`]
/// and the distributed drivers all delegate here.
pub fn block_range(p: usize, n: usize, rank: usize) -> std::ops::Range<usize> {
    debug_assert!(p >= 1 && rank < p);
    let base = n / p;
    let extra = n % p;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    start..(start + len).min(n)
}

/// How supersteps execute on the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Ranks run back-to-back on the calling thread. Per-rank timings are
    /// exact even on a single-core host (the default, and what the
    /// experiment harness uses).
    Sequential,
    /// Ranks run on OS threads via `std::thread::scope`. Faster on
    /// multi-core hosts, but per-rank wall-clock measurements are inflated
    /// when ranks outnumber cores.
    Threaded,
}

/// A simulated distributed-memory machine of `p` ranks.
///
/// A program interacts with the world in bulk-synchronous phases:
///
/// ```
/// use jem_psim::{CostModel, World};
///
/// let mut world = World::new(4, CostModel::ethernet_10g());
/// // S2-style compute: each rank produces a local value.
/// let locals: Vec<Vec<u64>> = world.superstep("square", |rank| {
///     vec![(rank * rank) as u64]
/// });
/// // S3-style collective: everyone receives the concatenation.
/// let global = world.allgatherv("gather", locals);
/// assert_eq!(global, vec![0, 1, 4, 9]);
/// let report = world.into_report();
/// assert_eq!(report.ranks, 4);
/// assert!(report.comm_secs() > 0.0);
/// ```
#[derive(Debug)]
pub struct World {
    p: usize,
    cost: CostModel,
    mode: ExecMode,
    steps: Vec<StepReport>,
    faults: FaultPlan,
    alive: Vec<bool>,
    stats: FaultStats,
}

impl World {
    /// A world of `p` ranks executing sequentially.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize, cost: CostModel) -> Self {
        assert!(p >= 1, "world needs at least one rank");
        World {
            p,
            cost,
            mode: ExecMode::Sequential,
            steps: Vec::new(),
            faults: FaultPlan::none(),
            alive: vec![true; p],
            stats: FaultStats::default(),
        }
    }

    /// Select the execution mode (see [`ExecMode`]).
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Install a fault plan. Faults fire only in [`World::superstep_faulty`]
    /// steps; the collectives, [`World::superstep`] and
    /// [`World::superstep_replicated`] ignore the plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The installed fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Number of ranks `p`.
    pub fn ranks(&self) -> usize {
        self.p
    }

    /// Is `rank` still alive (i.e. has it not crashed)?
    pub fn is_alive(&self, rank: usize) -> bool {
        self.alive[rank]
    }

    /// Ranks still alive, ascending.
    pub fn alive_ranks(&self) -> Vec<usize> {
        (0..self.p).filter(|&r| self.alive[r]).collect()
    }

    /// Fault counters accumulated so far (also carried on the final
    /// [`RunReport`]).
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// The communication cost model in effect.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Partition `n` items across ranks in contiguous blocks; returns the
    /// half-open item range of `rank` (block distribution of step S1).
    /// Delegates to the free [`block_range`] function.
    pub fn block_range(&self, n: usize, rank: usize) -> std::ops::Range<usize> {
        block_range(self.p, n, rank)
    }

    /// Record a compute step (`per_rank_secs`, no traffic) or a collective
    /// (`comm_secs` for `bytes`), and report it to the process-global
    /// metrics recorder (free when none is installed). A world running
    /// under `--metrics` thus surfaces its simulated per-step breakdown
    /// live, in the same snapshot as the shared-memory pipeline's spans.
    fn record(&mut self, name: &str, kind: StepKind, per_rank_secs: Vec<f64>, bytes: usize) {
        let comm_secs = match kind {
            StepKind::Compute => 0.0,
            StepKind::Communication => self.cost.collective_cost(self.p, bytes),
        };
        let step = StepReport {
            name: name.to_string(),
            kind,
            per_rank_secs,
            comm_secs,
            bytes,
        };
        let rec = jem_obs::recorder();
        if rec.enabled() {
            crate::report::record_step(&step, rec);
        }
        self.steps.push(step);
    }

    /// Evaluate `f(rank)` for every rank with `run[rank]`, timing each;
    /// `None` for the others. Rank-ordered. Threaded mode gives each rank
    /// its own thread (a simulated rank is a process) and reads the results
    /// from the join handles in rank order; a rank's panic is re-raised.
    fn run_ranks<T: Send>(
        &self,
        run: &[bool],
        f: &(impl Fn(usize) -> T + Sync),
    ) -> Vec<Option<(T, f64)>> {
        let timed = |rank: usize| {
            let t0 = Instant::now();
            let out = f(rank);
            (out, t0.elapsed().as_secs_f64())
        };
        let ranks = run.iter().enumerate();
        match self.mode {
            ExecMode::Sequential => ranks.map(|(rank, &go)| go.then(|| timed(rank))).collect(),
            ExecMode::Threaded => std::thread::scope(|scope| {
                let handles: Vec<_> = ranks
                    .map(|(rank, &go)| go.then(|| scope.spawn(move || timed(rank))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))))
                    .collect()
            }),
        }
    }

    /// Run one superstep: rank `r` evaluates `f(r)`; per-rank compute time
    /// is recorded. Returns the rank-ordered outputs.
    pub fn superstep<T: Send>(&mut self, name: &str, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let (outputs, per_rank) = self
            .run_ranks(&vec![true; self.p], &f)
            .into_iter()
            .map(|slot| slot.expect("every rank runs"))
            .unzip();
        self.record(name, StepKind::Compute, per_rank, 0);
        outputs
    }

    /// Run one superstep under the installed fault plan: rank `r` evaluates
    /// `f(r)` unless it is dead or crashes, and faults surface as values —
    /// never as host panics.
    ///
    /// Semantics per rank:
    ///
    /// * already dead (crashed earlier) → [`RankOutcome::Failed`], no time
    ///   charged;
    /// * `Crash` scheduled here → the rank dies *at step start* (fail-stop):
    ///   `f` is not run, no time is charged, the rank stays dead for the
    ///   rest of the run, outcome `Failed`;
    /// * `Straggle { factor }` → `f` runs, its measured time × `factor` is
    ///   charged (the degraded makespan shows up in the report), outcome
    ///   `Ok`;
    /// * `Corrupt` → `f` runs and is charged normally, outcome
    ///   [`RankOutcome::Corrupt`] carrying the pristine value — the caller
    ///   garbles it at the delivery boundary (see
    ///   [`crate::fault::corrupt_u64s`]);
    /// * no fault → outcome `Ok`.
    pub fn superstep_faulty<T: Send>(
        &mut self,
        name: &str,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<RankOutcome<T>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Fate {
            Dead,
            Crash,
            Run { corrupt: bool, factor: f64 },
        }
        let fates: Vec<Fate> = (0..self.p)
            .map(|rank| {
                if !self.alive[rank] {
                    Fate::Dead
                } else {
                    match self.faults.fault_for(name, rank) {
                        Some(FaultKind::Crash) => Fate::Crash,
                        Some(FaultKind::Corrupt) => Fate::Run {
                            corrupt: true,
                            factor: 1.0,
                        },
                        Some(FaultKind::Straggle { factor }) => Fate::Run {
                            corrupt: false,
                            factor,
                        },
                        None => Fate::Run {
                            corrupt: false,
                            factor: 1.0,
                        },
                    }
                }
            })
            .collect();
        for (rank, fate) in fates.iter().enumerate() {
            if *fate == Fate::Crash {
                self.alive[rank] = false;
                self.stats.crashes += 1;
                jem_obs::add("psim.crashes", 1);
            }
        }

        // Run `f` for every rank that survives the step; `None` elsewhere.
        let run: Vec<bool> = fates
            .iter()
            .map(|fate| matches!(fate, Fate::Run { .. }))
            .collect();
        let raw = self.run_ranks(&run, &f);

        let mut outcomes = Vec::with_capacity(self.p);
        let mut per_rank = Vec::with_capacity(self.p);
        for (fate, slot) in fates.into_iter().zip(raw) {
            match (fate, slot) {
                (Fate::Run { corrupt, factor }, Some((out, dt))) => {
                    if factor != 1.0 {
                        self.stats.straggles += 1;
                        jem_obs::add("psim.straggles", 1);
                    }
                    per_rank.push(dt * factor);
                    if corrupt {
                        self.stats.corrupt_payloads += 1;
                        jem_obs::add("psim.corrupt_payloads", 1);
                        outcomes.push(RankOutcome::Corrupt(out));
                    } else {
                        outcomes.push(RankOutcome::Ok(out));
                    }
                }
                _ => {
                    per_rank.push(0.0);
                    outcomes.push(RankOutcome::Failed);
                }
            }
        }
        self.record(name, StepKind::Compute, per_rank, 0);
        outcomes
    }

    /// Run a computation that every rank would perform *identically* (e.g.
    /// decoding a replicated table after an allgather): `f` executes once,
    /// and its measured time is charged to every rank. Equivalent to a
    /// superstep of `p` identical closures, minus the redundant execution.
    pub fn superstep_replicated<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.record(name, StepKind::Compute, vec![dt; self.p], 0);
        out
    }

    /// `MPI_Allgatherv`: every rank contributes a variable-length vector;
    /// every rank ends with the rank-ordered concatenation. Returns that
    /// concatenation once (all ranks would hold identical copies).
    ///
    /// Charged bytes: the full payload (`Σ_r |local_r| · sizeof(T)`), the
    /// same `O(μ·nT)` volume the paper's analysis charges step S3.
    pub fn allgatherv<T: Send>(&mut self, name: &str, locals: Vec<Vec<T>>) -> Vec<T> {
        assert_eq!(locals.len(), self.p, "one contribution per rank required");
        let total: usize = locals.iter().map(Vec::len).sum();
        self.charge_comm(name, total * std::mem::size_of::<T>());
        let mut out = Vec::with_capacity(total);
        for l in locals {
            out.extend(l);
        }
        out
    }

    /// Record an explicitly-sized communication event (for payloads whose
    /// wire size `size_of` cannot see, e.g. nested vectors).
    pub fn charge_comm(&mut self, name: &str, bytes: usize) {
        self.record(name, StepKind::Communication, Vec::new(), bytes);
    }

    /// Finish the run and return its timing report.
    pub fn into_report(self) -> RunReport {
        RunReport {
            steps: self.steps,
            ranks: self.p,
            fault_stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        World::new(0, CostModel::zero());
    }

    #[test]
    fn block_range_covers_exactly() {
        for p in [1usize, 2, 3, 7, 64] {
            for n in [0usize, 1, 5, 64, 100, 1001] {
                let w = World::new(p, CostModel::zero());
                let mut covered = 0;
                let mut prev_end = 0;
                for r in 0..p {
                    let range = w.block_range(n, r);
                    assert_eq!(range.start, prev_end, "ranges must be contiguous");
                    prev_end = range.end;
                    covered += range.len();
                    // Balance: block sizes differ by at most 1.
                    assert!(range.len() <= n / p + 1);
                }
                assert_eq!(covered, n, "p={p} n={n}");
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn block_range_more_ranks_than_items() {
        // p > n: the first n ranks get one item each, the rest get empty
        // ranges — never a panic, never an out-of-bounds start.
        let p = 10;
        for n in [0usize, 1, 3, 9] {
            for r in 0..p {
                let range = block_range(p, n, r);
                assert!(range.start <= range.end, "p={p} n={n} r={r}");
                assert!(range.end <= n, "p={p} n={n} r={r}");
                assert_eq!(range.len(), usize::from(r < n), "p={p} n={n} r={r}");
            }
        }
    }

    #[test]
    fn block_range_zero_items_all_empty() {
        for p in [1usize, 2, 7] {
            for r in 0..p {
                assert!(block_range(p, 0, r).is_empty());
            }
        }
    }

    #[test]
    fn block_range_last_rank_takes_short_remainder() {
        // n = 10 over p = 4: sizes 3,3,2,2 — the extra items go to the
        // lowest ranks and the last rank ends exactly at n.
        let sizes: Vec<usize> = (0..4).map(|r| block_range(4, 10, r).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(block_range(4, 10, 3).end, 10);
        // Single rank owns everything.
        assert_eq!(block_range(1, 10, 0), 0..10);
    }

    #[test]
    fn superstep_outputs_in_rank_order() {
        let mut w = World::new(5, CostModel::zero());
        let out = w.superstep("id", |r| r * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        let report = w.into_report();
        assert_eq!(report.steps.len(), 1);
        assert_eq!(report.steps[0].per_rank_secs.len(), 5);
    }

    #[test]
    fn threaded_superstep_matches_sequential() {
        let mut seq = World::new(8, CostModel::zero());
        let a = seq.superstep("sq", |r| r * r);
        let mut thr = World::new(8, CostModel::zero()).with_mode(ExecMode::Threaded);
        let b = thr.superstep("sq", |r| r * r);
        assert_eq!(a, b);
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order() {
        let mut w = World::new(3, CostModel::ethernet_10g());
        let locals = vec![vec![1u64, 2], vec![], vec![3]];
        let global = w.allgatherv("g", locals);
        assert_eq!(global, vec![1, 2, 3]);
        let report = w.into_report();
        assert_eq!(report.total_bytes(), 3 * 8);
        assert!(report.comm_secs() > 0.0);
    }

    #[test]
    #[should_panic(expected = "one contribution per rank")]
    fn allgatherv_requires_p_contributions() {
        let mut w = World::new(3, CostModel::zero());
        w.allgatherv("g", vec![vec![1u8]]);
    }

    #[test]
    fn single_rank_comm_is_free() {
        let mut w = World::new(1, CostModel::ethernet_10g());
        let g = w.allgatherv("g", vec![vec![0u64; 1_000_000]]);
        assert_eq!(g.len(), 1_000_000);
        let r = w.into_report();
        assert_eq!(r.comm_secs(), 0.0, "p=1 has no network");
        assert_eq!(r.comm_fraction(), 0.0);
    }

    #[test]
    fn replicated_superstep_charges_all_ranks() {
        let mut w = World::new(4, CostModel::zero());
        let v = w.superstep_replicated("decode", || 42);
        assert_eq!(v, 42);
        let r = w.into_report();
        assert_eq!(r.steps[0].per_rank_secs.len(), 4);
        let t = r.steps[0].per_rank_secs[0];
        assert!(r.steps[0].per_rank_secs.iter().all(|&x| x == t));
    }

    #[test]
    fn faulty_superstep_without_plan_equals_plain() {
        let mut w = World::new(4, CostModel::zero());
        let out = w.superstep_faulty("id", |r| r * 10);
        assert_eq!(
            out,
            vec![
                RankOutcome::Ok(0),
                RankOutcome::Ok(10),
                RankOutcome::Ok(20),
                RankOutcome::Ok(30)
            ]
        );
        assert_eq!(w.alive_ranks(), vec![0, 1, 2, 3]);
        assert!(!w.fault_stats().any());
    }

    #[test]
    fn crashed_rank_stays_dead() {
        let plan = FaultPlan::none().with_crash("a", 1);
        let mut w = World::new(3, CostModel::zero()).with_faults(plan);
        let a = w.superstep_faulty("a", |r| r);
        assert_eq!(
            a,
            vec![RankOutcome::Ok(0), RankOutcome::Failed, RankOutcome::Ok(2)]
        );
        assert!(!w.is_alive(1));
        // Dead at every later step, even ones the plan never names.
        let b = w.superstep_faulty("b", |r| r);
        assert_eq!(b[1], RankOutcome::Failed);
        assert_eq!(w.alive_ranks(), vec![0, 2]);
        let report = w.into_report();
        assert_eq!(report.fault_stats.crashes, 1);
        // The dead rank is charged no time.
        assert_eq!(report.steps[1].per_rank_secs[1], 0.0);
    }

    #[test]
    fn corrupt_outcome_carries_value() {
        let plan = FaultPlan::none().with_corrupt("enc", 0);
        let mut w = World::new(2, CostModel::zero()).with_faults(plan);
        let out = w.superstep_faulty("enc", |r| vec![r as u64]);
        assert_eq!(out[0], RankOutcome::Corrupt(vec![0]));
        assert_eq!(out[1], RankOutcome::Ok(vec![1]));
        assert_eq!(w.fault_stats().corrupt_payloads, 1);
    }

    #[test]
    fn straggler_time_is_inflated() {
        let plan = FaultPlan::none().with_straggle("work", 1, 1000.0);
        let mut w = World::new(2, CostModel::zero()).with_faults(plan);
        w.superstep_faulty("work", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let r = w.into_report();
        assert_eq!(r.fault_stats.straggles, 1);
        let times = &r.steps[0].per_rank_secs;
        assert!(
            times[1] > times[0] * 50.0,
            "straggler must dominate: {times:?}"
        );
    }

    #[test]
    fn threaded_faulty_superstep_matches_sequential() {
        let plan = FaultPlan::none().with_crash("sq", 2).with_corrupt("sq", 0);
        let mut seq = World::new(4, CostModel::zero()).with_faults(plan.clone());
        let a = seq.superstep_faulty("sq", |r| r * r);
        let mut thr = World::new(4, CostModel::zero())
            .with_mode(ExecMode::Threaded)
            .with_faults(plan);
        let b = thr.superstep_faulty("sq", |r| r * r);
        assert_eq!(a, b);
        assert_eq!(seq.alive_ranks(), thr.alive_ranks());
    }

    #[test]
    fn makespan_accumulates_steps() {
        let mut w = World::new(
            2,
            CostModel {
                latency_s: 1.0,
                sec_per_byte: 0.0,
            },
        );
        w.superstep("work", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        w.charge_comm("sync", 0);
        let r = w.into_report();
        // One collective at p=2 costs τ·log2(2) = 1s; compute adds ≥2 ms.
        assert!(r.makespan_secs() > 1.0);
        assert!(r.compute_secs() >= 0.002);
        assert!((r.comm_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn strong_scaling_shape_on_synthetic_work() {
        // Critical path of an evenly-divided workload must shrink with p.
        let busy = |units: usize| {
            // Deterministic spin so timings are meaningful on any host.
            let mut acc = 0u64;
            for i in 0..units * 20_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
            }
            acc
        };
        let mut spans = Vec::new();
        for p in [1usize, 2, 4, 8] {
            let mut w = World::new(p, CostModel::zero());
            w.superstep("work", |rank| {
                let range = w_block(p, 64, rank);
                busy(range.len())
            });
            spans.push(w.into_report().makespan_secs());
        }
        // Each doubling of p should cut the critical path substantially.
        assert!(spans[3] < spans[0] * 0.5, "spans: {spans:?}");

        fn w_block(p: usize, n: usize, rank: usize) -> std::ops::Range<usize> {
            World::new(p, CostModel::zero()).block_range(n, rank)
        }
    }
}
