//! The distributed-memory driver — the paper's parallel steps S1–S4 on the
//! `jem-psim` BSP world, recovering from the faults of a [`FaultPlan`].
//!
//! | Step | Paper | Here |
//! |------|-------|------|
//! | S1 | block-distributed input load | superstep `"input load"` — each rank materializes its `O((N+M)/p)` block |
//! | S2 | local subject sketching | superstep `"subject sketch"` — per-rank sorted entries, encoded to `u64` streams |
//! | S3 | `MPI_Allgatherv` of local tables | collective `"sketch gather"` (charged `τ·log p + μ·nT` bytes) + replicated `"global table build"` (decode, sort, write — identical on every rank) |
//! | S4 | local query mapping | superstep `"query map"` — each rank segments and maps its S1 read block against the replicated global table |
//!
//! A final `"result gather"` collective collects the mappings (small).
//!
//! Because the world is simulated, running with `p = 64` on a single-core
//! host still yields faithful per-rank work decomposition; the simulated
//! makespan is what Table II reports.
//!
//! ## Recovery
//!
//! Every work unit is one of the `p` S1 *blocks* (block `b` is what the
//! fault-free run gives rank `b`), so the output does not depend on which
//! rank ends up computing which block. One loop runs the blocks of every
//! step under the plan:
//!
//! * **Crashes** — a rank that dies takes its blocks with it; the pending
//!   blocks are reassigned round-robin over the surviving ranks and
//!   replayed in a `"<step> retry n"` superstep, at most
//!   [`ResilienceOptions::max_retries`] times.
//! * **Corruption** — S1 and S4 redo a block whose result arrived
//!   garbled. S2 delivers its garbled stream: when the plan schedules any
//!   `Corrupt` fault, the streams travel framed and checksummed
//!   ([`TableBuilder::encode_framed`]), a damaged frame fails its atomic
//!   decode, adds nothing, and is re-requested (`"sketch re-request n"`).
//!   Fault-free and crash-only runs send the paper's unframed streams, so
//!   their S3 cost is the paper's.
//! * **Stragglers** — need no recovery; their inflated compute time simply
//!   degrades the simulated makespan.
//! * **Checkpoint** — after the gather barrier the replicated index can be
//!   written as a JEMIDX v5 file; a later run pointed at the same file
//!   loads only the read half of S1 and skips S2–S3 (a corrupt or
//!   mismatched checkpoint is ignored, never trusted).
//!
//! Invariant: any plan that leaves at least one rank alive yields the
//! mappings of the sequential [`JemMapper::map_reads`], sorted. This holds
//! because the table is written from sorted, deduplicated entries (so the
//! union of streams is order-independent) and the mappings are finally
//! sorted by `(read_idx, end)`.

use crate::config::MapperConfig;
use crate::mapper::{JemMapper, Mapping};
use crate::persist::{load_index, save_index};
use crate::segment::make_segments;
use jem_index::{SubjectId, TableBuilder};
use jem_psim::{
    block_range, corrupt_u64s, CostModel, ExecMode, FaultKind, FaultPlan, RankOutcome, RunReport,
    World,
};
use jem_seq::{SeqError, SeqRecord};
use jem_sketch::{sketch_by_jem_into, JemSketch, SketchScratch};
use std::fmt;
use std::path::PathBuf;

/// Result of a distributed run: mappings plus full timing.
#[derive(Clone, Debug)]
pub struct DistributedOutcome {
    /// All mappings, ordered by `(read_idx, end)`.
    pub mappings: Vec<Mapping>,
    /// BSP timing report (simulated makespan, per-step, per-rank, faults).
    pub report: RunReport,
    /// Total number of query segments processed.
    pub n_segments: usize,
}

impl DistributedOutcome {
    /// Fig. 7a-style breakdown of the run.
    pub fn breakdown(&self) -> StepBreakdown {
        StepBreakdown {
            input_load: self.report.step_secs("input load"),
            subject_sketch: self.report.step_secs("subject sketch"),
            sketch_gather: self.report.step_secs("sketch gather"),
            table_build: self.report.step_secs("global table build"),
            query_map: self.report.step_secs("query map"),
            result_gather: self.report.step_secs("result gather"),
        }
    }

    /// Querying throughput (segments/sec over the critical-path query time),
    /// the paper's Fig. 7b metric.
    pub fn query_throughput(&self) -> f64 {
        let t = self.report.step_secs("query map");
        if t == 0.0 {
            0.0
        } else {
            self.n_segments as f64 / t
        }
    }
}

/// Critical-path seconds per pipeline step (Fig. 7a).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepBreakdown {
    /// S1: input loading.
    pub input_load: f64,
    /// S2: subject sketching.
    pub subject_sketch: f64,
    /// S3 (comm): the Allgatherv.
    pub sketch_gather: f64,
    /// S3 (compute): building the replicated global table.
    pub table_build: f64,
    /// S4: query sketching + lookup + reporting.
    pub query_map: f64,
    /// Final result collection.
    pub result_gather: f64,
}

impl StepBreakdown {
    /// Total of all steps (≈ makespan of a fault-free run).
    pub fn total(&self) -> f64 {
        self.input_load
            + self.subject_sketch
            + self.sketch_gather
            + self.table_build
            + self.query_map
            + self.result_gather
    }
}

/// Fault plan and recovery knobs of [`run_distributed`].
#[derive(Clone, Debug)]
pub struct ResilienceOptions {
    /// Faults to inject (the default plan injects none).
    pub plan: FaultPlan,
    /// Retry supersteps allowed per pipeline step before giving up.
    pub max_retries: usize,
    /// Write the replicated index here after the sketch-gather barrier; if
    /// the file already holds a matching index, S2–S3 are skipped.
    pub checkpoint: Option<PathBuf>,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            plan: FaultPlan::none(),
            max_retries: 3,
            checkpoint: None,
        }
    }
}

/// Unrecoverable failure of a distributed run.
#[derive(Debug)]
pub enum ResilienceError {
    /// Every rank crashed — nobody is left to reassign work to.
    AllRanksFailed {
        /// Pipeline step at which the last rank died.
        step: String,
    },
    /// A step kept failing past [`ResilienceOptions::max_retries`].
    RetriesExhausted {
        /// Pipeline step that could not complete.
        step: String,
        /// Attempts made (initial + retries).
        attempts: usize,
    },
    /// The checkpoint file could not be written.
    Checkpoint(SeqError),
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::AllRanksFailed { step } => {
                write!(
                    f,
                    "all ranks failed at step {step:?}; no survivor to recover on"
                )
            }
            ResilienceError::RetriesExhausted { step, attempts } => {
                write!(
                    f,
                    "step {step:?} still incomplete after {attempts} attempts"
                )
            }
            ResilienceError::Checkpoint(e) => write!(f, "checkpoint write failed: {e}"),
        }
    }
}

impl std::error::Error for ResilienceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilienceError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

/// The world plus the driver-side recovery tallies, merged into the
/// report's `FaultStats` when the run ends.
struct Driver {
    world: World,
    max_retries: usize,
    retries: usize,
    reassigned: usize,
    re_requests: usize,
}

impl Driver {
    /// The block retry loop: evaluate `work(b)` for every block `b` of
    /// `blocks` under the fault plan, reassigning the blocks of failed
    /// ranks to survivors until each has a result. `garbled(b, value)`
    /// says what a corrupted delivery of block `b` becomes: `Some` is
    /// delivered (the receiver detects the damage), `None` redoes the
    /// block. Results come back in the order of `blocks`.
    fn run_blocks<T: Send>(
        &mut self,
        step: &str,
        blocks: &[usize],
        work: impl Fn(usize) -> T + Sync,
        garbled: impl Fn(usize, T) -> Option<T>,
    ) -> Result<Vec<T>, ResilienceError> {
        let mut done: Vec<Option<T>> = blocks.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = (0..blocks.len()).collect();
        let mut attempt = 0usize;
        while !pending.is_empty() {
            if attempt > self.max_retries {
                return Err(ResilienceError::RetriesExhausted {
                    step: step.to_string(),
                    attempts: attempt,
                });
            }
            let alive = self.world.alive_ranks();
            if alive.is_empty() {
                return Err(ResilienceError::AllRanksFailed {
                    step: step.to_string(),
                });
            }
            // Round-robin over survivors; with everyone alive and all
            // blocks pending this is the identity assignment (b → rank b).
            let mut assign: Vec<Vec<usize>> = vec![Vec::new(); self.world.ranks()];
            for (i, &j) in pending.iter().enumerate() {
                assign[alive[i % alive.len()]].push(j);
            }
            let name = if attempt == 0 {
                step.to_string()
            } else {
                self.retries += 1;
                self.reassigned += pending.len();
                format!("{step} retry {attempt}")
            };
            let outcomes = self.world.superstep_faulty(&name, |rank| {
                assign[rank]
                    .iter()
                    .map(|&j| work(blocks[j]))
                    .collect::<Vec<T>>()
            });
            let mut still = Vec::new();
            for (outcome, mine) in outcomes.into_iter().zip(&assign) {
                let (values, corrupt) = match outcome {
                    RankOutcome::Ok(values) => (values, false),
                    RankOutcome::Corrupt(values) => (values, true),
                    RankOutcome::Failed => {
                        still.extend(mine);
                        continue;
                    }
                };
                for (&j, value) in mine.iter().zip(values) {
                    let delivered = if corrupt {
                        garbled(blocks[j], value)
                    } else {
                        Some(value)
                    };
                    match delivered {
                        Some(value) => done[j] = Some(value),
                        None => still.push(j),
                    }
                }
            }
            pending = still;
            attempt += 1;
        }
        Ok(done
            .into_iter()
            .map(|o| o.expect("loop exits only when all blocks are done"))
            .collect())
    }
}

/// Try to resume from a checkpoint: the file must load, and must describe
/// exactly this run's configuration and subject set. Anything else —
/// missing file, corrupt frame, stale contigs — means "compute from
/// scratch"; a checkpoint is an optimization, never an authority.
fn try_resume(
    path: &std::path::Path,
    subjects: &[SeqRecord],
    config: &MapperConfig,
) -> Option<JemMapper> {
    let mut file = std::fs::File::open(path).ok()?;
    let mapper = load_index(&mut file).ok()?;
    if mapper.config() != config || mapper.n_subjects() != subjects.len() {
        return None;
    }
    let names_match = subjects
        .iter()
        .enumerate()
        .all(|(i, s)| mapper.subject_name(i as SubjectId) == s.id);
    names_match.then_some(mapper)
}

/// Run the distributed L2C mapping on `p` simulated ranks under
/// `opts.plan`, recovering from crashes and corrupted payloads.
///
/// With [`ResilienceOptions::default`] the report holds exactly the six
/// paper steps (`input load`, `subject sketch`, `sketch gather`,
/// `global table build`, `query map`, `result gather`). Under any plan
/// that leaves at least one rank alive the mappings equal the fault-free
/// run's, and the report's fault counters record the recovery work.
pub fn run_distributed(
    subjects: &[SeqRecord],
    reads: &[SeqRecord],
    config: &MapperConfig,
    p: usize,
    cost: CostModel,
    mode: ExecMode,
    opts: &ResilienceOptions,
) -> Result<DistributedOutcome, ResilienceError> {
    let params = config.jem_params().expect("invalid mapper configuration");
    let family = config.hash_family();
    let mut d = Driver {
        world: World::new(p, cost)
            .with_mode(mode)
            .with_faults(opts.plan.clone()),
        max_retries: opts.max_retries,
        retries: 0,
        reassigned: 0,
        re_requests: 0,
    };
    let all: Vec<usize> = (0..p).collect();
    let resumed = opts
        .checkpoint
        .as_deref()
        .and_then(|path| try_resume(path, subjects, config));

    // S1 — input load: each block is a byte copy of its share of both
    // inputs (standing in for FASTA parsing). A resumed run loads only
    // the reads.
    let blocks: Vec<(Vec<SeqRecord>, Vec<SeqRecord>)> = d.run_blocks(
        "input load",
        &all,
        |b| {
            let local_subjects = if resumed.is_some() {
                Vec::new()
            } else {
                subjects[block_range(p, subjects.len(), b)].to_vec()
            };
            (
                local_subjects,
                reads[block_range(p, reads.len(), b)].to_vec(),
            )
        },
        |_, _| None,
    )?;

    let mapper = match resumed {
        Some(mapper) => mapper,
        None => {
            // S2 — each block sketches its subjects into one stream over
            // global subject ids, framed and checksummed only when the
            // plan can corrupt it.
            let seed = opts.plan.corruption_seed();
            let framed = opts
                .plan
                .faults()
                .iter()
                .any(|f| f.kind == FaultKind::Corrupt);
            let sketch = |b: usize| {
                let first = block_range(p, subjects.len(), b).start;
                let mut local = TableBuilder::new(config.trials);
                let mut scratch = SketchScratch::new();
                let mut sketch = JemSketch::default();
                for (offset, rec) in blocks[b].0.iter().enumerate() {
                    sketch_by_jem_into(&rec.seq, params, &family, &mut scratch, &mut sketch);
                    local.push_sketch(&sketch.per_trial, (first + offset) as SubjectId);
                }
                if framed {
                    local.encode_framed()
                } else {
                    local.encode()
                }
            };
            // A corrupt-flagged stream is garbled at the delivery
            // boundary, like wire damage; detection is the decoder's job.
            // Each re-request round varies the damage so a repeated fault
            // does not replay byte-identical garbage.
            let garble = |round: u64| {
                move |b: usize, mut stream: Vec<u64>| {
                    corrupt_u64s(&mut stream, seed ^ (b as u64) ^ (round << 32));
                    Some(stream)
                }
            };
            let streams = d.run_blocks("subject sketch", &all, sketch, garble(0))?;

            // S3 — charge the Allgatherv volume, then build the replicated
            // global table (identical decode, sort and write on every rank;
            // one lane, as one rank would). A stream that fails to decode
            // adds nothing and is re-requested; the sort and write then
            // wait for the re-requests.
            let wire_bytes = |streams: &[Vec<u64>]| streams.iter().map(Vec::len).sum::<usize>() * 8;
            d.world.charge_comm("sketch gather", wire_bytes(&streams));
            let decodes = |g: &mut TableBuilder, stream: &[u64]| {
                if framed {
                    g.decode_framed_into(stream).is_ok()
                } else {
                    g.decode_into(stream).is_ok()
                }
            };
            let finish = |g: TableBuilder| {
                g.finish(1)
                    .expect("sketch table exceeds the v5 index layout")
            };
            let mut bad = Vec::new();
            let built = d.world.superstep_replicated("global table build", || {
                let mut g = TableBuilder::new(config.trials);
                for (b, stream) in streams.iter().enumerate() {
                    if !decodes(&mut g, stream) {
                        bad.push(b);
                    }
                }
                if bad.is_empty() {
                    Ok(finish(g))
                } else {
                    Err(g)
                }
            });
            let table = match built {
                Ok(table) => table,
                Err(mut g) => {
                    let mut round = 0;
                    while !bad.is_empty() {
                        round += 1;
                        if round > opts.max_retries {
                            return Err(ResilienceError::RetriesExhausted {
                                step: "sketch re-request".to_string(),
                                attempts: round - 1,
                            });
                        }
                        d.re_requests += bad.len();
                        let step = format!("sketch re-request {round}");
                        let resent = d.run_blocks(&step, &bad, sketch, garble(round as u64))?;
                        d.world
                            .charge_comm("sketch re-request comm", wire_bytes(&resent));
                        bad = bad
                            .into_iter()
                            .zip(&resent)
                            .filter(|(_, stream)| !decodes(&mut g, stream))
                            .map(|(b, _)| b)
                            .collect();
                    }
                    d.world
                        .superstep_replicated("global table build", || finish(g))
                }
            };
            let subject_names = subjects.iter().map(|s| s.id.clone()).collect();
            let mapper = JemMapper::from_table(table, subject_names, config);

            // Checkpoint the replicated index past the gather barrier.
            if let Some(path) = &opts.checkpoint {
                let mut file = std::fs::File::create(path)
                    .map_err(|e| ResilienceError::Checkpoint(SeqError::from(e)))?;
                save_index(&mut file, &mapper).map_err(ResilienceError::Checkpoint)?;
            }
            mapper
        }
    };

    // S4 — each block segments and maps the reads S1 loaded for it.
    let per_block: Vec<(Vec<Mapping>, usize)> = d.run_blocks(
        "query map",
        &all,
        |b| {
            let first = block_range(p, reads.len(), b).start as u32;
            let mut segments = make_segments(&blocks[b].1, config.ell);
            // Rebase read indices from block-local to global.
            for s in segments.iter_mut() {
                s.read_idx += first;
            }
            let n = segments.len();
            (mapper.map_segments(&segments), n)
        },
        |_, _| None,
    )?;

    // Final gather of the (small) mapping output.
    let result_bytes: usize = per_block
        .iter()
        .map(|(m, _)| m.len() * std::mem::size_of::<Mapping>())
        .sum();
    d.world.charge_comm("result gather", result_bytes);

    let n_segments = per_block.iter().map(|(_, n)| n).sum();
    let mut mappings: Vec<Mapping> = per_block.into_iter().flat_map(|(m, _)| m).collect();
    mappings.sort_unstable(); // total order; see Mapping's Ord doc

    let mut report = d.world.into_report();
    report.fault_stats.retries += d.retries;
    report.fault_stats.reassigned_blocks += d.reassigned;
    report.fault_stats.re_requests += d.re_requests;
    // Mirror the recovery tallies into the metrics recorder; the fault side
    // (crashes/corruption/straggles) is already reported live by the world.
    let obs = jem_obs::recorder();
    if obs.enabled() {
        obs.add("psim.retries", d.retries as u64);
        obs.add("psim.reassigned_blocks", d.reassigned as u64);
        obs.add("psim.re_requests", d.re_requests as u64);
    }
    Ok(DistributedOutcome {
        mappings,
        report,
        n_segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_sim::{
        contig_records, fragment_contigs, read_records, simulate_hifi, ContigProfile, Genome,
        HifiProfile,
    };

    fn world_data() -> (Vec<SeqRecord>, Vec<SeqRecord>) {
        let genome = Genome::random(60_000, 0.5, 21);
        let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 22);
        let profile = HifiProfile {
            coverage: 2.0,
            mean_len: 4_000,
            std_len: 800,
            min_len: 1_000,
            error_rate: 0.001,
        };
        let reads = simulate_hifi(&genome, &profile, 23);
        (contig_records(&contigs), read_records(&reads))
    }

    fn config() -> MapperConfig {
        MapperConfig {
            k: 12,
            w: 10,
            trials: 8,
            ell: 400,
            seed: 3,
        }
    }

    /// The reference every run must reproduce: the sequential driver.
    fn sequential(subjects: &[SeqRecord], reads: &[SeqRecord]) -> Vec<Mapping> {
        let mut expected = JemMapper::build(subjects, &config()).map_reads(reads);
        expected.sort_unstable();
        expected
    }

    fn run(
        subjects: &[SeqRecord],
        reads: &[SeqRecord],
        p: usize,
        cost: CostModel,
        mode: ExecMode,
        opts: &ResilienceOptions,
    ) -> Result<DistributedOutcome, ResilienceError> {
        run_distributed(subjects, reads, &config(), p, cost, mode, opts)
    }

    /// A fault-free run.
    fn clean(
        subjects: &[SeqRecord],
        reads: &[SeqRecord],
        p: usize,
        cost: CostModel,
    ) -> DistributedOutcome {
        let opts = ResilienceOptions::default();
        run(subjects, reads, p, cost, ExecMode::Sequential, &opts).expect("no faults")
    }

    /// A run under `opts` whose plan leaves survivors.
    fn faulty(
        subjects: &[SeqRecord],
        reads: &[SeqRecord],
        p: usize,
        opts: &ResilienceOptions,
    ) -> DistributedOutcome {
        run(
            subjects,
            reads,
            p,
            CostModel::zero(),
            ExecMode::Sequential,
            opts,
        )
        .expect("plan leaves survivors, run must succeed")
    }

    fn with_plan(plan: FaultPlan) -> ResilienceOptions {
        ResilienceOptions {
            plan,
            ..Default::default()
        }
    }

    fn gather_bytes(outcome: &DistributedOutcome) -> usize {
        let steps = &outcome.report.steps;
        steps
            .iter()
            .find(|s| s.name == "sketch gather")
            .unwrap()
            .bytes
    }

    #[test]
    fn distributed_matches_sequential_for_any_p() {
        let (subjects, reads) = world_data();
        let expected = sequential(&subjects, &reads);
        for p in [1usize, 2, 3, 4, 8] {
            let outcome = clean(&subjects, &reads, p, CostModel::zero());
            assert_eq!(
                outcome.mappings, expected,
                "p = {p} must not change the result"
            );
            assert!(
                !outcome.report.fault_stats.any(),
                "no faults, no recovery work"
            );
        }
    }

    #[test]
    fn fault_free_report_holds_the_six_paper_steps_once() {
        let (subjects, reads) = world_data();
        let outcome = clean(&subjects, &reads, 4, CostModel::ethernet_10g());
        let names: Vec<&str> = outcome
            .report
            .steps
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "input load",
                "subject sketch",
                "sketch gather",
                "global table build",
                "query map",
                "result gather"
            ]
        );
        // The paper's unframed streams: the volume of the plain S3.
        assert_eq!(gather_bytes(&outcome), 62_560);
    }

    #[test]
    fn only_corrupt_plans_frame_the_sketch_streams() {
        let (subjects, reads) = world_data();
        let p = 4;
        let unframed = gather_bytes(&clean(&subjects, &reads, p, CostModel::zero()));
        let crash = with_plan(FaultPlan::none().with_crash("query map", 1));
        assert_eq!(
            gather_bytes(&faulty(&subjects, &reads, p, &crash)),
            unframed
        );
        // A `Corrupt` fault anywhere in the plan frames every stream:
        // three header words (trials, length, checksum) per block.
        let corrupt = with_plan(FaultPlan::none().with_corrupt("query map", 1));
        let outcome = faulty(&subjects, &reads, p, &corrupt);
        assert_eq!(gather_bytes(&outcome), unframed + p * 3 * 8);
        assert_eq!(outcome.mappings, sequential(&subjects, &reads));
    }

    #[test]
    fn report_contains_all_steps() {
        let (subjects, reads) = world_data();
        let outcome = clean(&subjects, &reads, 4, CostModel::ethernet_10g());
        let b = outcome.breakdown();
        assert!(b.input_load > 0.0);
        assert!(b.subject_sketch > 0.0);
        assert!(b.sketch_gather > 0.0, "gather must be charged for p > 1");
        assert!(b.table_build > 0.0);
        assert!(b.query_map > 0.0);
        assert!(outcome.n_segments > 0);
        assert!(outcome.query_throughput() > 0.0);
        // Makespan decomposes into the named steps.
        assert!((b.total() - outcome.report.makespan_secs()).abs() < 1e-9);
    }

    #[test]
    fn comm_fraction_grows_with_p_but_stays_minor() {
        let (subjects, reads) = world_data();
        let frac = |p| {
            clean(&subjects, &reads, p, CostModel::ethernet_10g())
                .report
                .comm_fraction()
        };
        let f4 = frac(4);
        let f16 = frac(16);
        assert!(
            f16 >= f4 * 0.5,
            "comm fraction should not collapse with p (f4={f4}, f16={f16})"
        );
        assert!(
            f16 < 0.5,
            "communication must stay a minority share, got {f16}"
        );
    }

    #[test]
    fn single_rank_equals_sequential_work() {
        let (subjects, reads) = world_data();
        let outcome = clean(&subjects, &reads, 1, CostModel::ethernet_10g());
        assert_eq!(outcome.report.comm_secs(), 0.0);
        assert_eq!(outcome.mappings, sequential(&subjects, &reads));
        assert!(!outcome.mappings.is_empty());
    }

    #[test]
    fn threaded_mode_matches_sequential() {
        let (subjects, reads) = world_data();
        let seq = clean(&subjects, &reads, 4, CostModel::zero());
        let opts = ResilienceOptions::default();
        let thr = run(
            &subjects,
            &reads,
            4,
            CostModel::zero(),
            ExecMode::Threaded,
            &opts,
        )
        .unwrap();
        assert_eq!(thr.mappings, sequential(&subjects, &reads));
        assert_eq!(thr.n_segments, seq.n_segments);
    }

    #[test]
    fn more_ranks_than_work_items() {
        let (subjects, reads) = world_data();
        let few_reads = &reads[..3.min(reads.len())];
        let outcome = clean(&subjects, few_reads, 64, CostModel::ethernet_10g());
        // Idle ranks are fine; results still correct.
        assert_eq!(outcome.mappings, sequential(&subjects, few_reads));
    }

    #[test]
    fn empty_inputs_are_harmless() {
        let (subjects, _) = world_data();
        let outcome = clean(&subjects, &[], 4, CostModel::ethernet_10g());
        assert!(outcome.mappings.is_empty());
        assert_eq!(outcome.n_segments, 0);
        let outcome = clean(&[], &[], 4, CostModel::ethernet_10g());
        assert!(outcome.mappings.is_empty());
    }

    #[test]
    fn strong_scaling_reduces_query_critical_path() {
        let (subjects, reads) = world_data();
        // One wall-clock sample on a shared host can double; the min over
        // repeated runs is the stable estimator, as in Table II.
        let q = |p| {
            (0..5)
                .map(|_| {
                    clean(&subjects, &reads, p, CostModel::zero())
                        .report
                        .step_secs("query map")
                })
                .fold(f64::INFINITY, f64::min)
        };
        let q1 = q(1);
        let q8 = q(8);
        assert!(
            q8 < q1 * 0.5,
            "query critical path must shrink substantially with p (q1={q1}, q8={q8})"
        );
    }

    #[test]
    fn single_crash_at_each_step_recovers() {
        let (subjects, reads) = world_data();
        let expected = sequential(&subjects, &reads);
        for p in [4usize, 8] {
            for step in ["input load", "subject sketch", "query map"] {
                let opts = with_plan(FaultPlan::none().with_crash(step, 1));
                let outcome = faulty(&subjects, &reads, p, &opts);
                assert_eq!(outcome.mappings, expected, "p = {p}, crash at {step:?}");
                let fs = outcome.report.fault_stats;
                assert_eq!(fs.crashes, 1, "p = {p}, crash at {step:?}");
                assert!(fs.retries >= 1, "crash at {step:?} must force a retry");
                assert!(fs.reassigned_blocks >= 1);
            }
        }
    }

    #[test]
    fn all_but_one_rank_may_die() {
        let (subjects, reads) = world_data();
        let expected = sequential(&subjects, &reads);
        for p in [4usize, 8] {
            let mut plan = FaultPlan::none();
            for rank in 1..p {
                plan = plan.with_crash("subject sketch", rank);
            }
            let outcome = faulty(&subjects, &reads, p, &with_plan(plan));
            assert_eq!(outcome.mappings, expected, "p = {p}, {} crashes", p - 1);
            assert_eq!(outcome.report.fault_stats.crashes, p - 1);
            assert!(outcome.report.fault_stats.reassigned_blocks >= p - 1);
        }
    }

    #[test]
    fn corrupt_sketch_stream_is_re_requested() {
        let (subjects, reads) = world_data();
        let expected = sequential(&subjects, &reads);
        for seed in [0u64, 1, 2, 3, 99] {
            let plan = FaultPlan::none()
                .with_corrupt("subject sketch", 2)
                .with_corruption_seed(seed);
            let outcome = faulty(&subjects, &reads, 4, &with_plan(plan));
            assert_eq!(outcome.mappings, expected, "corruption seed {seed}");
            let fs = outcome.report.fault_stats;
            assert_eq!(fs.corrupt_payloads, 1, "seed {seed}");
            assert_eq!(
                fs.re_requests, 1,
                "seed {seed}: bad frame must be re-fetched"
            );
        }
    }

    #[test]
    fn straggler_degrades_makespan_but_not_output() {
        let (subjects, reads) = world_data();
        let p = 4;
        let plain = clean(&subjects, &reads, p, CostModel::zero());
        let opts = with_plan(FaultPlan::none().with_straggle("subject sketch", 0, 50.0));
        let slow = faulty(&subjects, &reads, p, &opts);
        assert_eq!(slow.mappings, plain.mappings);
        assert_eq!(slow.report.fault_stats.straggles, 1);
        assert!(
            slow.report.step_secs("subject sketch") > plain.report.step_secs("subject sketch"),
            "straggler must inflate the step time"
        );
    }

    #[test]
    fn mixed_faults_across_steps() {
        let (subjects, reads) = world_data();
        let plan = FaultPlan::none()
            .with_crash("input load", 7)
            .with_crash("subject sketch", 2)
            .with_corrupt("subject sketch", 5)
            .with_straggle("query map", 1, 3.0)
            .with_crash("query map", 3);
        let outcome = faulty(&subjects, &reads, 8, &with_plan(plan));
        assert_eq!(outcome.mappings, sequential(&subjects, &reads));
        let fs = outcome.report.fault_stats;
        assert_eq!(fs.crashes, 3);
        assert_eq!(fs.corrupt_payloads, 1);
        assert_eq!(fs.straggles, 1);
        assert!(fs.retries >= 3);
        assert_eq!(fs.re_requests, 1);
    }

    #[test]
    fn threaded_mode_recovers_identically() {
        let (subjects, reads) = world_data();
        let opts = with_plan(
            FaultPlan::none()
                .with_crash("subject sketch", 0)
                .with_corrupt("query map", 2),
        );
        let outcome = run(
            &subjects,
            &reads,
            4,
            CostModel::zero(),
            ExecMode::Threaded,
            &opts,
        )
        .unwrap();
        assert_eq!(outcome.mappings, sequential(&subjects, &reads));
    }

    #[test]
    fn all_ranks_dead_is_a_value_not_a_panic() {
        let (subjects, reads) = world_data();
        let p = 3;
        let mut plan = FaultPlan::none();
        for rank in 0..p {
            plan = plan.with_crash("subject sketch", rank);
        }
        let err = run(
            &subjects,
            &reads,
            p,
            CostModel::zero(),
            ExecMode::Sequential,
            &with_plan(plan),
        )
        .unwrap_err();
        assert!(
            matches!(err, ResilienceError::AllRanksFailed { .. }),
            "got {err}"
        );
        assert!(err.to_string().contains("subject sketch"));
    }

    fn checkpoint_opts(tag: &str) -> ResilienceOptions {
        let name = format!("jem_ckpt_{tag}_{}.idx", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_file(&path);
        ResilienceOptions {
            checkpoint: Some(path),
            ..Default::default()
        }
    }

    #[test]
    fn checkpoint_roundtrip_skips_rebuild_and_matches() {
        let (subjects, reads) = world_data();
        let p = 4;
        let expected = sequential(&subjects, &reads);
        let opts = checkpoint_opts("roundtrip");
        let path = opts.checkpoint.clone().unwrap();
        // First run writes the checkpoint.
        let first = faulty(&subjects, &reads, p, &opts);
        assert_eq!(first.mappings, expected);
        assert!(path.exists(), "checkpoint must be written");
        // Second run resumes: identical output, no subject-phase steps,
        // but S1 still loads the reads S4 maps.
        let second = faulty(&subjects, &reads, p, &opts);
        assert_eq!(second.mappings, expected);
        let b = second.breakdown();
        assert!(b.input_load > 0.0, "S1 loads the reads on resume");
        assert_eq!(b.subject_sketch, 0.0, "S2 skipped on resume");
        assert_eq!(b.sketch_gather + b.table_build, 0.0, "S3 skipped on resume");
        assert!(b.query_map > 0.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_is_ignored_not_trusted() {
        let (subjects, reads) = world_data();
        let p = 4;
        let opts = checkpoint_opts("corrupt");
        let path = opts.checkpoint.clone().unwrap();
        faulty(&subjects, &reads, p, &opts);
        // Damage the file: resume must silently fall back to a full build
        // (and rewrite a good checkpoint).
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let outcome = faulty(&subjects, &reads, p, &opts);
        assert_eq!(outcome.mappings, sequential(&subjects, &reads));
        assert!(
            outcome.report.step_secs("subject sketch") > 0.0,
            "must rebuild"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn random_plans_preserve_output() {
        let (subjects, reads) = world_data();
        let expected = sequential(&subjects, &reads);
        let steps = ["input load", "subject sketch", "query map"];
        for p in [4usize, 8] {
            for seed in 0..6u64 {
                let n_crashes = 1 + (seed as usize) % (p - 1);
                let plan = FaultPlan::random(seed, p, &steps, n_crashes, 1);
                let outcome = faulty(&subjects, &reads, p, &with_plan(plan.clone()));
                assert_eq!(outcome.mappings, expected, "p={p} seed={seed} plan={plan}");
                assert_eq!(outcome.report.fault_stats.crashes, plan.crashed_ranks());
            }
        }
    }
}
