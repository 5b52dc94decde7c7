//! A Mashmap-style two-stage winnowed-minhash mapper.
//!
//! Index time: every subject's minimizer list is inserted into a positional
//! index `code → [(subject, position)]`.
//!
//! Query time (per end segment):
//! 1. compute the query's minimizer set;
//! 2. **stage 1** — collect every `(subject, position)` occurrence of a
//!    shared minimizer and shortlist subjects whose total shared count
//!    reaches `min_shared`;
//! 3. **stage 2** — for each candidate, slide an ℓ-sized window over its
//!    sorted hit positions and score the subject by the *maximal local
//!    intersection* (the number of distinct query minimizers inside the
//!    best window); report the argmax subject.
//!
//! This mirrors the algorithm the paper compares against; the crucial
//! difference from JEM-mapper is that all locality filtering happens at
//! query time over position lists, instead of being baked into the sketch.

use jem_core::{make_segments, Mapping, ReadEnd};
use jem_index::SubjectId;
use jem_psim::{block_range, CostModel, ExecMode, RunReport, World};
use jem_seq::SeqRecord;
use jem_sketch::{minimizers, Minimizer, MinimizerParams};
use std::collections::HashMap;

/// Mashmap-baseline configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MashmapConfig {
    /// k-mer size (kept equal to JEM's for head-to-head comparisons).
    pub k: usize,
    /// Minimizer window size `w`.
    pub w: usize,
    /// Window length for stage-2 local intersection (the end-segment ℓ).
    pub ell: usize,
    /// Stage-1 shortlist threshold: minimum shared minimizer occurrences.
    pub min_shared: u32,
}

impl Default for MashmapConfig {
    fn default() -> Self {
        MashmapConfig {
            k: 16,
            w: 100,
            ell: 1000,
            min_shared: 2,
        }
    }
}

/// One positional posting: a minimizer occurrence on a subject.
#[derive(Clone, Copy, Debug)]
struct Posting {
    subject: SubjectId,
    pos: u32,
}

/// The Mashmap-style positional minimizer index.
#[derive(Clone, Debug)]
pub struct MashmapMapper {
    config: MashmapConfig,
    params: MinimizerParams,
    /// minimizer code → occurrences across all subjects.
    index: HashMap<u64, Vec<Posting>>,
    subject_names: Vec<String>,
}

impl MashmapMapper {
    /// Build the positional index over the subject set.
    pub fn build(subjects: Vec<SeqRecord>, config: &MashmapConfig) -> Self {
        let params = MinimizerParams::new(config.k, config.w).expect("invalid k/w");
        let mut index: HashMap<u64, Vec<Posting>> = HashMap::new();
        for (id, rec) in subjects.iter().enumerate() {
            for m in minimizers(&rec.seq, params) {
                index.entry(m.code).or_default().push(Posting {
                    subject: id as SubjectId,
                    pos: m.pos,
                });
            }
        }
        MashmapMapper {
            config: *config,
            params,
            index,
            subject_names: subjects.into_iter().map(|s| s.id).collect(),
        }
    }

    /// Number of indexed subjects.
    pub fn n_subjects(&self) -> usize {
        self.subject_names.len()
    }

    /// Name of subject `id`.
    pub fn subject_name(&self, id: SubjectId) -> &str {
        &self.subject_names[id as usize]
    }

    /// The active configuration.
    pub fn config(&self) -> &MashmapConfig {
        &self.config
    }

    /// Map one end segment; returns the best `(subject, score)` where the
    /// score is the stage-2 maximal local intersection.
    pub fn map_segment(&self, seg: &[u8]) -> Option<(SubjectId, u32)> {
        let query_minis: Vec<Minimizer> = minimizers(seg, self.params);
        if query_minis.is_empty() {
            return None;
        }
        // Stage 1: gather postings of shared minimizers, tagged with which
        // query minimizer produced them (distinctness matters in stage 2).
        // (query_idx, subject, subject_pos)
        let mut hits: Vec<(u32, SubjectId, u32)> = Vec::new();
        let mut dedup_codes: Vec<u64> = query_minis.iter().map(|m| m.code).collect();
        dedup_codes.sort_unstable();
        dedup_codes.dedup();
        for (qi, code) in dedup_codes.iter().enumerate() {
            if let Some(postings) = self.index.get(code) {
                for p in postings {
                    hits.push((qi as u32, p.subject, p.pos));
                }
            }
        }
        if hits.is_empty() {
            return None;
        }
        // Group by subject; shortlist by total shared count.
        hits.sort_unstable_by_key(|&(_, s, pos)| (s, pos));
        let mut best: Option<(SubjectId, u32)> = None;
        let mut i = 0;
        while i < hits.len() {
            let subject = hits[i].1;
            let mut j = i;
            while j < hits.len() && hits[j].1 == subject {
                j += 1;
            }
            let group = &hits[i..j];
            i = j;
            if (group.len() as u32) < self.config.min_shared {
                continue;
            }
            // Stage 2: maximal local intersection — the window of length ℓ
            // (over subject positions) holding the most *distinct* query
            // minimizers.
            let score = max_local_intersection(group, self.config.ell as u32);
            if score >= self.config.min_shared {
                match best {
                    Some((bs, bc)) if score < bc || (score == bc && subject >= bs) => {}
                    _ => best = Some((subject, score)),
                }
            }
        }
        best
    }

    /// Map every read's end segments (sequential driver).
    pub fn map_reads(&self, reads: &[SeqRecord]) -> Vec<Mapping> {
        let segments = make_segments(reads, self.config.ell);
        let mut out = Vec::new();
        for seg in &segments {
            if let Some((subject, score)) = self.map_segment(&seg.seq) {
                out.push(Mapping {
                    read_idx: seg.read_idx,
                    end: seg.end,
                    subject,
                    hits: score,
                });
            }
        }
        out
    }
}

/// Best count of distinct query minimizers within any window of subject
/// positions of length `ell`. `group` is sorted by position.
fn max_local_intersection(group: &[(u32, SubjectId, u32)], ell: u32) -> u32 {
    // Two-pointer sweep with a multiset of query-minimizer ids.
    let mut counts: HashMap<u32, u32> = HashMap::new();
    let mut distinct = 0u32;
    let mut best = 0u32;
    let mut lo = 0usize;
    for hi in 0..group.len() {
        let entry = counts.entry(group[hi].0).or_insert(0);
        if *entry == 0 {
            distinct += 1;
        }
        *entry += 1;
        while group[hi].2 - group[lo].2 > ell {
            let e = counts.get_mut(&group[lo].0).expect("present");
            *e -= 1;
            if *e == 0 {
                distinct -= 1;
            }
            lo += 1;
        }
        best = best.max(distinct);
    }
    best
}

/// Run the Mashmap baseline "multithreaded" the way the paper does (shared
/// index, queries split across `threads` workers), on the simulated world so
/// its runtime is comparable with the distributed JEM numbers of Table II.
///
/// Shared-memory threads communicate through memory, so no collective cost
/// is charged; the makespan is the slowest worker plus the (replicated)
/// index build.
pub fn run_mashmap_threaded(
    subjects: &[SeqRecord],
    reads: &[SeqRecord],
    config: &MashmapConfig,
    threads: usize,
    mode: ExecMode,
) -> (Vec<Mapping>, RunReport) {
    let mut world = World::new(threads, CostModel::zero()).with_mode(mode);
    let mapper = world.superstep_replicated("index build", || {
        MashmapMapper::build(subjects.to_vec(), config)
    });
    let segments = make_segments(reads, config.ell);
    let per_rank: Vec<Vec<Mapping>> = world.superstep("query map", |rank| {
        let mut out = Vec::new();
        for seg in &segments[block_range(threads, segments.len(), rank)] {
            if let Some((subject, score)) = mapper.map_segment(&seg.seq) {
                out.push(Mapping {
                    read_idx: seg.read_idx,
                    end: seg.end,
                    subject,
                    hits: score,
                });
            }
        }
        out
    });
    let mut mappings: Vec<Mapping> = per_rank.into_iter().flatten().collect();
    mappings.sort_unstable(); // total order; see Mapping's Ord doc
    (mappings, world.into_report())
}

/// Convenience: query key for a baseline mapping (same format as core).
pub fn mapping_key(m: &Mapping, reads: &[SeqRecord]) -> String {
    let end = match m.end {
        ReadEnd::Prefix => "prefix",
        ReadEnd::Suffix => "suffix",
    };
    format!("{}/{}", reads[m.read_idx as usize].id, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_sim::{
        contig_records, fragment_contigs, read_records, simulate_hifi, ContigProfile, Genome,
        HifiProfile,
    };

    fn config() -> MashmapConfig {
        MashmapConfig {
            k: 12,
            w: 10,
            ell: 400,
            min_shared: 2,
        }
    }

    fn world_data() -> (Genome, Vec<SeqRecord>) {
        let genome = Genome::random(60_000, 0.5, 31);
        let contigs = fragment_contigs(
            &genome,
            &ContigProfile {
                error_rate: 0.0,
                ..ContigProfile::small_genome()
            },
            32,
        );
        (genome, contig_records(&contigs))
    }

    #[test]
    fn verbatim_window_maps_home() {
        let (_, subjects) = world_data();
        let mapper = MashmapMapper::build(subjects.clone(), &config());
        let query = subjects[4].seq[..400.min(subjects[4].seq.len())].to_vec();
        let (best, score) = mapper.map_segment(&query).expect("must map");
        assert_eq!(best, 4);
        assert!(score >= 2);
    }

    #[test]
    fn alien_segment_unmapped() {
        let (_, subjects) = world_data();
        let mapper = MashmapMapper::build(subjects, &config());
        let alien = Genome::random(400, 0.5, 999).seq;
        assert_eq!(mapper.map_segment(&alien), None);
    }

    #[test]
    fn empty_query() {
        let (_, subjects) = world_data();
        let mapper = MashmapMapper::build(subjects, &config());
        assert_eq!(mapper.map_segment(b""), None);
        assert_eq!(mapper.map_segment(b"NNNNNN"), None);
    }

    #[test]
    fn map_reads_end_to_end() {
        let (genome, subjects) = world_data();
        let mapper = MashmapMapper::build(subjects, &config());
        let profile = HifiProfile {
            coverage: 2.0,
            mean_len: 4_000,
            std_len: 800,
            min_len: 1_000,
            error_rate: 0.001,
        };
        let reads = read_records(&simulate_hifi(&genome, &profile, 33));
        let mappings = mapper.map_reads(&reads);
        assert!(!mappings.is_empty());
        for m in &mappings {
            assert!((m.subject as usize) < mapper.n_subjects());
        }
    }

    #[test]
    fn threaded_run_matches_sequential_mappings() {
        let (genome, subjects) = world_data();
        let profile = HifiProfile {
            coverage: 1.0,
            mean_len: 4_000,
            std_len: 800,
            min_len: 1_000,
            error_rate: 0.001,
        };
        let reads = read_records(&simulate_hifi(&genome, &profile, 34));
        let mapper = MashmapMapper::build(subjects.clone(), &config());
        let mut expected = mapper.map_reads(&reads);
        expected.sort_unstable();
        for t in [1usize, 3, 8] {
            let (got, report) =
                run_mashmap_threaded(&subjects, &reads, &config(), t, ExecMode::Sequential);
            assert_eq!(got, expected, "threads = {t}");
            assert!(report.makespan_secs() > 0.0);
        }
    }

    #[test]
    fn local_intersection_window_logic() {
        // Positions 0..5 close together (5 distinct), one far outlier of the
        // same query minimizer 0.
        let group: Vec<(u32, SubjectId, u32)> = vec![
            (0, 0, 0),
            (1, 0, 10),
            (2, 0, 20),
            (3, 0, 30),
            (4, 0, 40),
            (0, 0, 5000),
        ];
        assert_eq!(max_local_intersection(&group, 100), 5);
        // Tiny window: only individual hits.
        assert_eq!(max_local_intersection(&group, 1), 1);
        // Duplicate query minimizers in one window count once.
        let dup: Vec<(u32, SubjectId, u32)> = vec![(7, 0, 0), (7, 0, 10), (7, 0, 20)];
        assert_eq!(max_local_intersection(&dup, 100), 1);
    }
}
