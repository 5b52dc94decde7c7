//! Property-based tests for the mapping core.

use jem_check::prelude::*;
use jem_core::{
    make_segments, map_reads_parallel, run_distributed, JemMapper, MapperConfig, ReadEnd,
    ResilienceOptions,
};
use jem_psim::{CostModel, ExecMode, FaultPlan};
use jem_seq::SeqRecord;

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), min..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn segmentation_invariants(
        reads in prop::collection::vec(dna(0, 3000), 0..12),
        ell in 1usize..1500,
    ) {
        let recs: Vec<SeqRecord> = reads
            .into_iter()
            .enumerate()
            .map(|(i, seq)| SeqRecord::new(format!("r{i}"), seq))
            .collect();
        let segs = make_segments(&recs, ell);
        for s in &segs {
            let read = &recs[s.read_idx as usize];
            prop_assert!(s.seq.len() <= ell);
            prop_assert!(!s.seq.is_empty());
            match s.end {
                ReadEnd::Prefix => prop_assert_eq!(&s.seq[..], &read.seq[..s.seq.len()]),
                ReadEnd::Suffix => {
                    prop_assert_eq!(&s.seq[..], &read.seq[read.seq.len() - s.seq.len()..]);
                    prop_assert!(read.seq.len() > ell, "suffix only for long reads");
                }
            }
        }
        // Per read: 0 segments (empty), 1 (short) or 2 (long).
        for (i, r) in recs.iter().enumerate() {
            let count = segs.iter().filter(|s| s.read_idx as usize == i).count();
            let expect = if r.seq.is_empty() { 0 } else if r.seq.len() <= ell { 1 } else { 2 };
            prop_assert_eq!(count, expect);
        }
    }

    #[test]
    fn drivers_agree_on_random_data(
        subjects in prop::collection::vec(dna(300, 1500), 1..8),
        reads in prop::collection::vec(dna(100, 2500), 0..8),
        p in 1usize..6,
    ) {
        let subject_recs: Vec<SeqRecord> = subjects
            .into_iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("c{i}"), s))
            .collect();
        let read_recs: Vec<SeqRecord> = reads
            .into_iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("r{i}"), s))
            .collect();
        let config = MapperConfig { k: 11, w: 8, trials: 6, ell: 400, seed: 3 };
        let mapper = JemMapper::build(&subject_recs, &config);
        let mut sequential = mapper.map_reads(&read_recs);
        sequential.sort_unstable();
        let parallel = map_reads_parallel(&mapper, &read_recs);
        prop_assert_eq!(&parallel, &sequential);
        let distributed = run_distributed(
            &subject_recs,
            &read_recs,
            &config,
            p,
            CostModel::zero(),
            ExecMode::Sequential,
            &ResilienceOptions::default(),
        )
        .expect("a fault-free run cannot fail");
        prop_assert_eq!(&distributed.mappings, &sequential);
    }

    #[test]
    fn resilient_driver_survives_random_fault_plans(
        subjects in prop::collection::vec(dna(300, 1200), 1..6),
        reads in prop::collection::vec(dna(100, 2000), 0..6),
        p in 2usize..6,
        seed in any::<u64>(),
        n_corrupt in 0usize..3,
    ) {
        let subject_recs: Vec<SeqRecord> = subjects
            .into_iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("c{i}"), s))
            .collect();
        let read_recs: Vec<SeqRecord> = reads
            .into_iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("r{i}"), s))
            .collect();
        let config = MapperConfig { k: 11, w: 8, trials: 6, ell: 400, seed: 3 };
        let mut expected = JemMapper::build(&subject_recs, &config).map_reads(&read_recs);
        expected.sort_unstable();
        // Crash anywhere between 1 and p-1 ranks at random steps, plus a
        // few corrupted sketch payloads; output must be untouched.
        let steps = ["input load", "subject sketch", "query map"];
        let n_crashes = 1 + (seed as usize) % (p - 1).max(1);
        let plan = FaultPlan::random(seed, p, &steps, n_crashes, n_corrupt);
        let opts = ResilienceOptions { plan: plan.clone(), ..Default::default() };
        let outcome = run_distributed(
            &subject_recs,
            &read_recs,
            &config,
            p,
            CostModel::zero(),
            ExecMode::Sequential,
            &opts,
        )
        .expect("a surviving rank remains, so the run must succeed");
        prop_assert_eq!(&outcome.mappings, &expected, "plan: {}", plan);
        let fs = outcome.report.fault_stats;
        prop_assert_eq!(fs.crashes, plan.crashed_ranks());
        if plan.crashed_ranks() > 0 {
            prop_assert!(fs.retries >= 1, "crashes must force retries: {}", fs);
            prop_assert!(fs.reassigned_blocks >= 1, "crashes must reassign blocks: {}", fs);
        }
    }

    #[test]
    fn mapping_fields_always_valid(
        subjects in prop::collection::vec(dna(300, 1200), 1..6),
        reads in prop::collection::vec(dna(100, 2000), 0..6),
    ) {
        let subject_recs: Vec<SeqRecord> = subjects
            .into_iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("c{i}"), s))
            .collect();
        let read_recs: Vec<SeqRecord> = reads
            .into_iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("r{i}"), s))
            .collect();
        let config = MapperConfig { k: 9, w: 6, trials: 5, ell: 300, seed: 8 };
        let mapper = JemMapper::build(&subject_recs, &config);
        for m in mapper.map_reads(&read_recs) {
            prop_assert!((m.read_idx as usize) < read_recs.len());
            prop_assert!((m.subject as usize) < mapper.n_subjects());
            prop_assert!(m.hits >= 1 && m.hits as usize <= config.trials);
        }
    }

    #[test]
    fn query_from_subject_maps_to_it(
        subject in dna(2000, 4000),
        offset_frac in 0.0f64..0.7,
    ) {
        // An error-free window of a lone subject must map to it with
        // majority trial support.
        let config = MapperConfig { k: 11, w: 8, trials: 8, ell: 500, seed: 1 };
        let offset = (subject.len() as f64 * offset_frac) as usize;
        let end = (offset + 500).min(subject.len());
        let query = subject[offset..end].to_vec();
        let mapper = JemMapper::build(&[SeqRecord::new("c0", subject)], &config);
        let mut counter = mapper.new_counter();
        let result = mapper.map_segment(&query, 0, &mut counter);
        prop_assert!(result.is_some(), "verbatim window must map");
        let (s, hits) = result.unwrap();
        prop_assert_eq!(s, 0);
        prop_assert!(hits >= 4, "expected majority support, got {hits}/8");
    }
}
