//! End-to-end integration: simulate → map → evaluate, across all drivers.

use jem_core::{
    map_reads_parallel, mapping_pairs, run_distributed, JemMapper, MapperConfig, ResilienceOptions,
};
use jem_eval::{Benchmark, MappingMetrics};
use jem_psim::{CostModel, ExecMode};
use jem_seq::SeqRecord;
use jem_sim::{
    contig_records, fragment_contigs, read_records, simulate_hifi, Contig, ContigProfile, Genome,
    HifiProfile, SegmentEnd, SimulatedRead,
};

struct World {
    contigs: Vec<Contig>,
    reads: Vec<SimulatedRead>,
    subjects: Vec<SeqRecord>,
    query_reads: Vec<SeqRecord>,
}

fn world(seed: u64) -> World {
    let genome = Genome::random(150_000, 0.5, seed);
    let contigs = fragment_contigs(&genome, &ContigProfile::eukaryotic(), seed + 1);
    let reads = simulate_hifi(
        &genome,
        &HifiProfile {
            coverage: 4.0,
            ..Default::default()
        },
        seed + 2,
    );
    let subjects = contig_records(&contigs);
    let query_reads = read_records(&reads);
    World {
        contigs,
        reads,
        subjects,
        query_reads,
    }
}

fn truth(w: &World, config: &MapperConfig) -> Benchmark {
    let mut queries = Vec::new();
    for r in &w.reads {
        let (s, e) = r.segment_ref_range(SegmentEnd::Prefix, config.ell);
        queries.push((format!("{}/prefix", r.id), (s as u64, e as u64)));
        if r.len() > config.ell {
            let (s, e) = r.segment_ref_range(SegmentEnd::Suffix, config.ell);
            queries.push((format!("{}/suffix", r.id), (s as u64, e as u64)));
        }
    }
    let coords: Vec<(String, (u64, u64))> = w
        .contigs
        .iter()
        .map(|c| (c.id.clone(), (c.ref_start as u64, c.ref_end as u64)))
        .collect();
    Benchmark::from_coordinates(&queries, &coords, config.k as u64)
}

#[test]
fn jem_quality_on_simulated_data() {
    let w = world(100);
    let config = MapperConfig::default();
    let mapper = JemMapper::build(&w.subjects, &config);
    let mappings = mapper.map_reads(&w.query_reads);
    let bench = truth(&w, &config);
    let m = MappingMetrics::classify(&mapping_pairs(&mappings, &w.query_reads, &mapper), &bench);
    assert!(
        m.precision() > 0.95,
        "precision {:.3} below the paper's band",
        m.precision()
    );
    assert!(
        m.recall() > 0.90,
        "recall {:.3} below the paper's band",
        m.recall()
    );
    assert!(
        m.recall() <= m.precision() + 1e-9,
        "recall must be upper-bounded by precision (paper §IV-B)"
    );
}

#[test]
fn all_three_drivers_agree() {
    let w = world(200);
    let config = MapperConfig {
        trials: 10,
        ..Default::default()
    };
    let mapper = JemMapper::build(&w.subjects, &config);
    let mut sequential = mapper.map_reads(&w.query_reads);
    sequential.sort_unstable_by_key(|m| (m.read_idx, m.end));
    let parallel = map_reads_parallel(&mapper, &w.query_reads);
    assert_eq!(
        parallel, sequential,
        "shared-memory driver must equal sequential"
    );
    for p in [1, 4, 16] {
        let distributed = run_distributed(
            &w.subjects,
            &w.query_reads,
            &config,
            p,
            CostModel::ethernet_10g(),
            ExecMode::Sequential,
            &ResilienceOptions::default(),
        )
        .expect("a fault-free run cannot fail");
        assert_eq!(
            distributed.mappings, sequential,
            "distributed p={p} must equal sequential"
        );
    }
}

#[test]
fn scaling_report_is_sane() {
    // Enough query work per rank that timing noise cannot flip the
    // comparison (release-mode per-segment times are microseconds).
    let genome = Genome::random(400_000, 0.5, 301);
    let contigs = fragment_contigs(&genome, &ContigProfile::eukaryotic(), 302);
    let reads = read_records(&simulate_hifi(
        &genome,
        &HifiProfile {
            coverage: 8.0,
            ..Default::default()
        },
        303,
    ));
    let subjects = contig_records(&contigs);
    let config = MapperConfig {
        trials: 10,
        ..Default::default()
    };
    let run = |p| {
        run_distributed(
            &subjects,
            &reads,
            &config,
            p,
            CostModel::ethernet_10g(),
            ExecMode::Sequential,
            &ResilienceOptions::default(),
        )
        .expect("a fault-free run cannot fail")
    };
    let _ = run(2); // warm-up (page cache / allocator)
    let o2 = run(2);
    let o16 = run(16);
    // Query critical path shrinks substantially with 8x the ranks.
    assert!(
        o16.report.step_secs("query map") < o2.report.step_secs("query map") * 0.6,
        "query map: p=16 {} vs p=2 {}",
        o16.report.step_secs("query map"),
        o2.report.step_secs("query map")
    );
    // Throughput grows with p.
    assert!(o16.query_throughput() > o2.query_throughput() * 1.5);
    // Communication exists but is a minority share.
    assert!(o16.report.comm_fraction() > 0.0);
    assert!(o16.report.comm_fraction() < 0.5);
}

#[test]
fn deterministic_across_runs() {
    let w = world(400);
    let config = MapperConfig::default();
    let a = JemMapper::build(&w.subjects, &config).map_reads(&w.query_reads);
    let b = JemMapper::build(&w.subjects, &config).map_reads(&w.query_reads);
    assert_eq!(a, b);
}

#[test]
fn segments_map_to_overlapping_contigs() {
    // Every correct mapping's contig should actually overlap the segment's
    // genome region (spot check of the whole pipeline's coordinate logic).
    let w = world(500);
    let config = MapperConfig::default();
    let mapper = JemMapper::build(&w.subjects, &config);
    let mappings = mapper.map_reads(&w.query_reads);
    assert!(!mappings.is_empty());
    let bench = truth(&w, &config);
    let pairs = mapping_pairs(&mappings, &w.query_reads, &mapper);
    let correct = pairs.iter().filter(|(q, s)| bench.contains(q, s)).count();
    assert!(
        correct * 100 >= pairs.len() * 95,
        "{correct}/{} correct",
        pairs.len()
    );
}
