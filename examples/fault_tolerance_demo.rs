//! Fault-tolerance demo: inject crashes, corrupted sketch streams and a
//! straggler into the simulated BSP world, recover with the distributed
//! driver, and show that the mapping output is byte-identical to the
//! fault-free run — only the (simulated) makespan degrades.
//!
//! Run: `cargo run --release --example fault_tolerance_demo`

use jem::prelude::*;
use jem_core::{run_distributed, ResilienceOptions};
use jem_psim::{CostModel, ExecMode, FaultPlan};

fn main() {
    let genome = Genome::random(300_000, 0.5, 41);
    let contigs = fragment_contigs(&genome, &ContigProfile::eukaryotic(), 42);
    let reads = simulate_hifi(
        &genome,
        &HifiProfile {
            coverage: 6.0,
            ..Default::default()
        },
        43,
    );
    let subjects = contig_records(&contigs);
    let query_reads = read_records(&reads);
    let config = MapperConfig::default();
    let cost = CostModel::ethernet_10g();
    let p = 8;
    println!(
        "{} contigs, {} reads, p = {p}, 10GbE cost model\n",
        contigs.len(),
        reads.len()
    );

    // Reference: the fault-free distributed run.
    let clean = run_distributed(
        &subjects,
        &query_reads,
        &config,
        p,
        cost,
        ExecMode::Sequential,
        &ResilienceOptions::default(),
    )
    .expect("a fault-free run cannot fail");
    println!(
        "fault-free  makespan {:.4}s, {} mappings",
        clean.report.makespan_secs(),
        clean.mappings.len()
    );

    // Adversarial plan: two ranks crash mid-pipeline, one rank's encoded
    // sketch stream arrives damaged, and one rank runs 20x slow.
    let plan = FaultPlan::none()
        .with_crash("subject sketch", 2)
        .with_crash("query map", 5)
        .with_corrupt("subject sketch", 3)
        .with_straggle("input load", 6, 20.0)
        .with_corruption_seed(7);
    println!("fault plan: {plan}");

    let opts = ResilienceOptions {
        plan,
        ..Default::default()
    };
    let faulty = run_distributed(
        &subjects,
        &query_reads,
        &config,
        p,
        cost,
        ExecMode::Sequential,
        &opts,
    )
    .expect("six of eight ranks survive, so the run must succeed");

    let fs = &faulty.report.fault_stats;
    println!(
        "with faults makespan {:.4}s, {} mappings",
        faulty.report.makespan_secs(),
        faulty.mappings.len()
    );
    println!("recovery: {fs}");

    assert_eq!(
        faulty.mappings, clean.mappings,
        "recovered output must be identical to the fault-free run"
    );
    assert!(
        faulty.report.makespan_secs() > clean.report.makespan_secs(),
        "faults must cost simulated time"
    );
    println!("\nmappings identical to the fault-free run; only the makespan degraded");
}
