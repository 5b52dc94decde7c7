//! Distributed-memory demo: run the paper's S1–S4 parallel algorithm on
//! the simulated BSP world at several process counts and print the
//! per-step breakdown (a miniature Table II + Fig. 7a).
//!
//! Run: `cargo run --release --example distributed_demo`

use jem::prelude::*;
use jem_core::{run_distributed, ResilienceOptions};
use jem_psim::{CostModel, ExecMode};

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
    println!(
        "{} contigs, {} reads, 10GbE cost model\n",
        contigs.len(),
        reads.len()
    );

    println!("| p | makespan (s) | input | sketch | gather+table | query map | comm % |");
    println!("|---|---|---|---|---|---|---|");
    let mut first_mappings = None;
    for p in [1usize, 4, 16, 64] {
        let o = run_distributed(
            &subjects,
            &query_reads,
            &config,
            p,
            cost,
            ExecMode::Sequential,
            &ResilienceOptions::default(),
        )
        .expect("a fault-free run cannot fail");
        let b = o.breakdown();
        println!(
            "| {p} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.1}% |",
            o.report.makespan_secs(),
            b.input_load,
            b.subject_sketch,
            b.sketch_gather + b.table_build,
            b.query_map,
            o.report.comm_fraction() * 100.0
        );
        match &first_mappings {
            None => first_mappings = Some(o.mappings),
            Some(expect) => assert_eq!(
                &o.mappings, expect,
                "the mapping result must be identical at every p"
            ),
        }
    }
    println!(
        "\n{} mappings — identical at every process count (determinism check passed)",
        first_mappings.map(|m| m.len()).unwrap_or(0)
    );
}
