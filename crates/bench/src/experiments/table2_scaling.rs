//! Table II — strong scaling of JEM-mapper (p = 4..64 simulated ranks)
//! against Mashmap on 64 threads.

use crate::data::{env_seed, PreparedDataset};
use crate::output::{f, obj, print_table, save_json};
use jem_baseline::run_mashmap_threaded;
use jem_psim::{CostModel, ExecMode};

/// Process counts swept by the paper's table.
pub const PROCS: &[usize] = &[4, 8, 16, 32, 64];

/// Run the strong-scaling study on the six larger inputs.
pub fn run() {
    let config = super::jem_config();
    let mash_cfg = super::mashmap_config();
    let cost = CostModel::ethernet_10g();
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for spec in super::performance_specs() {
        let prep = PreparedDataset::generate(&spec, env_seed());
        // Untimed warm-up so the p=4 row doesn't absorb allocator/page-cache
        // first-touch costs.
        let _ = super::run_simulated(&prep, &config, 2, cost);
        let mut jem_secs = Vec::new();
        for &p in PROCS {
            let best = (0..2)
                .map(|_| {
                    super::run_simulated(&prep, &config, p, cost)
                        .report
                        .makespan_secs()
                })
                .fold(f64::INFINITY, f64::min);
            jem_secs.push(best);
        }
        // Two measurements, keep the min: single-shot wall times on a busy
        // host can double; the min is the stable estimator.
        let mash64 = (0..2)
            .map(|_| {
                let (_, report) = run_mashmap_threaded(
                    &prep.subjects,
                    &prep.reads,
                    &mash_cfg,
                    64,
                    ExecMode::Sequential,
                );
                report.makespan_secs()
            })
            .fold(f64::INFINITY, f64::min);
        let speedup_vs_mash = mash64 / jem_secs[PROCS.len() - 1];
        let rel_speedup_64 = jem_secs[0] / jem_secs[PROCS.len() - 1];
        println!(
            "{}: JEM p=64 {}s, Mashmap t=64 {}s (speedup {:.2}x, rel. p4->p64 {:.2}x)",
            prep.name(),
            f(jem_secs[PROCS.len() - 1], 3),
            f(mash64, 3),
            speedup_vs_mash,
            rel_speedup_64
        );
        let mut row = vec![prep.name().to_string()];
        row.extend(jem_secs.iter().map(|s| f(*s, 3)));
        row.push(f(mash64, 3));
        row.push(format!("{speedup_vs_mash:.2}x"));
        rows.push(row);
        results.push(obj([
            ("dataset", prep.name().into()),
            ("procs", PROCS.into()),
            ("jem_makespan_secs", jem_secs.into()),
            ("mashmap_t64_secs", mash64.into()),
            ("speedup_vs_mashmap_at_64", speedup_vs_mash.into()),
        ]));
    }
    print_table(
        "Table II — strong scaling (simulated makespan, seconds)",
        &[
            "Input",
            "p=4",
            "p=8",
            "p=16",
            "p=32",
            "p=64",
            "Mashmap t=64",
            "Speedup @64",
        ],
        &rows,
    );
    save_json("table2", &results.into());
}
