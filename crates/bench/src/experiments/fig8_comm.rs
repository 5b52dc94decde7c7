//! Fig. 8 — computation vs communication fraction for Human chr 7 and
//! B. splendens as p grows.

use crate::data::{env_seed, PreparedDataset};
use crate::output::{obj, print_table, save_json};
use jem_psim::CostModel;
use jem_sim::DatasetId;

/// Process counts swept by the paper's figure.
pub const PROCS: &[usize] = &[4, 8, 16, 32, 64];

/// Run the computation/communication split for the two figure inputs.
pub fn run() {
    let config = super::jem_config();
    let cost = CostModel::ethernet_10g();
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for id in [DatasetId::HumanChr7, DatasetId::BSplendens] {
        let prep = PreparedDataset::generate(&super::spec(id), env_seed());
        let mut series = Vec::new();
        for &p in PROCS {
            let o = super::run_simulated(&prep, &config, p, cost);
            let comm = o.report.comm_fraction();
            series.push(comm);
            rows.push(vec![
                prep.name().to_string(),
                p.to_string(),
                format!("{:.2}%", (1.0 - comm) * 100.0),
                format!("{:.2}%", comm * 100.0),
            ]);
        }
        results.push(obj([
            ("dataset", prep.name().into()),
            ("procs", PROCS.into()),
            ("comm_fraction", series.into()),
        ]));
    }
    print_table(
        "Fig. 8 — computation vs communication time",
        &["Input", "p", "Computation", "Communication"],
        &rows,
    );
    save_json("fig8", &results.into());
}
