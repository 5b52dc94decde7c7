//! One module per table/figure of the paper's evaluation section.

pub mod ablations;
pub mod ext_contained;
pub mod ext_topk;
pub mod fig5_quality;
pub mod fig6_trials;
pub mod fig7_breakdown;
pub mod fig8_comm;
pub mod fig9_identity;
pub mod table1_datasets;
pub mod table2_scaling;

use crate::data::PreparedDataset;
use jem_baseline::MashmapConfig;
use jem_core::{run_distributed, DistributedOutcome, MapperConfig, ResilienceOptions};
use jem_psim::{CostModel, ExecMode};
use jem_sim::{paper_analogues, DatasetId, DatasetSpec};

/// The paper's default JEM configuration (§IV-A-c).
pub fn jem_config() -> MapperConfig {
    MapperConfig::default()
}

/// A fault-free run of the S1–S4 driver on `p` simulated ranks, executed
/// back-to-back so per-rank timings are exact (Table II, Figs. 7–8).
pub fn run_simulated(
    prep: &PreparedDataset,
    config: &MapperConfig,
    p: usize,
    cost: CostModel,
) -> DistributedOutcome {
    let opts = ResilienceOptions::default();
    let (subjects, reads) = (&prep.subjects, &prep.reads);
    run_distributed(
        subjects,
        reads,
        config,
        p,
        cost,
        ExecMode::Sequential,
        &opts,
    )
    .expect("a fault-free run cannot fail")
}

/// Mashmap configured per its own parameterization rule.
///
/// Mashmap derives its window from the sketch-size formula (Jain et al.
/// 2017): for ℓ = 1000 bp segments at HiFi identity the sketch size is
/// s ≈ 200, giving `w = 2ℓ/s ≈ 10` — an order of magnitude denser minimizer
/// sampling than JEM's `w = 100`. That density is what makes the real
/// Mashmap's per-query work (position lists + local-intersection windows)
/// much heavier than JEM's, and is the source of the runtime gap in
/// Table II. `min_shared` plays the role of Mashmap's stage-1 count cutoff
/// `m = ⌈s·τ⌉`.
pub fn mashmap_config() -> MashmapConfig {
    MashmapConfig {
        k: 16,
        w: 10,
        ell: 1000,
        min_shared: 4,
    }
}

/// All dataset analogues at the environment scale.
pub fn all_specs() -> Vec<DatasetSpec> {
    paper_analogues(crate::env_scale())
}

/// The seven simulated inputs (Fig. 5 uses these; O. sativa is "real").
pub fn simulated_specs() -> Vec<DatasetSpec> {
    all_specs()
        .into_iter()
        .filter(|s| s.id != DatasetId::OSativaChr8)
        .collect()
}

/// The six larger inputs used in the performance study (Table II, Figs. 7–8).
pub fn performance_specs() -> Vec<DatasetSpec> {
    all_specs()
        .into_iter()
        .filter(|s| !matches!(s.id, DatasetId::EColi | DatasetId::PAeruginosa))
        .collect()
}

/// Fetch one spec by id.
pub fn spec(id: DatasetId) -> DatasetSpec {
    all_specs()
        .into_iter()
        .find(|s| s.id == id)
        .expect("known dataset id")
}
