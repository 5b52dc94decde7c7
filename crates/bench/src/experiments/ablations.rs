//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **window size `w`** — quality vs sketch-table size vs mapping time;
//! 2. **lazy vs naive hit counter** — the §III-C implementation note,
//!    measured at workload scale (n subjects, per-query reset cost);
//! 3. **network cost model** — how the Fig. 8 communication fraction moves
//!    between a 10 GbE-class and an InfiniBand-class interconnect.

use crate::data::{env_seed, eval_jem, PreparedDataset};
use crate::output::{f, obj, pct, print_table, save_json};
use jem_core::{JemMapper, MapperConfig};
use jem_index::{HitCounter, LazyHitCounter, NaiveHitCounter};
use jem_psim::CostModel;
use jem_sim::DatasetId;
use std::time::Instant;

/// Run all three ablations.
pub fn run() {
    let base = super::jem_config();
    let prep = PreparedDataset::generate(&super::spec(DatasetId::CElegans), env_seed());
    let bench = prep.truth(base.ell, base.k as u64);
    let mut results = Vec::new();

    // --- (1) window size w.
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for w in [10usize, 25, 50, 100, 200, 400] {
        let config = MapperConfig { w, ..base };
        let q = eval_jem(&prep, &config, &bench);
        let entries = JemMapper::build(&prep.subjects, &config)
            .table()
            .entry_count();
        rows.push(vec![
            w.to_string(),
            pct(q.precision),
            pct(q.recall),
            entries.to_string(),
            f(q.map_secs, 3),
        ]);
        series.push(obj([
            ("w", w.into()),
            ("precision", q.precision.into()),
            ("recall", q.recall.into()),
            ("table_entries", entries.into()),
            ("map_secs", q.map_secs.into()),
        ]));
    }
    print_table(
        "Ablation 1 — minimizer window size w (C. elegans analogue)",
        &["w", "Precision", "Recall", "Table entries", "Map secs"],
        &rows,
    );
    results.push(("window_sweep", series.into()));

    // --- (2) lazy vs naive hit counter at workload scale.
    let n_subjects = prep.subjects.len() * 64; // emulate an unscaled contig set
    let queries = 3_000u64;
    let hits_per_query = 25;
    let drive = |counter: &mut dyn HitCounter| {
        let mut state = 7u64;
        for q in 0..queries {
            for _ in 0..hits_per_query {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                counter.record(q, (state % n_subjects as u64) as u32);
            }
            std::hint::black_box(counter.best(q));
        }
    };
    let t0 = Instant::now();
    drive(&mut LazyHitCounter::new(n_subjects));
    let lazy_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    drive(&mut NaiveHitCounter::new(n_subjects));
    let naive_secs = t1.elapsed().as_secs_f64();
    print_table(
        "Ablation 2 — lazy-update vs reset-per-query hit counting",
        &["Counter", "Subjects", "Queries", "Seconds"],
        &[
            vec![
                "lazy (paper)".into(),
                n_subjects.to_string(),
                queries.to_string(),
                f(lazy_secs, 4),
            ],
            vec![
                "naive reset".into(),
                n_subjects.to_string(),
                queries.to_string(),
                f(naive_secs, 4),
            ],
        ],
    );
    println!("lazy speedup: {:.1}x", naive_secs / lazy_secs.max(1e-12));
    results.push((
        "hit_counter",
        obj([
            ("subjects", n_subjects.into()),
            ("queries", queries.into()),
            ("lazy_secs", lazy_secs.into()),
            ("naive_secs", naive_secs.into()),
        ]),
    ));

    // --- (3) interconnect sensitivity of the comm fraction at p = 64.
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for (label, cost) in [
        ("10GbE", CostModel::ethernet_10g()),
        ("InfiniBand", CostModel::infiniband()),
    ] {
        let o = super::run_simulated(&prep, &base, 64, cost);
        let frac = o.report.comm_fraction();
        rows.push(vec![label.to_string(), pct(1.0 - frac), pct(frac)]);
        series.push(obj([
            ("network", label.into()),
            ("comm_fraction", frac.into()),
        ]));
    }
    print_table(
        "Ablation 3 — interconnect class vs communication share (p = 64)",
        &["Network", "Computation", "Communication"],
        &rows,
    );
    results.push(("network", series.into()));

    // --- (4) sketch scheme: minimizers vs closed syncmers at matched
    // density, under noisy (ONT-class, 2%) reads where the syncmer
    // conservation property matters. HiFi reads (0.1%) are too clean to
    // separate the schemes.
    let noisy_spec = {
        let mut s = super::spec(DatasetId::HumanChr7);
        s.hifi.error_rate = 0.02;
        s
    };
    let noisy = PreparedDataset::generate(&noisy_spec, env_seed() + 7);
    // Matched density 2/6: minimizer w = 5 vs closed syncmer s = k − 5.
    let dense_cfg = MapperConfig {
        k: 16,
        w: 5,
        ..base
    };
    let noisy_bench = noisy.truth(dense_cfg.ell, dense_cfg.k as u64);
    let mini = crate::data::eval_jem_scheme(
        &noisy,
        &dense_cfg,
        jem_sketch::SketchScheme::Minimizer { w: 5 },
        &noisy_bench,
        "minimizer w=5",
    );
    let sync = crate::data::eval_jem_scheme(
        &noisy,
        &dense_cfg,
        jem_sketch::SketchScheme::ClosedSyncmer { s: 11 },
        &noisy_bench,
        "closed syncmer s=11",
    );
    print_table(
        "Ablation 4 — sketch scheme under 2% read error (matched density 1/3)",
        &["Scheme", "Precision", "Recall", "Map secs"],
        &[
            vec![
                mini.tool.clone(),
                pct(mini.precision),
                pct(mini.recall),
                f(mini.map_secs, 3),
            ],
            vec![
                sync.tool.clone(),
                pct(sync.precision),
                pct(sync.recall),
                f(sync.map_secs, 3),
            ],
        ],
    );
    results.push((
        "scheme",
        obj([("minimizer", (&mini).into()), ("syncmer", (&sync).into())]),
    ));

    // --- (5) hit-support threshold: precision/recall trade-off when
    // mappings below a minimum trial-hit count are suppressed. The paper
    // reports every best hit (threshold 1); this quantifies how much
    // precision a support cutoff buys and what recall it costs.
    let mapper = JemMapper::build(&prep.subjects, &base);
    let mappings = mapper.map_reads(&prep.reads);
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for min_hits in [1u32, 2, 3, 5, 10, 15] {
        let pairs: Vec<(String, String)> = mappings
            .iter()
            .filter(|m| m.hits >= min_hits)
            .map(|m| {
                (
                    m.query_key(&prep.reads),
                    mapper.subject_name(m.subject).to_string(),
                )
            })
            .collect();
        let m = jem_eval::MappingMetrics::classify(&pairs, &bench);
        rows.push(vec![
            min_hits.to_string(),
            pct(m.precision()),
            pct(m.recall()),
            pairs.len().to_string(),
        ]);
        series.push(obj([
            ("min_hits", min_hits.into()),
            ("precision", m.precision().into()),
            ("recall", m.recall().into()),
            ("reported", pairs.len().into()),
        ]));
    }
    print_table(
        "Ablation 5 — minimum trial-hit support vs quality (T = 30)",
        &["min hits", "Precision", "Recall", "Mappings reported"],
        &rows,
    );
    results.push(("hit_threshold", series.into()));

    save_json("ablations", &obj(results));
}
