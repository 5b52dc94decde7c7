//! The `jem` subcommands.

use crate::args::Args;
use crate::error::CliError;
use crate::io::{read_sequences, write_fasta, write_file_atomic, AtomicFile};
use jem_anchor::{write_paf, AnchorPipeline, PafRow, RefineScratch, RefineStats, Refiner};
use jem_core::{
    load_index_path, load_index_path_opts, make_segments, map_reads_parallel_with, run_distributed,
    save_index, write_mappings_tsv, write_mappings_tsv_named, Integrity, JemMapper, MapperConfig,
    Mapping, ReadEnd, ResilienceOptions,
};
use jem_eval::{parse_paf, Benchmark, MappingMetrics, PafAccuracy};
use jem_psim::{CostModel, ExecMode, FaultPlan};
use jem_scaffold::{scaffold, AssemblyStats, ScaffoldParams};
use jem_seq::{FastqRecord, FastqWriter, SeqRecord};
use jem_sim::{
    contig_records, fragment_contigs, simulate_hifi, simulate_illumina, ContigProfile, Genome,
    GenomeProfile, HifiProfile, IlluminaProfile, SegmentEnd,
};
use jem_sketch::SketchScheme;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Arm the process-global metrics recorder when `--metrics PATH` is given.
/// Must run before any pipeline work so every stage reports into it.
/// Returns the output path plus the typed handle to snapshot at the end.
fn metrics_recorder(
    args: &Args,
) -> Result<Option<(String, &'static jem_obs::MetricsRecorder)>, CliError> {
    match args.get("metrics") {
        None => Ok(None),
        Some(path) => {
            let rec = jem_obs::install_default().ok_or_else(|| {
                CliError::Usage("--metrics: a metrics recorder is already installed".into())
            })?;
            Ok(Some((path.to_string(), rec)))
        }
    }
}

/// Dump the recorder's snapshot as JSON (schema in DESIGN.md §9) to `path`.
fn write_metrics(path: &str, rec: &jem_obs::MetricsRecorder) -> Result<(), CliError> {
    write_file_atomic(path, rec.snapshot().to_json().as_bytes())?;
    eprintln!("metrics snapshot written to {path}");
    Ok(())
}

/// Parse `--threads N` (None when absent). Also exports `RAYON_NUM_THREADS`
/// so `jem_index::default_lanes` — the width of the index build and of
/// every parallel stage not handed a lane count — matches; the value is
/// additionally passed to [`map_reads_parallel_with`] as its lane count.
fn thread_count(args: &Args) -> Result<Option<usize>, CliError> {
    if args.has("threads") {
        return Err(CliError::Usage(
            "--threads needs a value (e.g. --threads 4)".into(),
        ));
    }
    match args.get("threads") {
        None => Ok(None),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| CliError::Usage(format!("cannot parse --threads value {v:?}")))?;
            if n == 0 {
                return Err(CliError::Usage("--threads must be at least 1".into()));
            }
            std::env::set_var("RAYON_NUM_THREADS", n.to_string());
            Ok(Some(n))
        }
    }
}

/// Parse `--key N` with a default, rejecting zero — the shared validation
/// for every count-like knob (`--shards`, `--workers`, `--queue`,
/// `--batch`, `--chunk`): a zero would panic or deadlock deep inside the
/// service, so it is refused at the CLI boundary as a usage error.
fn positive_count(args: &Args, key: &str, default: usize) -> Result<usize, CliError> {
    let n: usize = args.get_or(key, default)?;
    if n == 0 {
        return Err(CliError::Usage(format!("--{key} must be at least 1")));
    }
    Ok(n)
}

fn mapper_config(args: &Args) -> Result<(MapperConfig, SketchScheme), CliError> {
    let d = MapperConfig::default();
    let config = MapperConfig {
        k: args.get_or("k", d.k)?,
        w: args.get_or("w", d.w)?,
        trials: args.get_or("trials", d.trials)?,
        ell: args.get_or("ell", d.ell)?,
        seed: args.get_or("seed", d.seed)?,
    };
    config
        .jem_params()
        .map_err(|e| CliError::Usage(format!("invalid configuration: {e}")))?;
    let scheme = match args.get("syncmer") {
        None => SketchScheme::Minimizer { w: config.w },
        Some(v) => {
            let s: usize = v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --syncmer value {v:?}")))?;
            SketchScheme::ClosedSyncmer { s }
        }
    };
    scheme
        .validate(config.k)
        .map_err(|e| CliError::Usage(format!("invalid sketch scheme: {e}")))?;
    Ok((config, scheme))
}

/// `jem index (--subjects contigs.fa | --upgrade old.jem) --out index.jem
///  [--k --w --trials --ell --seed] [--metrics FILE]`
///
/// Writes JEMIDX v5, the only format written. `--upgrade` rewrites an
/// existing artifact (v3, v4 or v5) as v5 — the migration path from the
/// legacy JEMIDX3/JEMIDX4 files to the compact mmap-ready layout. Mapping
/// output is byte-identical either way.
pub fn cmd_index(args: &Args) -> Result<(), CliError> {
    let metrics = metrics_recorder(args)?;
    let out_path = args.req("out")?;
    // `--format v5` names the one format written; anything else must not
    // silently get v5.
    if let Some(format) = args.get("format").filter(|f| *f != "v5") {
        return Err(CliError::Usage(format!(
            "only v5 indexes are written, got --format {format:?} \
             (v3 and v4 files still load, and --upgrade rewrites them as v5)"
        )));
    }
    let mapper = match (args.get("upgrade"), args.get("subjects")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--upgrade and --subjects are mutually exclusive".into(),
            ))
        }
        (Some(old), None) => {
            let mapper = load_index_path(Path::new(old)).map_err(CliError::format(old))?;
            eprintln!(
                "upgrading {old}: {} subjects, {} sketch entries → v5",
                mapper.n_subjects(),
                mapper.table().entry_count()
            );
            mapper
        }
        (None, _) => {
            let subjects = read_sequences(args.req("subjects")?)?;
            let (config, scheme) = mapper_config(args)?;
            eprintln!(
                "indexing {} subjects (k={}, T={}, ell={}, scheme={scheme:?})",
                subjects.len(),
                config.k,
                config.trials,
                config.ell
            );
            JemMapper::build_with_scheme(&subjects, &config, scheme)
        }
    };
    // Atomic persist: the index appears at `--out` only after a complete,
    // fsynced write, so a crash here can never leave a truncated artifact
    // that later fails checksum decode in `jem serve`/`jem map`.
    let mut out = AtomicFile::create(out_path).map_err(CliError::io(out_path))?;
    save_index(&mut out, &mapper).map_err(CliError::format(out_path))?;
    out.commit().map_err(CliError::io(out_path))?;
    eprintln!(
        "wrote {out_path} (v5): {} sketch entries over {} trials",
        mapper.table().entry_count(),
        mapper.config().trials
    );
    if let Some((path, rec)) = metrics {
        write_metrics(&path, rec)?;
    }
    Ok(())
}

/// Load a mapper from `--index` (memory-mapped when the artifact is
/// JEMIDX v5) or build one from `--subjects`.
fn load_or_build_mapper(args: &Args) -> Result<JemMapper, CliError> {
    match (args.get("index"), args.get("subjects")) {
        (Some(path), _) => load_index_path(Path::new(path)).map_err(CliError::format(path)),
        (None, Some(path)) => {
            let (config, scheme) = mapper_config(args)?;
            Ok(JemMapper::build_with_scheme(
                &read_sequences(path)?,
                &config,
                scheme,
            ))
        }
        (None, None) => Err(CliError::Usage("need --index or --subjects".into())),
    }
}

/// Build a stage-2 [`Refiner`] over `subjects`, first checking the contig
/// set actually belongs to `mapper`'s index — coordinate output against
/// the wrong FASTA would silently name the wrong contigs.
fn build_refiner(mapper: &JemMapper, subjects: Vec<SeqRecord>) -> Result<Refiner, CliError> {
    if subjects.len() != mapper.n_subjects() {
        return Err(CliError::Data(format!(
            "--subjects holds {} sequences but the index names {} — not the indexed contig set",
            subjects.len(),
            mapper.n_subjects()
        )));
    }
    for (i, rec) in subjects.iter().enumerate() {
        let expect = mapper.subject_name(i as u32);
        if rec.id != expect {
            return Err(CliError::Data(format!(
                "--subjects disagrees with the index at subject {i}: {:?} vs indexed {expect:?}",
                rec.id
            )));
        }
    }
    Ok(Refiner::new(mapper.scheme(), mapper.config().k, subjects))
}

/// `jem map (--index index.jem | --subjects contigs.fa) --queries reads.fq
///  [--out out.tsv] [--paf out.paf] [--parallel] [--threads N]
///  [--metrics FILE] [config flags]`
///
/// `--paf FILE` additionally runs stage-2 anchor refinement (chained
/// coordinates, strand, MAPQ) and writes standard PAF records. It needs
/// the contig sequences, so `--subjects` is required alongside it even
/// when the stage-1 index comes from `--index`. The default TSV output is
/// byte-identical with or without `--paf` — stage 2 is strictly additive.
pub fn cmd_map(args: &Args) -> Result<(), CliError> {
    let metrics = metrics_recorder(args)?;
    let threads = thread_count(args)?;
    let mapper = load_or_build_mapper(args)?;
    let reads = read_sequences(args.req("queries")?)?;
    eprintln!(
        "mapping {} reads against {} subjects",
        reads.len(),
        mapper.n_subjects()
    );
    // `--threads N` implies the parallel driver (with its width bounded).
    let parallel = args.has("parallel") || threads.is_some();
    let (mappings, paf) = match args.get("paf") {
        None => {
            let mappings = if parallel {
                map_reads_parallel_with(&mapper, &reads, threads)
            } else {
                mapper.map_reads(&reads)
            };
            (mappings, None)
        }
        Some(paf_path) => {
            let subjects_path = args.get("subjects").ok_or_else(|| {
                CliError::Usage(
                    "--paf needs --subjects: stage-2 refinement re-sketches the contig sequences"
                        .into(),
                )
            })?;
            let refiner = build_refiner(&mapper, read_sequences(subjects_path)?)?;
            let pipeline = AnchorPipeline::new(&mapper, &refiner);
            let out = if parallel {
                pipeline.run_parallel(&reads, threads)
            } else {
                pipeline.run(&reads)
            };
            (out.mappings, Some((paf_path, out.paf)))
        }
    };
    eprintln!("{} end segments mapped", mappings.len());
    if let Some((paf_path, rows)) = &paf {
        let mut out = AtomicFile::create(paf_path).map_err(CliError::io(paf_path))?;
        write_paf(&mut out, rows, &reads, mapper.subject_names())
            .map_err(CliError::io(paf_path))?;
        out.commit().map_err(CliError::io(paf_path))?;
        eprintln!(
            "{} segments refined to coordinates → {paf_path}",
            rows.len()
        );
    }
    match args.get("out") {
        Some(path) => {
            let mut out = AtomicFile::create(path).map_err(CliError::io(path))?;
            write_mappings_tsv(&mut out, &mappings, &reads, &mapper)
                .map_err(CliError::format(path))?;
            out.commit().map_err(CliError::io(path))?;
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            write_mappings_tsv(&mut lock, &mappings, &reads, &mapper)
                .map_err(CliError::format("<stdout>"))?;
        }
    }
    if let Some((path, rec)) = metrics {
        write_metrics(&path, rec)?;
    }
    Ok(())
}

/// `jem distributed --subjects contigs.fa --queries reads.fq [--ranks 8]
///  [--fault-plan SPEC] [--retries 3] [--checkpoint FILE] [--threads]
///  [--out out.tsv] [--metrics FILE] [config flags]` — run the S1–S4
///  pipeline on simulated ranks, optionally under an injected fault plan,
///  and report the simulated makespan plus recovery counters.
pub fn cmd_distributed(args: &Args) -> Result<(), CliError> {
    let metrics = metrics_recorder(args)?;
    let subjects = read_sequences(args.req("subjects")?)?;
    let reads = read_sequences(args.req("queries")?)?;
    let (config, scheme) = mapper_config(args)?;
    if !matches!(scheme, SketchScheme::Minimizer { .. }) {
        return Err(CliError::Usage(
            "the distributed driver supports only the minimizer scheme (drop --syncmer)".into(),
        ));
    }
    let p: usize = args.get_or("ranks", 8)?;
    if p == 0 {
        return Err(CliError::Usage("--ranks must be at least 1".into()));
    }
    let plan = match args.get("fault-plan") {
        None => FaultPlan::none(),
        Some(spec) => {
            FaultPlan::parse(spec).map_err(|e| CliError::Usage(format!("bad --fault-plan: {e}")))?
        }
    }
    .with_corruption_seed(args.get_or("corruption-seed", 0u64)?);
    let opts = ResilienceOptions {
        plan,
        max_retries: args.get_or("retries", 3)?,
        checkpoint: args.get("checkpoint").map(std::path::PathBuf::from),
    };
    // `--threads` is a mode switch here (ranks are simulated): bare it
    // selects the threaded executor; with a value it additionally sets
    // the default lane count, exactly as in every other command.
    let mode = if args.has("threads") || thread_count(args)?.is_some() {
        ExecMode::Threaded
    } else {
        ExecMode::Sequential
    };
    eprintln!(
        "distributed run: {} subjects, {} reads on {p} simulated ranks (plan: {})",
        subjects.len(),
        reads.len(),
        opts.plan
    );
    let outcome = run_distributed(
        &subjects,
        &reads,
        &config,
        p,
        CostModel::ethernet_10g(),
        mode,
        &opts,
    )?;

    let b = outcome.breakdown();
    eprintln!(
        "simulated makespan: {:.6} s",
        outcome.report.makespan_secs()
    );
    eprintln!(
        "  input load {:.6}  subject sketch {:.6}  gather {:.6}  table build {:.6}  query map {:.6}",
        b.input_load, b.subject_sketch, b.sketch_gather, b.table_build, b.query_map
    );
    let fs = outcome.report.fault_stats;
    if fs.any() {
        eprintln!("faults/recovery: {fs}");
    }
    eprintln!(
        "{} segments mapped to {} mappings",
        outcome.n_segments,
        outcome.mappings.len()
    );

    if let Some(path) = args.get("out") {
        let names: Vec<String> = subjects.iter().map(|s| s.id.clone()).collect();
        let mut out = AtomicFile::create(path).map_err(CliError::io(path))?;
        write_mappings_tsv_named(&mut out, &outcome.mappings, &reads, &names, config.trials)
            .map_err(CliError::format(path))?;
        out.commit().map_err(CliError::io(path))?;
    }
    if let Some((path, rec)) = metrics {
        write_metrics(&path, rec)?;
    }
    Ok(())
}

/// `jem simulate --out DIR [--genome-len N] [--coverage C] [--profile
///  bacterial|eukaryotic] [--seed S]` — writes genome.fa, contigs.fa,
///  reads.fq and truth.tsv (the Fig. 4 coordinate inputs).
pub fn cmd_simulate(args: &Args) -> Result<(), CliError> {
    let dir = args.req("out")?;
    std::fs::create_dir_all(dir).map_err(CliError::io(dir))?;
    let genome_len: usize = args.get_or("genome-len", 500_000)?;
    let coverage: f64 = args.get_or("coverage", 10.0)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let ell: usize = args.get_or("ell", 1000)?;
    let profile = args.get("profile").unwrap_or("eukaryotic");
    let (gp, cp) = match profile {
        "bacterial" => (
            GenomeProfile::bacterial(genome_len),
            ContigProfile::bacterial(),
        ),
        "eukaryotic" => (
            GenomeProfile::eukaryotic(genome_len),
            ContigProfile::eukaryotic(),
        ),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --profile {other:?} (bacterial|eukaryotic)"
            )))
        }
    };
    let genome = Genome::from_profile("genome", &gp, seed);
    let contigs = fragment_contigs(&genome, &cp, seed + 1);
    let reads = simulate_hifi(
        &genome,
        &HifiProfile {
            coverage,
            ..Default::default()
        },
        seed + 2,
    );

    let join = |name: &str| Path::new(dir).join(name).to_string_lossy().into_owned();
    write_fasta(
        &join("genome.fa"),
        &[SeqRecord::new("genome", genome.seq.clone())],
    )?;
    write_fasta(&join("contigs.fa"), &contig_records(&contigs))?;
    {
        let path = join("reads.fq");
        let mut out = AtomicFile::create(&path).map_err(CliError::io(&path))?;
        {
            let mut w = FastqWriter::new(&mut out);
            for r in &reads {
                w.write_record(&FastqRecord::with_uniform_quality(
                    r.id.clone(),
                    r.seq.clone(),
                    b'K',
                ))
                .map_err(CliError::format(&path))?;
            }
            w.flush().map_err(CliError::format(&path))?;
        }
        out.commit().map_err(CliError::io(&path))?;
    }
    {
        let path = join("truth.tsv");
        let mut out = AtomicFile::create(&path).map_err(CliError::io(&path))?;
        let write = |w: &mut dyn Write| -> std::io::Result<()> {
            writeln!(w, "#kind\tkey\tstart\tend")?;
            for c in &contigs {
                writeln!(w, "S\t{}\t{}\t{}", c.id, c.ref_start, c.ref_end)?;
            }
            for r in &reads {
                let (s, e) = r.segment_ref_range(SegmentEnd::Prefix, ell);
                writeln!(w, "Q\t{}/prefix\t{s}\t{e}", r.id)?;
                if r.len() > ell {
                    let (s, e) = r.segment_ref_range(SegmentEnd::Suffix, ell);
                    writeln!(w, "Q\t{}/suffix\t{s}\t{e}", r.id)?;
                }
            }
            Ok(())
        };
        write(&mut out).map_err(CliError::io(&path))?;
        out.commit().map_err(CliError::io(&path))?;
    }
    eprintln!(
        "wrote {dir}/: genome ({} bp), {} contigs, {} reads, truth.tsv",
        genome.len(),
        contigs.len(),
        reads.len()
    );
    Ok(())
}

/// `jem assemble --reads short.fq --out contigs.fa [--k --min-abundance
///  --min-len --tip-len]` — plus `--simulate-from genome.fa --coverage C`
///  to generate the short reads on the fly.
pub fn cmd_assemble(args: &Args) -> Result<(), CliError> {
    let read_seqs: Vec<Vec<u8>> = match (args.get("reads"), args.get("simulate-from")) {
        (Some(path), _) => read_sequences(path)?.into_iter().map(|r| r.seq).collect(),
        (None, Some(genome_path)) => {
            let genome_recs = read_sequences(genome_path)?;
            let rec = genome_recs
                .first()
                .ok_or_else(|| CliError::Data(format!("{genome_path}: empty genome file")))?;
            let genome = Genome {
                name: rec.id.clone(),
                seq: rec.seq.clone(),
                repeat_regions: Vec::new(),
            };
            let profile = IlluminaProfile {
                coverage: args.get_or("coverage", 30.0)?,
                ..Default::default()
            };
            simulate_illumina(&genome, &profile, args.get_or("seed", 42)?)
                .into_iter()
                .map(|r| r.seq)
                .collect()
        }
        (None, None) => return Err(CliError::Usage("need --reads or --simulate-from".into())),
    };
    let params = jem_dbg::AssemblyParams {
        k: args.get_or("k", 31)?,
        min_abundance: args.get_or("min-abundance", 3)?,
        min_contig_len: args.get_or("min-len", 500)?,
        tip_len: args.get_or("tip-len", 93)?,
    };
    eprintln!(
        "assembling {} reads (k={}, min_abundance={})",
        read_seqs.len(),
        params.k,
        params.min_abundance
    );
    let contigs = jem_dbg::assemble(&read_seqs, &params);
    let stats = AssemblyStats::from_lengths(contigs.iter().map(|c| c.seq.len()));
    eprintln!("{stats}");
    write_fasta(args.req("out")?, &contigs)
}

/// `jem contained (--index FILE | --subjects FILE) --queries reads.fq
///  [--stride ell/2] [--out FILE]` — whole-read tiled mapping: reports every
///  contig a read touches, including contigs contained in its interior
///  (invisible to end-segment mapping).
pub fn cmd_contained(args: &Args) -> Result<(), CliError> {
    let mapper = load_or_build_mapper(args)?;
    let reads = read_sequences(args.req("queries")?)?;
    let stride: usize = args.get_or("stride", mapper.config().ell / 2)?;
    if stride == 0 {
        return Err(CliError::Usage("--stride must be positive".into()));
    }
    let mut rows = Vec::new();
    for read in &reads {
        for h in mapper.contained_hits(&read.seq, stride) {
            rows.push(format!(
                "{}\t{}\t{}\t{}\t{}\t{}",
                read.id,
                mapper.subject_name(h.subject),
                h.first_offset,
                h.last_offset,
                h.windows,
                h.best_hits
            ));
        }
    }
    eprintln!(
        "{} (read, contig) incidences over {} reads",
        rows.len(),
        reads.len()
    );
    let header = "#read\tsubject\tfirst_offset\tlast_offset\twindows\tbest_hits";
    match args.get("out") {
        Some(path) => {
            let mut out = AtomicFile::create(path).map_err(CliError::io(path))?;
            let write = |out: &mut dyn Write| -> std::io::Result<()> {
                writeln!(out, "{header}")?;
                for r in &rows {
                    writeln!(out, "{r}")?;
                }
                Ok(())
            };
            write(&mut out).map_err(CliError::io(path))?;
            out.commit().map_err(CliError::io(path))?;
        }
        None => {
            println!("{header}");
            for r in &rows {
                println!("{r}");
            }
        }
    }
    Ok(())
}

/// Parse a mapping TSV (query, subject, hits, trials) into pairs.
fn read_mapping_pairs(path: &str) -> Result<Vec<(String, String, u32)>, CliError> {
    let file = File::open(path).map_err(CliError::io(path))?;
    let mut out = Vec::new();
    for (no, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(CliError::io(path))?;
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split('\t');
        let q = fields
            .next()
            .ok_or_else(|| CliError::Data(format!("{path}:{}: missing query", no + 1)))?;
        let s = fields
            .next()
            .ok_or_else(|| CliError::Data(format!("{path}:{}: missing subject", no + 1)))?;
        let hits: u32 = fields
            .next()
            .unwrap_or("1")
            .parse()
            .map_err(|_| CliError::Data(format!("{path}:{}: bad hits field", no + 1)))?;
        out.push((q.to_string(), s.to_string(), hits));
    }
    Ok(out)
}

/// `jem eval (--mappings out.tsv | --paf out.paf | both) --truth truth.tsv
///  [--k 16] [--tolerance 100]`
///
/// `--mappings` scores best-contig TSV output with the paper's Fig. 4
/// precision/recall. `--paf` scores stage-2 coordinate output: a record is
/// correct when the contig is a true subject *and* the placement projects
/// to within `--tolerance` bases of the truth start (strand-agnostic).
pub fn cmd_eval(args: &Args) -> Result<(), CliError> {
    let truth_path = args.req("truth")?;
    let k: u64 = args.get_or("k", 16)?;
    let mut queries = Vec::new();
    let mut subjects = Vec::new();
    let file = File::open(truth_path).map_err(CliError::io(truth_path))?;
    for (no, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(CliError::io(truth_path))?;
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 4 {
            return Err(CliError::Data(format!(
                "{truth_path}:{}: expected 4 fields",
                no + 1
            )));
        }
        let start: u64 = fields[2]
            .parse()
            .map_err(|_| CliError::Data(format!("{truth_path}:{}: bad start", no + 1)))?;
        let end: u64 = fields[3]
            .parse()
            .map_err(|_| CliError::Data(format!("{truth_path}:{}: bad end", no + 1)))?;
        match fields[0] {
            "Q" => queries.push((fields[1].to_string(), (start, end))),
            "S" => subjects.push((fields[1].to_string(), (start, end))),
            other => {
                return Err(CliError::Data(format!(
                    "{truth_path}:{}: unknown kind {other:?}",
                    no + 1
                )))
            }
        }
    }
    if args.get("mappings").is_none() && args.get("paf").is_none() {
        return Err(CliError::Usage("need --mappings or --paf (or both)".into()));
    }
    if let Some(mappings_path) = args.get("mappings") {
        let bench = Benchmark::from_coordinates(&queries, &subjects, k);
        let pairs: Vec<(String, String)> = read_mapping_pairs(mappings_path)?
            .into_iter()
            .map(|(q, s, _)| (q, s))
            .collect();
        let m = MappingMetrics::classify(&pairs, &bench);
        println!(
            "precision\t{:.4}\nrecall\t{:.4}\nf1\t{:.4}\ntp\t{}\nfp\t{}\nfn\t{}",
            m.precision(),
            m.recall(),
            m.f1(),
            m.tp,
            m.fp,
            m.fn_
        );
    }
    if let Some(paf_path) = args.get("paf") {
        let tolerance: u64 = args.get_or("tolerance", 100)?;
        let text = std::fs::read_to_string(paf_path).map_err(CliError::io(paf_path))?;
        let records = parse_paf(&text).map_err(|e| CliError::Data(format!("{paf_path}: {e}")))?;
        let acc = PafAccuracy::classify(&records, &queries, &subjects, k, tolerance);
        println!(
            "paf_accuracy\t{:.4}\npaf_recall\t{:.4}\npaf_mean_offset\t{:.2}\n\
             paf_records\t{}\npaf_correct\t{}\npaf_wrong_contig\t{}\npaf_wrong_position\t{}\n\
             paf_unknown_query\t{}\npaf_missed\t{}",
            acc.accuracy(),
            acc.recall(),
            acc.mean_offset(),
            acc.records,
            acc.correct,
            acc.wrong_contig,
            acc.wrong_position,
            acc.unknown_query,
            acc.missed
        );
    }
    Ok(())
}

/// `jem scaffold --subjects contigs.fa --mappings out.tsv --out scaffolds.fa
///  [--min-support 2] [--gap 100]`
pub fn cmd_scaffold(args: &Args) -> Result<(), CliError> {
    let contigs = read_sequences(args.req("subjects")?)?;
    let name_to_id: std::collections::HashMap<&str, u32> = contigs
        .iter()
        .enumerate()
        .map(|(i, c)| (c.id.as_str(), i as u32))
        .collect();
    let raw = read_mapping_pairs(args.req("mappings")?)?;
    let mut read_ids: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
    let mut mappings = Vec::new();
    for (q, s, hits) in &raw {
        let (read, end) = q
            .rsplit_once('/')
            .ok_or_else(|| CliError::Data(format!("query key {q:?} lacks /prefix or /suffix")))?;
        let end = match end {
            "prefix" => ReadEnd::Prefix,
            "suffix" => ReadEnd::Suffix,
            other => {
                return Err(CliError::Data(format!(
                    "unknown read end {other:?} in {q:?}"
                )))
            }
        };
        let next = read_ids.len() as u32;
        let read_idx = *read_ids.entry(read.to_string()).or_insert(next);
        let subject = *name_to_id
            .get(s.as_str())
            .ok_or_else(|| CliError::Data(format!("mapping references unknown contig {s:?}")))?;
        mappings.push(Mapping {
            read_idx,
            end,
            subject,
            hits: *hits,
        });
    }
    let params = ScaffoldParams {
        min_support: args.get_or("min-support", 2)?,
        gap_n: args.get_or("gap", 100)?,
    };
    let scaffolds = scaffold(&mappings, &contigs, &params);
    let before = AssemblyStats::from_lengths(contigs.iter().map(|c| c.seq.len()));
    let after = AssemblyStats::from_lengths(scaffolds.iter().map(|s| s.seq.len()));
    eprintln!("contigs:   {before}");
    eprintln!("scaffolds: {after}");
    write_fasta(args.req("out")?, &scaffolds)
}

/// Map a serving-layer failure onto the CLI error taxonomy. Quota
/// refusals keep their type (and retry hint) so the process exits with
/// `EX_TEMPFAIL` instead of a generic failure.
fn serve_err(e: jem_serve::ServeError) -> CliError {
    match e {
        jem_serve::ServeError::Throttled { retry_after } => CliError::Throttled { retry_after },
        other => CliError::Data(format!("serve: {other}")),
    }
}

/// Parse the `--quota-rate`/`--quota-burst` pair shared by `jem serve`
/// and `jem route` into a validated [`jem_serve::QuotaConfig`].
fn quota_config(args: &Args) -> Result<jem_serve::QuotaConfig, CliError> {
    let quota = jem_serve::QuotaConfig {
        rate: args.get_or("quota-rate", 0.0f64)?,
        burst: args.get_or("quota-burst", 0.0f64)?,
    };
    quota
        .validate()
        .map_err(|e| CliError::Usage(format!("--quota-rate/--quota-burst: {e}")))?;
    Ok(quota)
}

/// Parse a `LO-HI` half-open slot range (for `jem serve --slots`).
fn parse_slot_range(spec: &str, n_slots: usize) -> Result<std::ops::Range<usize>, CliError> {
    let bad = || {
        CliError::Usage(format!(
            "--slots must be LO-HI with 0 <= LO < HI <= --shards ({n_slots}), got {spec:?}"
        ))
    };
    let (lo, hi) = spec.split_once('-').ok_or_else(bad)?;
    let lo: usize = lo.trim().parse().map_err(|_| bad())?;
    let hi: usize = hi.trim().parse().map_err(|_| bad())?;
    if lo >= hi || hi > n_slots {
        return Err(bad());
    }
    Ok(lo..hi)
}

/// `jem serve --index index.jem [--addr 127.0.0.1:7878] [--shards 4]
///  [--slots LO-HI] [--workers 4] [--queue 64] [--batch 16] [--prefault]
///  [--quota-rate TOKENS/S [--quota-burst N]] [--max-conns 256]
///  [--max-inflight 32] [--idle-timeout-ms 2000] [--metrics FILE]
///  [--straggle-ms 0] [--panic-every 0]` — load a persisted index into a
///  shard-partitioned resident table and serve mapping requests until a
///  remote `jem query --shutdown`. The shutdown drains every admitted
///  request, then the final metrics snapshot is written to `--metrics`.
///
/// `--quota-rate` turns on per-client admission control (token-bucket,
/// one token per mapped segment, keyed by `jem query --client-id`);
/// over-quota v3 clients are answered `Throttled` with a retry hint,
/// older clients `Busy`. `--max-conns` bounds concurrent connections,
/// `--max-inflight` bounds queued requests per connection, and
/// `--idle-timeout-ms` reaps connections that go quiet mid-handshake
/// (slow-loris defense).
///
/// `--slots LO-HI` makes this process one shard of a router topology: it
/// keeps only the sketch entries hashing into that slice of the
/// `--shards`-slot space and answers the router's `MapPartial` requests
/// from it (every shard of a topology must agree on `--shards`).
///
/// The index is loaded and checksum-validated *before* the listen socket
/// binds: a bad `--index` fails fast with a nonzero exit instead of
/// accepting connections it could never answer.
pub fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let index_path = args.req("index")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let shards = positive_count(args, "shards", 4)?;
    let owned = match args.get("slots") {
        None => 0..shards,
        Some(spec) => parse_slot_range(spec, shards)?,
    };
    let config = jem_serve::ServerConfig {
        workers: positive_count(args, "workers", 4)?,
        queue_cap: positive_count(args, "queue", 64)?,
        batch: positive_count(args, "batch", 16)?,
        straggle_ms: args.get_or("straggle-ms", 0u64)?,
        panic_every: args.get_or("panic-every", 0u64)?,
        quota: quota_config(args)?,
        max_conns: positive_count(args, "max-conns", 256)?,
        max_inflight: positive_count(args, "max-inflight", 32)?,
        idle_timeout: std::time::Duration::from_millis(positive_count(
            args,
            "idle-timeout-ms",
            2_000,
        )? as u64),
        ..Default::default()
    };
    // `--prefault` advises the kernel the whole index mapping will be needed
    // and touches every page at load time, trading a slower start for no
    // first-query page-fault stalls. Behavior is otherwise identical.
    let mapper = load_index_path_opts(Path::new(index_path), Integrity::Full, args.has("prefault"))
        .map_err(CliError::format(index_path))?;
    eprintln!(
        "loaded {index_path}: {} subjects, {} sketch entries → slots {}-{} of {shards}",
        mapper.n_subjects(),
        mapper.table().entry_count(),
        owned.start,
        owned.end
    );
    let sharded = jem_serve::ShardedIndex::with_slots(mapper, shards, owned);
    let handle = jem_serve::start(sharded, addr, &config).map_err(serve_err)?;
    eprintln!(
        "serving on {} ({} workers, queue {}, batch {})",
        handle.addr(),
        config.workers,
        config.queue_cap,
        config.batch
    );
    eprintln!("stop with: jem query --addr {} --shutdown", handle.addr());
    let snapshot = handle.join();
    if let Some(path) = args.get("metrics") {
        write_file_atomic(path, snapshot.to_json().as_bytes())?;
        eprintln!("metrics snapshot written to {path}");
    }
    eprintln!("server drained and stopped");
    Ok(())
}

/// `jem route --topology "LO-HI@ADDR[,REPLICA];..." [--addr 127.0.0.1:7979]
///  [--epoch 0] [--hedge-ms 50] [--breaker-failures 3]
///  [--breaker-cooldown-ms 250] [--deadline MS] [--io-timeout-ms 10000]
///  [--quota-rate TOKENS/S [--quota-burst N]] [--max-inflight 256]
///  [--max-conns 1024] [--idle-timeout-ms 2000] [--pool-idle 4]
///  [--pool-age-ms 1500]
///  [--metrics FILE] [--snapshot FILE]` — front a set of `jem serve
///  --slots` shard processes with a scatter-gather router: full answers
///  are byte-identical to a single-process `jem serve`; when shards are
///  down the router answers typed errors (strict queries) or degraded
///  answers naming the missing shard ids (`jem query --allow-degraded`).
///
/// `--hedge-ms 0` disables hedged retries; `--deadline MS` caps every
/// query's budget router-side (the remaining budget is forwarded to the
/// shards). `--quota-rate` turns on per-client admission control at the
/// router's front door, `--max-inflight` caps concurrently dispatched
/// queries, and `--max-conns` caps live ingress connections (excess
/// answered `Busy` and closed). Shard fetches reuse pooled keep-alive
/// connections:
/// `--pool-idle` bounds the idle set per shard endpoint (0 disables
/// reuse) and `--pool-age-ms` retires a socket before the shard's own
/// idle reaper would (keep it below the shards' `--idle-timeout-ms`).
/// Runs until `jem query --addr <router> --shutdown`; the final metrics
/// go to `--metrics` and a topology + breaker-state report to
/// `--snapshot` (both written atomically).
pub fn cmd_route(args: &Args) -> Result<(), CliError> {
    let topology = args.req("topology")?;
    let registry = jem_serve::ShardRegistry::parse(topology)
        .map_err(serve_err)?
        .with_epoch(args.get_or("epoch", 0u64)?);
    let addr = args.get("addr").unwrap_or("127.0.0.1:7979");
    let hedge_ms: u64 = args.get_or("hedge-ms", 50u64)?;
    let breaker_failures = positive_count(args, "breaker-failures", 3)? as u32;
    let cooldown_ms = positive_count(args, "breaker-cooldown-ms", 250)? as u64;
    let deadline_ms: u64 = args.get_or("deadline", 0u64)?;
    let config = jem_serve::RouterConfig {
        io_timeout: std::time::Duration::from_millis(
            positive_count(args, "io-timeout-ms", 10_000)? as u64,
        ),
        hedge_after: (hedge_ms > 0).then(|| std::time::Duration::from_millis(hedge_ms)),
        breaker_failures,
        breaker_cooldown: jem_serve::RetryPolicy::new(
            8,
            std::time::Duration::from_millis(cooldown_ms),
        ),
        deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        quota: quota_config(args)?,
        max_inflight: positive_count(args, "max-inflight", 256)?,
        max_conns: positive_count(args, "max-conns", 1_024)?,
        idle_timeout: std::time::Duration::from_millis(positive_count(
            args,
            "idle-timeout-ms",
            2_000,
        )? as u64),
        pool_max_idle: args.get_or("pool-idle", 4usize)?,
        pool_max_age: std::time::Duration::from_millis(
            positive_count(args, "pool-age-ms", 1_500)? as u64
        ),
    };
    let (n_shards, n_slots) = (registry.len(), registry.n_slots());
    let handle = jem_serve::start_router(registry, addr, &config).map_err(serve_err)?;
    eprintln!(
        "routing on {} across {n_shards} shards ({n_slots} slots); \
         hedge {}, breaker opens after {breaker_failures} failures",
        handle.addr(),
        if hedge_ms > 0 {
            format!("after {hedge_ms} ms")
        } else {
            "off".into()
        }
    );
    eprintln!("stop with: jem query --addr {} --shutdown", handle.addr());
    let report = handle.join();
    if let Some(path) = args.get("metrics") {
        write_file_atomic(path, report.metrics.to_json().as_bytes())?;
        eprintln!("metrics snapshot written to {path}");
    }
    if let Some(path) = args.get("snapshot") {
        write_file_atomic(path, report.status.as_bytes())?;
        eprintln!("status snapshot written to {path}");
    }
    eprintln!("router stopped");
    Ok(())
}

/// `jem query --addr HOST:PORT (--queries reads.fq | --queries - | --ping |
///  --shutdown | --reload FILE) [--client-id NAME] [--chunk 64]
///  [--deadline MS] [--out FILE] [--paf FILE --subjects contigs.fa]
///  [--via-router [--allow-degraded]]`
///  — map reads through a running `jem serve`. The index parameters
///  (segment length, subject names, trial count) come from the server's
///  `Info` response, so the rendered TSV is byte-identical to an offline
///  `jem map` against the same index. `--reload FILE` asks the server to
///  hot-swap its resident index (the path is resolved on the *server's*
///  filesystem); `--deadline MS` attaches a queue deadline to each mapping
///  request so an overloaded server sheds it instead of serving it late.
///
/// `--client-id NAME` identifies this invocation to quota-enforcing
/// servers (requests ride a v3 tagged envelope); an over-quota reply is a
/// typed `Throttled` whose retry hint the built-in retries honor, and an
/// exhausted retry budget exits 75 (`EX_TEMPFAIL`) rather than 1.
///
/// `--via-router` declares that `--addr` points at a `jem route` front-end;
/// with `--allow-degraded` on top, queries accept partial answers when
/// shards are down — any missing shard ids are reported on stderr and the
/// exit stays 0 (an answer with named gaps beats no answer). Without
/// `--allow-degraded`, a router with missing shards fails the query with a
/// typed error naming them.
pub fn cmd_query(args: &Args) -> Result<(), CliError> {
    let addr = args.req("addr")?;
    let via_router = args.has("via-router");
    let allow_degraded = args.has("allow-degraded");
    if allow_degraded && !via_router {
        return Err(CliError::Usage(
            "--allow-degraded needs --via-router: degraded answers come from the router tier"
                .into(),
        ));
    }
    let mut client = jem_serve::Client::new(addr);
    if let Some(id) = args.get("client-id") {
        if id.len() > jem_serve::MAX_CLIENT_ID {
            return Err(CliError::Usage(format!(
                "--client-id must be at most {} bytes, got {}",
                jem_serve::MAX_CLIENT_ID,
                id.len()
            )));
        }
        client = client.with_client_id(id);
    }
    if args.has("ping") {
        client.ping().map_err(serve_err)?;
        eprintln!("pong from {addr}");
        return Ok(());
    }
    if args.has("shutdown") {
        client.shutdown_server().map_err(serve_err)?;
        eprintln!("server at {addr} is shutting down");
        return Ok(());
    }
    if let Some(path) = args.get("reload") {
        let summary = client.reload(path).map_err(serve_err)?;
        eprintln!("server at {addr} reloaded: {summary}");
        return Ok(());
    }
    if let Some(ms) = args.get("deadline") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| CliError::Usage(format!("--deadline must be milliseconds, got {ms:?}")))?;
        client = client.with_deadline(std::time::Duration::from_millis(ms));
    }
    let chunk = positive_count(args, "chunk", 64)?;
    let reads = read_sequences(args.req("queries")?)?;
    let info = client.info().map_err(serve_err)?;
    let segments = make_segments(&reads, info.config.ell);
    eprintln!(
        "querying {addr}: {} reads → {} end segments (ell={}, {} subjects served)",
        reads.len(),
        segments.len(),
        info.config.ell,
        info.subject_names.len()
    );
    let mut mappings: Vec<Mapping> = Vec::new();
    let mut missing: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for part in segments.chunks(chunk) {
        if allow_degraded {
            let (chunk_mappings, gaps) = client
                .map_segments_degraded_retry(part, 10, std::time::Duration::from_millis(50))
                .map_err(serve_err)?;
            mappings.extend(chunk_mappings);
            missing.extend(gaps);
        } else {
            mappings.extend(
                client
                    .map_segments_retry(part, 10, std::time::Duration::from_millis(50))
                    .map_err(serve_err)?,
            );
        }
    }
    // Chunks arrive individually sorted; restore the documented global
    // total order so the TSV matches the offline driver byte for byte.
    mappings.sort_unstable();
    eprintln!("{} end segments mapped", mappings.len());
    if let Some(paf_path) = args.get("paf") {
        // Client-side stage 2: the server answers best-contig only, so the
        // client re-sketches its local copy of the contig set (validated
        // against the served name table) and refines each served hit into
        // coordinates. MAPQ margins here see one candidate contig per
        // segment — within-contig competitors only.
        let subjects_path = args.get("subjects").ok_or_else(|| {
            CliError::Usage(
                "--paf needs --subjects: stage-2 refinement runs client-side over the contig \
                 sequences"
                    .into(),
            )
        })?;
        let subjects = read_sequences(subjects_path)?;
        if subjects.len() != info.subject_names.len() {
            return Err(CliError::Data(format!(
                "--subjects holds {} sequences but the server names {}",
                subjects.len(),
                info.subject_names.len()
            )));
        }
        for (rec, served) in subjects.iter().zip(&info.subject_names) {
            if rec.id != *served {
                return Err(CliError::Data(format!(
                    "--subjects disagrees with the served index: {:?} vs served {served:?}",
                    rec.id
                )));
            }
        }
        let refiner = Refiner::new(info.scheme, info.config.k, subjects);
        let by_key: std::collections::HashMap<(u32, ReadEnd), usize> = segments
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.read_idx, s.end), i))
            .collect();
        let mut scratch = RefineScratch::default();
        let mut stats = RefineStats::default();
        let mut rows: Vec<PafRow> = Vec::new();
        for m in &mappings {
            let Some(&i) = by_key.get(&(m.read_idx, m.end)) else {
                continue;
            };
            let seg = &segments[i];
            if let Some(p) =
                refiner.refine_segment(&seg.seq, &[(m.subject, m.hits)], &mut scratch, &mut stats)
            {
                let placed = Mapping {
                    subject: p.subject,
                    hits: p.hits,
                    ..*m
                };
                rows.push(PafRow::from_placement(
                    &placed,
                    &p,
                    seg.seq.len(),
                    info.config.k,
                ));
            }
        }
        let rec = jem_obs::recorder();
        if rec.enabled() {
            stats.flush(rec);
        }
        let mut out = AtomicFile::create(paf_path).map_err(CliError::io(paf_path))?;
        write_paf(&mut out, &rows, &reads, &info.subject_names).map_err(CliError::io(paf_path))?;
        out.commit().map_err(CliError::io(paf_path))?;
        eprintln!(
            "{} segments refined to coordinates → {paf_path}",
            rows.len()
        );
    }
    if !missing.is_empty() {
        eprintln!(
            "WARNING: degraded answer — shards {:?} were missing from the merge; \
             segments whose collisions live in those slot ranges may be absent or weaker",
            missing.iter().collect::<Vec<_>>()
        );
    }
    match args.get("out") {
        Some(path) => {
            let mut out = AtomicFile::create(path).map_err(CliError::io(path))?;
            write_mappings_tsv_named(
                &mut out,
                &mappings,
                &reads,
                &info.subject_names,
                info.config.trials,
            )
            .map_err(CliError::format(path))?;
            out.commit().map_err(CliError::io(path))?;
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            write_mappings_tsv_named(
                &mut lock,
                &mappings,
                &reads,
                &info.subject_names,
                info.config.trials,
            )
            .map_err(CliError::format("<stdout>"))?;
        }
    }
    Ok(())
}
