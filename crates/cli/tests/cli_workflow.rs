//! Drives the `jem` binary end to end through temp files.

use std::path::PathBuf;
use std::process::Command;

fn jem() -> Command {
    Command::new(env!("CARGO_BIN_EXE_jem"))
}

fn run(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn jem");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jem_cli_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow() {
    let dir = workdir("full");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "120000", "--coverage", "5", "--seed", "7"]));
    for f in ["genome.fa", "contigs.fa", "reads.fq", "truth.tsv"] {
        assert!(dir.join(f).exists(), "{f} missing");
    }

    run(jem().args([
        "index",
        "--subjects",
        &p("contigs.fa"),
        "--out",
        &p("index.jem"),
    ]));
    assert!(dir.join("index.jem").exists());

    run(jem().args([
        "map",
        "--index",
        &p("index.jem"),
        "--queries",
        &p("reads.fq"),
        "--out",
        &p("map.tsv"),
    ]));
    let tsv = std::fs::read_to_string(p("map.tsv")).unwrap();
    assert!(tsv.starts_with("#query\tsubject"), "TSV header missing");
    assert!(tsv.lines().count() > 10, "suspiciously few mappings");

    let eval_out = run(jem().args([
        "eval",
        "--mappings",
        &p("map.tsv"),
        "--truth",
        &p("truth.tsv"),
    ]));
    let precision: f64 = eval_out
        .lines()
        .find_map(|l| l.strip_prefix("precision\t"))
        .expect("precision line")
        .parse()
        .unwrap();
    assert!(precision > 0.9, "CLI pipeline precision {precision}");

    run(jem().args([
        "scaffold",
        "--subjects",
        &p("contigs.fa"),
        "--mappings",
        &p("map.tsv"),
        "--out",
        &p("scaffolds.fa"),
    ]));
    let scaffolds = std::fs::read_to_string(p("scaffolds.fa")).unwrap();
    assert!(scaffolds.contains(">scaffold_0"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn map_without_prebuilt_index() {
    let dir = workdir("noindex");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "60000", "--coverage", "3", "--seed", "9"]));
    let out = run(jem().args([
        "map",
        "--subjects",
        &p("contigs.fa"),
        "--queries",
        &p("reads.fq"),
    ]));
    assert!(out.starts_with("#query"), "stdout TSV expected");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn assemble_from_genome() {
    let dir = workdir("asm");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "50000", "--coverage", "2", "--seed", "3"]));
    run(jem().args([
        "assemble",
        "--simulate-from",
        &p("genome.fa"),
        "--out",
        &p("asm.fa"),
        "--coverage",
        "25",
    ]));
    let asm = std::fs::read_to_string(p("asm.fa")).unwrap();
    assert!(asm.contains(">contig_0"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn contained_reports_incidences() {
    let dir = workdir("contained");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "80000", "--coverage", "3", "--seed", "5"]));
    let out = run(jem().args([
        "contained",
        "--subjects",
        &p("contigs.fa"),
        "--queries",
        &p("reads.fq"),
    ]));
    assert!(
        out.starts_with("#read\tsubject"),
        "header expected, got {out:.60}"
    );
    // Tiling must report at least as many incidences as reads (each read
    // touches >= 1 contig with 95% contig coverage).
    assert!(out.lines().count() > 10);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported() {
    let out = jem()
        .args(["map", "--queries", "/nonexistent"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    for argv in [&["frobnicate"][..], &["bench", "sketch"]] {
        let out = jem().args(argv).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    }

    let out = jem().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn help_prints_usage() {
    let out = run(jem().arg("help"));
    assert!(out.contains("USAGE"));
    for cmd in ["index", "map", "simulate", "assemble", "eval", "scaffold"] {
        assert!(out.contains(cmd), "{cmd} missing from help");
    }
}

#[test]
fn index_writes_only_v5() {
    let dir = workdir("format");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let contigs = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/format-compat/contigs.fa"
    );
    // `--format v5` is accepted and writes the same file as no flag.
    run(jem().args(["index", "--subjects", contigs, "--out", &p("a.jem")]));
    run(jem()
        .args(["index", "--subjects", contigs, "--out", &p("b.jem")])
        .args(["--format", "v5"]));
    assert_eq!(
        std::fs::read(p("a.jem")).unwrap(),
        std::fs::read(p("b.jem")).unwrap()
    );
    // Any other format is a usage error (exit 2) that writes nothing and
    // points at the upgrade path.
    for old in ["v3", "v4"] {
        let out = jem()
            .args(["index", "--subjects", contigs, "--out", &p("c.jem")])
            .args(["--format", old])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("only v5"), "{stderr}");
        assert!(stderr.contains("--upgrade"), "{stderr}");
        assert!(!dir.join("c.jem").exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_out_equals_map_out() {
    let dir = workdir("distributed");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    run(jem()
        .args(["simulate", "--out", dir.to_str().unwrap()])
        .args(["--genome-len", "120000", "--coverage", "4", "--seed", "11"]));
    let inputs = ["--subjects", &p("contigs.fa"), "--queries", &p("reads.fq")];
    run(jem().arg("map").args(inputs).args(["--out", &p("map.tsv")]));
    let expected = std::fs::read(p("map.tsv")).unwrap();
    assert!(expected.split(|&b| b == b'\n').count() > 10);
    for plan in [None, Some("crash@1:query map,corrupt@2:subject sketch")] {
        let mut cmd = jem();
        cmd.arg("distributed")
            .args(inputs)
            .args(["--ranks", "4", "--out", &p("dist.tsv")]);
        if let Some(plan) = plan {
            cmd.args(["--fault-plan", plan]);
        }
        run(&mut cmd);
        let got = std::fs::read(p("dist.tsv")).unwrap();
        assert!(got == expected, "plan {plan:?}: distributed TSV differs");
    }
    std::fs::remove_dir_all(&dir).ok();
}
