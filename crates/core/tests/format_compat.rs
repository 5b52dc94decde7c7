//! JEMIDX v5 ⇄ v4 ⇄ v3 format-compatibility suite.
//!
//! Pins the guarantees of the compact v5 layout and its legacy readers:
//!
//! * the committed v3 and v4 fixtures and their v5 upgrade produce
//!   **byte-identical** mapping TSV output, equal to the committed expected
//!   TSV, and both upgrades reproduce the committed v5 artifact byte for
//!   byte;
//! * building the fixture's contigs from scratch writes that same v5
//!   artifact — the sort-based builder is pinned to the committed bytes;
//! * save → load (mmap path) → save is **byte-identical** — the canonical
//!   writer makes the artifact a fixed point of the round trip;
//! * every single-byte flip of the v5 fixture is rejected, and the
//!   corrupt and truncated (v4) fixtures fail with typed errors;
//! * corrupt or truncated artifacts fail with typed errors, never panics
//!   — fuzzed here with proptest over random bit flips and truncations,
//!   mirroring the `fuzz_frames` discipline of the serve protocol.

use jem_check::prelude::*;
use jem_core::{
    load_index, load_index_path, save_index, write_mappings_tsv, JemMapper, MapperConfig,
};
use jem_seq::{FastaReader, FastqReader, FastqRecord, SeqRecord};
use std::io::{Cursor, Read};
use std::path::{Path, PathBuf};

/// A committed artifact of the format-compat fixtures.
fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/format-compat")
        .join(name)
}

fn fixture_reads() -> Vec<SeqRecord> {
    let bytes = std::fs::read(fixture("reads.fq")).unwrap();
    FastqReader::new(bytes.as_slice())
        .read_all()
        .unwrap()
        .into_iter()
        .map(FastqRecord::into_seq_record)
        .collect()
}

fn tsv(mapper: &JemMapper, reads: &[SeqRecord]) -> Vec<u8> {
    let mappings = mapper.map_reads(reads);
    let mut out = Vec::new();
    write_mappings_tsv(&mut out, &mappings, reads, mapper).unwrap();
    out
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn v5_bytes(mapper: &JemMapper) -> Vec<u8> {
    let mut out = Vec::new();
    save_index(&mut out, mapper).unwrap();
    out
}

#[test]
fn legacy_fixtures_and_their_v5_upgrade_map_byte_identically() {
    let reads = fixture_reads();
    let expected = std::fs::read(fixture("expected.tsv")).unwrap();
    let committed = std::fs::read(fixture("index_v5.jem")).unwrap();
    for legacy in ["index_v3.jem", "index_v4.jem"] {
        let old = load_index_path(fixture(legacy)).unwrap();
        assert!(tsv(&old, &reads) == expected, "{legacy} output drifted");
        // The upgrade path: what `jem index --upgrade` does.
        assert!(
            v5_bytes(&old) == committed,
            "the {legacy} upgrade must reproduce the committed v5 artifact"
        );
    }
    let from_v5 = load_index_path(fixture("index_v5.jem")).unwrap();
    assert!(
        tsv(&from_v5, &reads) == expected,
        "the v5 artifact changed mapping output"
    );
}

#[test]
fn building_the_fixture_contigs_writes_the_committed_v5() {
    let committed = load_index_path(fixture("index_v5.jem")).unwrap();
    let bytes = std::fs::read(fixture("contigs.fa")).unwrap();
    let contigs = FastaReader::new(bytes.as_slice()).read_all().unwrap();
    let built = JemMapper::build_with_scheme(&contigs, committed.config(), committed.scheme());
    assert!(
        v5_bytes(&built) == std::fs::read(fixture("index_v5.jem")).unwrap(),
        "a fresh build of the fixture contigs must write the committed v5 bytes"
    );
}

#[test]
fn save_mmap_load_save_is_a_byte_fixed_point() {
    let committed = std::fs::read(fixture("index_v5.jem")).unwrap();
    let path = tmp("compat-fixed-point.jem");
    std::fs::write(&path, &committed).unwrap();
    let reloaded = load_index_path(&path).unwrap();
    assert!(
        v5_bytes(&reloaded) == committed,
        "canonical writer must make save→load→save the identity"
    );
    // And the upgrade of an upgrade is still the same file.
    let twice = load_index_path(&path).unwrap();
    assert!(v5_bytes(&twice) == committed);
}

/// A reader that hands out at most 3 bytes per call, as `Read::read` may.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(3).min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

#[test]
fn short_reads_load_the_v5_fixture_like_the_path_load() {
    let committed = std::fs::read(fixture("index_v5.jem")).unwrap();
    let streamed = load_index(&mut Trickle(&committed)).unwrap();
    let from_path = load_index_path(fixture("index_v5.jem")).unwrap();
    let reads = fixture_reads();
    assert!(tsv(&streamed, &reads) == tsv(&from_path, &reads));
    assert!(v5_bytes(&streamed) == committed);
}

#[test]
fn upgrading_legacy_files_twice_is_deterministic() {
    for legacy in ["index_v3.jem", "index_v4.jem"] {
        let old = std::fs::read(fixture(legacy)).unwrap();
        let a = v5_bytes(&load_index(&mut Cursor::new(&old)).unwrap());
        let b = v5_bytes(&load_index(&mut Cursor::new(&old)).unwrap());
        assert!(a == b, "{legacy} upgrade must be deterministic");
    }
}

#[test]
fn every_single_byte_flip_of_the_v5_fixture_is_rejected() {
    let committed = std::fs::read(fixture("index_v5.jem")).unwrap();
    assert!(load_index(&mut Cursor::new(&committed)).is_ok());
    let mut bytes = committed.clone();
    for i in 0..bytes.len() {
        bytes[i] ^= 0x01;
        assert!(
            load_index(&mut Cursor::new(&bytes)).is_err(),
            "flip of byte {i} went undetected"
        );
        bytes[i] ^= 0x01;
    }
}

#[test]
fn corrupt_and_truncated_v4_fixtures_are_typed_errors() {
    for bad in ["corrupt_header.jem", "truncated.jem"] {
        let bytes = std::fs::read(fixture(bad)).unwrap();
        assert_eq!(&bytes[..8], b"JEMIDX4\0", "{bad} is a v4 fixture");
        assert!(load_index_path(fixture(bad)).is_err(), "{bad} loaded");
        assert!(
            load_index(&mut Cursor::new(&bytes)).is_err(),
            "{bad} loaded"
        );
    }
}

/// A small-but-real v5 artifact for the fuzz cases below (cheaper than
/// `world()` per proptest case; built once).
fn small_v5() -> Vec<u8> {
    let subjects = vec![
        SeqRecord::new(
            "c0",
            b"ACGTACGTACGGTTACGGATCCGTAGGCTAACGTACCGTAGGCATCAGT".to_vec(),
        ),
        SeqRecord::new(
            "c1",
            b"TTGACCATGGACCGTATTGCACCGGATGCAACGGTATCAGGCCATGATC".to_vec(),
        ),
    ];
    let config = MapperConfig {
        k: 9,
        w: 6,
        trials: 4,
        ell: 40,
        seed: 5,
    };
    v5_bytes(&JemMapper::build(&subjects, &config))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single bit flip anywhere in a v5 artifact is rejected with a
    /// typed error: the whole-file checksum covers the body, and the
    /// three uncovered header words (magic, length, checksum itself) are
    /// each validated directly.
    #[test]
    fn any_single_bit_flip_is_rejected(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = small_v5();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            load_index(&mut Cursor::new(&bytes)).is_err(),
            "flip at byte {pos} bit {bit} must be rejected"
        );
    }

    /// Any truncation is rejected — no prefix of a valid artifact is a
    /// valid artifact. The loader must return, not panic.
    #[test]
    fn any_truncation_is_rejected(len_frac in 0.0f64..1.0) {
        let bytes = small_v5();
        let len = (bytes.len() as f64 * len_frac) as usize;
        prop_assert!(len < bytes.len());
        prop_assert!(load_index(&mut Cursor::new(&bytes[..len])).is_err());
    }

    /// Arbitrary multi-byte corruption never panics the loader — the
    /// validator bounds every section and every posting range before any
    /// of it is dereferenced. (A result is allowed; a panic is not.)
    #[test]
    fn random_corruption_never_panics(
        edits in prop::collection::vec((0.0f64..1.0, 1u8..=255), 1..16),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut bytes = small_v5();
        for (frac, mask) in edits {
            let pos = ((bytes.len() - 1) as f64 * frac) as usize;
            bytes[pos] ^= mask;
        }
        let keep = ((bytes.len() as f64) * cut_frac) as usize;
        bytes.truncate(keep.max(1));
        let _ = load_index(&mut Cursor::new(&bytes));
    }

    /// The same discipline holds on the path loader (mmap route): random
    /// corruption of the file on disk yields an error, never a panic.
    #[test]
    fn corrupt_files_fail_typed_on_the_mmap_path(pos_frac in 0.0f64..1.0, mask in 1u8..=255) {
        let mut bytes = small_v5();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= mask;
        let path = tmp("compat-fuzz-mmap.jem");
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(load_index_path(&path).is_err());
    }
}
