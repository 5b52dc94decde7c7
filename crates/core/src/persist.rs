//! Index persistence: save/load a built [`JemMapper`] so the subject
//! sketching cost is paid once per contig set.
//!
//! # JEMIDX v5 — the current format
//!
//! The whole file is a sequence of little-endian `u64` words; the table
//! section *is* the in-memory [`jem_index::FlatTable`] layout (per trial,
//! a slot array with single postings inline plus an arena for shared
//! codes), so loading is validation plus a wrap — no decode, no rebuild,
//! and over `mmap` no copy at all.
//!
//! ```text
//! word  0      magic  b"JEMIDX5\0"
//! word  1      file_words — total length of the file in words
//! word  2      fnv1a64 over the little-endian bytes of words[3..]
//! word  3      config_hash: fnv1a64 over the bytes of words[4..11]
//! words 4..9   config: k, w, trials, ell, seed
//! words 9..11  scheme tag (0 = minimizer, 1 = closed syncmer), param
//! word  11     n_subjects
//! words 12,13  names_off, names_words
//! words 14,15  table_off, table_words
//! names        per subject: byte length, then the name zero-padded to
//!              whole words
//! table        the flat-table blob (see `jem_index::flat`)
//! ```
//!
//! Sections are contiguous and in order (`names_off == 16`,
//! `names_off + names_words == table_off`,
//! `table_off + table_words == file_words`), 8-byte aligned by
//! construction. The table section is the [`jem_index::FlatTable`]'s own
//! words, written as they are: a built table is canonical (entries laid
//! out in ascending code order, so the bytes are a pure function of the
//! logical index), and a loaded table keeps the words it was read from,
//! so save → load → save round-trips byte-identically.
//!
//! Loading is fallible end to end: bad magic, a length that disagrees
//! with the header, checksum or config-hash mismatches, malformed names,
//! every structural violation of the table blob and every subject id
//! beyond the name table surface as typed errors — no code path panics on
//! a malformed file. [`load_index_path`] additionally validates the
//! declared length against the file's actual size *before* reading or
//! mapping anything bulky, so pointing the CLI at the wrong
//! multi-gigabyte file fails fast instead of allocating.
//!
//! [`Integrity`] picks how much of the file the loader verifies:
//! [`Integrity::Full`] (the default everywhere) checks the whole-file
//! checksum, then validates the table — two sequential passes, still no
//! decode or rebuild; [`Integrity::HeaderOnly`] skips the checksum, for
//! fleet restarts of already-trusted artifacts. Both levels walk every
//! slot and range-check every subject id, so a damaged posting is an
//! error at load time, never a panic at query time.
//!
//! # JEMIDX v4 and v3 — legacy, read-only
//!
//! v4 has the v5 header (magic `b"JEMIDX4\0"`) over the older bucket
//! table of `jem_index::legacy`. v3 stored the table as the `[n_keys,
//! (code, n_subjects, subjects…)*]` entry stream of [`jem_index::stream`].
//! [`load_index`] and [`load_index_path`] still read both, decoding the
//! table into a [`TableBuilder`] that sorts and writes the v5 table;
//! nothing writes them any more. `jem index --upgrade` migrates v3 and v4
//! artifacts to v5.

use crate::config::MapperConfig;
use crate::mapper::JemMapper;
use jem_index::{
    checksum_continue, checksum_words, default_lanes, fnv1a64, FlatTable, TableBuilder, WordSource,
};
use jem_mmap::MmapWords;
use jem_seq::SeqError;
use jem_sketch::SketchScheme;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC_V3: &[u8; 8] = b"JEMIDX3\0";
const MAGIC_V4: &[u8; 8] = b"JEMIDX4\0";
const MAGIC_V5: &[u8; 8] = b"JEMIDX5\0";
const MAGIC_V4_WORD: u64 = u64::from_le_bytes(*MAGIC_V4);
const MAGIC_V5_WORD: u64 = u64::from_le_bytes(*MAGIC_V5);
/// Fixed v4/v5 header length in words.
const HEADER_WORDS: usize = 16;

/// How much of a v4 or v5 file [`load_index_path_with`] verifies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Integrity {
    /// Verify the whole-file checksum (one sequential read of the
    /// artifact) on top of all structural checks.
    #[default]
    Full,
    /// Verify the header, section geometry, table structure and subject
    /// ids only — a damaged code goes undetected (it just stops matching).
    /// For re-opening artifacts that were fully verified when produced.
    HeaderOnly,
}

fn format_err(msg: impl Into<String>) -> SeqError {
    SeqError::InvalidParameter(msg.into())
}

fn scheme_words(scheme: SketchScheme) -> (u64, u64) {
    match scheme {
        SketchScheme::Minimizer { w } => (0, w as u64),
        SketchScheme::ClosedSyncmer { s } => (1, s as u64),
    }
}

fn scheme_from_words(tag: u64, param: u64) -> Result<SketchScheme, SeqError> {
    let param = usize::try_from(param)
        .map_err(|_| format_err(format!("sketch scheme parameter {param} overflows usize")))?;
    match tag {
        0 => Ok(SketchScheme::Minimizer { w: param }),
        1 => Ok(SketchScheme::ClosedSyncmer { s: param }),
        other => Err(format_err(format!("unknown sketch scheme tag {other}"))),
    }
}

/// Serialize a built mapper index in the current (v5) format.
///
/// The table section is the table's own words, written as they are; only
/// the header and names are assembled here. For a given logical index the
/// bytes are identical no matter how the mapper was obtained — `save →
/// load → save` round-trips exactly.
pub fn save_index<W: Write>(out: &mut W, mapper: &JemMapper) -> Result<(), SeqError> {
    let head = index_head(mapper);
    write_words(out, &head)?;
    write_words(out, mapper.table().words())?;
    Ok(())
}

/// Write words as little-endian bytes through a bounded buffer.
fn write_words<W: Write>(out: &mut W, words: &[u64]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(64 * 1024);
    for chunk in words.chunks(8 * 1024) {
        buf.clear();
        for w in chunk {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        out.write_all(&buf)?;
    }
    Ok(())
}

/// The v5 header and names section of `mapper`. The table section that
/// follows is `mapper.table().words()`, which the whole-file checksum in
/// word 2 already covers.
fn index_head(mapper: &JemMapper) -> Vec<u64> {
    let mut words = vec![0u64; HEADER_WORDS];
    let names_off = words.len();
    for id in 0..mapper.n_subjects() {
        let name = mapper.subject_name(id as u32).as_bytes();
        words.push(name.len() as u64);
        for chunk in name.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            words.push(u64::from_le_bytes(b));
        }
    }
    let table_off = words.len();
    let blob = mapper.table().words();

    let c = mapper.config();
    let (tag, param) = scheme_words(mapper.scheme());
    words[0] = MAGIC_V5_WORD;
    words[1] = (table_off + blob.len()) as u64;
    words[4] = c.k as u64;
    words[5] = c.w as u64;
    words[6] = c.trials as u64;
    words[7] = c.ell as u64;
    words[8] = c.seed;
    words[9] = tag;
    words[10] = param;
    words[11] = mapper.n_subjects() as u64;
    words[12] = names_off as u64;
    words[13] = (table_off - names_off) as u64;
    words[14] = table_off as u64;
    words[15] = blob.len() as u64;
    words[3] = checksum_words(&words[4..11]);
    words[2] = checksum_continue(checksum_words(&words[3..]), blob);
    words
}

fn read_u64<R: Read>(input: &mut R) -> Result<u64, SeqError> {
    let mut buf = [0u8; 8];
    input.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Deserialize an index written by [`save_index`] (v5) or a legacy v4 or
/// v3 file, sniffing the version from the magic.
///
/// Returns `Err` — never panics — on any malformed input: bad magic, a
/// truncated or extended frame, a checksum mismatch (any flipped byte), or
/// a body that fails structural validation.
pub fn load_index<R: Read>(input: &mut R) -> Result<JemMapper, SeqError> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic == MAGIC_V3 {
        let body_len = read_u64(input)?;
        let declared = read_u64(input)?;
        load_v3_body(input, body_len, declared)
    } else if &magic == MAGIC_V4 || &magic == MAGIC_V5 {
        load_words_stream(input, u64::from_le_bytes(magic), Integrity::Full)
    } else {
        Err(format_err("not a JEM index file (bad magic)"))
    }
}

/// Read a v4 or v5 file from a stream (magic already consumed): the
/// portable owned-buffer path. The header is read and sanity-checked
/// before the body so a bogus stream fails before bulk allocation.
fn load_words_stream<R: Read>(
    input: &mut R,
    magic: u64,
    integrity: Integrity,
) -> Result<JemMapper, SeqError> {
    let mut header = [0u64; HEADER_WORDS];
    header[0] = magic;
    for w in header.iter_mut().skip(1) {
        *w = read_u64(input)?;
    }
    let file_words = usize::try_from(header[1])
        .map_err(|_| format_err("index header declares an impossible length"))?;
    if file_words < HEADER_WORDS {
        return Err(format_err(format!(
            "index header declares {file_words} words, below the {HEADER_WORDS}-word minimum"
        )));
    }
    // Bounded growth: the capacity hint is capped so a corrupt length
    // cannot trigger a huge up-front allocation; reading stops at EOF.
    let mut words = Vec::with_capacity(file_words.min(1 << 24));
    words.extend_from_slice(&header);
    let mut buf = vec![0u8; 64 * 1024];
    let mut remaining = file_words - HEADER_WORDS;
    while remaining > 0 {
        let take = remaining.min(buf.len() / 8);
        input.read_exact(&mut buf[..take * 8]).map_err(|_| {
            format_err(format!(
                "index truncated: header declares {file_words} words, stream ended at {}",
                words.len()
            ))
        })?;
        for chunk in buf[..take * 8].chunks_exact(8) {
            words.push(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        remaining -= take;
    }
    let mut extra = [0u8; 1];
    if input.read(&mut extra)? != 0 {
        return Err(format_err(
            "index frame has trailing bytes after the declared length",
        ));
    }
    parse_words(Arc::new(words), integrity)
}

/// A memory-mapped word source (newtype so the `WordSource` impl lives
/// beside the trait's consumers while `jem-mmap` stays dependency-free).
#[derive(Debug)]
struct MappedWords(MmapWords);

impl WordSource for MappedWords {
    fn words(&self) -> &[u64] {
        self.0.words()
    }
}

/// Load an index file by path with [`Integrity::Full`] verification.
///
/// For v5 files this is the zero-copy path: the file is memory-mapped
/// (falling back to an owned read where `mmap` is unavailable) and the
/// table is served straight from the mapping. A v4 file is read the same
/// way, then its table is decoded and rewritten in memory. For v3 files
/// it falls back to the legacy decode-and-build, after failing fast if
/// the declared body length disagrees with the file's actual size.
pub fn load_index_path(path: impl AsRef<Path>) -> Result<JemMapper, SeqError> {
    load_index_path_with(path, Integrity::Full)
}

/// [`load_index_path`] with an explicit [`Integrity`] level (v4 and v5
/// only — v3 files are always fully verified by their frame checksum).
///
/// Emits load-path metrics to the global [`jem_obs`] recorder:
/// `persist.load_v3` / `persist.load_v4` / `persist.load_v5` (which
/// format), `persist.load_mmap` / `persist.load_owned` (which word
/// backing), and `persist.arena_copy_bytes` — the bytes *copied* to make
/// the index resident: `0` for a v5 file on the mmap path, the whole file
/// for a v4 file (its table is decoded and rewritten) or an owned read —
/// under a `persist/load` span.
pub fn load_index_path_with(
    path: impl AsRef<Path>,
    integrity: Integrity,
) -> Result<JemMapper, SeqError> {
    load_index_path_opts(path, integrity, false)
}

/// [`load_index_path_with`] plus a readahead choice: with `prefault` set,
/// a v4 or v5 mapping is opened through [`MmapWords::map_with`] — the kernel is
/// advised the whole file will be needed and every page is touched at load
/// time, so a freshly started `jem serve --prefault` pays its page faults
/// before the first query instead of during it. Purely advisory: the
/// loaded mapper is identical either way, and the flag is a no-op for v3
/// files and the owned-read fallback (both are fully resident already).
/// Adds `persist.load_prefault` to the load-path metrics when the eager
/// mmap path is taken.
pub fn load_index_path_opts(
    path: impl AsRef<Path>,
    integrity: Integrity,
    prefault: bool,
) -> Result<JemMapper, SeqError> {
    let rec = jem_obs::recorder();
    let _span = jem_obs::Span::enter(rec, "persist/load");
    let mut file = File::open(path.as_ref())?;
    let file_len = file.metadata()?.len();
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)?;
    if &magic == MAGIC_V3 {
        let mut input = BufReader::new(file);
        let body_len = read_u64(&mut input)?;
        let declared = read_u64(&mut input)?;
        // Fail fast: the header's declared body length must match the file
        // size exactly — a wrong-file argument dies here, before the body
        // is read or the table rebuilt.
        if body_len != file_len.saturating_sub(24) {
            return Err(format_err(format!(
                "index header declares {body_len} body bytes but the file holds {}",
                file_len.saturating_sub(24)
            )));
        }
        rec.add("persist.load_v3", 1);
        rec.add("persist.arena_copy_bytes", body_len);
        load_v3_body(&mut input, body_len, declared)
    } else if &magic == MAGIC_V4 || &magic == MAGIC_V5 {
        let legacy = &magic == MAGIC_V4;
        rec.add(
            if legacy {
                "persist.load_v4"
            } else {
                "persist.load_v5"
            },
            1,
        );
        if file_len % 8 != 0 {
            return Err(format_err(format!(
                "index length {file_len} is not a multiple of 8 bytes"
            )));
        }
        // Fail fast: read just the header and cross-check the declared word
        // count against the actual file size before mapping or reading.
        let mut rest = [0u8; 8 * (HEADER_WORDS - 1)];
        file.read_exact(&mut rest)?;
        let file_words = u64::from_le_bytes(rest[..8].try_into().expect("8-byte slice"));
        if file_words.checked_mul(8) != Some(file_len) {
            return Err(format_err(format!(
                "index header declares {file_words} words but the file holds {} bytes",
                file_len
            )));
        }
        match MmapWords::map_with(&file, prefault) {
            Ok(map) => {
                rec.add("persist.load_mmap", 1);
                if prefault {
                    rec.add("persist.load_prefault", 1);
                }
                rec.add(
                    "persist.arena_copy_bytes",
                    if legacy { file_len } else { 0 },
                );
                parse_words(Arc::new(MappedWords(map)), integrity)
            }
            Err(_) => {
                // Portable fallback: one owned read of the words after the magic.
                file.seek(SeekFrom::Start(8))?;
                rec.add("persist.load_owned", 1);
                rec.add("persist.arena_copy_bytes", file_len);
                load_words_stream(
                    &mut BufReader::new(file),
                    u64::from_le_bytes(magic),
                    integrity,
                )
            }
        }
    } else {
        Err(format_err("not a JEM index file (bad magic)"))
    }
}

/// Validate a complete v4 or v5 word image and wrap it into a mapper: a
/// v5 table as it is, a v4 table decoded and rewritten as v5.
fn parse_words(source: Arc<dyn WordSource>, integrity: Integrity) -> Result<JemMapper, SeqError> {
    let words = source.words();
    if words.len() < HEADER_WORDS {
        return Err(format_err(format!(
            "index needs at least {HEADER_WORDS} words, have {}",
            words.len()
        )));
    }
    if words[0] != MAGIC_V4_WORD && words[0] != MAGIC_V5_WORD {
        return Err(format_err("not a JEM v4 or v5 index (bad magic)"));
    }
    if words[1] != words.len() as u64 {
        return Err(format_err(format!(
            "index header declares {} words but {} are present",
            words[1],
            words.len()
        )));
    }
    if integrity == Integrity::Full {
        let computed = checksum_words(&words[3..]);
        if computed != words[2] {
            return Err(format_err(format!(
                "index checksum mismatch: header declares {:#018x}, file hashes to {computed:#018x}",
                words[2]
            )));
        }
    }
    let config_hash = checksum_words(&words[4..11]);
    if config_hash != words[3] {
        return Err(format_err(format!(
            "index config-hash mismatch: header declares {:#018x}, config hashes to {config_hash:#018x}",
            words[3]
        )));
    }

    let as_usize = |w: u64, what: &str| {
        usize::try_from(w).map_err(|_| format_err(format!("index {what} {w} overflows usize")))
    };
    let config = MapperConfig {
        k: as_usize(words[4], "k")?,
        w: as_usize(words[5], "w")?,
        trials: as_usize(words[6], "trials")?,
        ell: as_usize(words[7], "ell")?,
        seed: words[8],
    };
    config
        .jem_params()
        .map_err(|e| format_err(format!("index holds an invalid configuration: {e}")))?;
    let scheme = scheme_from_words(words[9], words[10])?;
    scheme
        .validate(config.k)
        .map_err(|e| format_err(format!("index holds an invalid scheme: {e}")))?;

    let n_subjects = as_usize(words[11], "subject count")?;
    let names_off = as_usize(words[12], "names offset")?;
    let names_words = as_usize(words[13], "names length")?;
    let table_off = as_usize(words[14], "table offset")?;
    let table_words = as_usize(words[15], "table length")?;
    // The canonical layout is fixed: names directly after the header,
    // table directly after the names, nothing after the table.
    if names_off != HEADER_WORDS
        || names_off.checked_add(names_words) != Some(table_off)
        || table_off.checked_add(table_words) != Some(words.len())
    {
        return Err(format_err(
            "index section offsets do not tile the file (names, then table)",
        ));
    }
    let names = parse_names(&words[names_off..table_off], n_subjects)?;

    let corrupt = |e| format_err(format!("index table is corrupt: {e}"));
    let flat = if words[0] == MAGIC_V5_WORD {
        FlatTable::from_source(Arc::clone(&source), table_off, config.trials, n_subjects)
            .map_err(corrupt)?
    } else {
        let mut builder = TableBuilder::new(config.trials);
        builder
            .decode_v4_into(&words[table_off..], n_subjects)
            .map_err(corrupt)?;
        builder
            .finish(default_lanes())
            .map_err(|e| format_err(format!("index table does not fit the v5 layout: {e}")))?
    };
    Ok(JemMapper::from_table_with_scheme(
        flat, names, &config, scheme,
    ))
}

/// Parse the names section: per subject, a byte length followed by the
/// name zero-padded to whole words. Rejects truncation, oversized names,
/// non-zero padding (the writer is canonical), trailing words and
/// non-UTF-8.
fn parse_names(words: &[u64], n_subjects: usize) -> Result<Vec<String>, SeqError> {
    let mut names = Vec::with_capacity(n_subjects.min(1 << 16));
    let mut i = 0usize;
    for _ in 0..n_subjects {
        let len = *words
            .get(i)
            .ok_or_else(|| format_err("index names section truncated"))?;
        if len > 1 << 20 {
            return Err(format_err("unreasonable subject name length"));
        }
        let len = len as usize;
        i += 1;
        let n_words = len.div_ceil(8);
        if i + n_words > words.len() {
            return Err(format_err("index names section truncated"));
        }
        let mut bytes = Vec::with_capacity(n_words * 8);
        for w in &words[i..i + n_words] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        if bytes[len..].iter().any(|&b| b != 0) {
            return Err(format_err("index name padding is not zeroed"));
        }
        bytes.truncate(len);
        names.push(String::from_utf8(bytes).map_err(|_| format_err("subject name is not UTF-8"))?);
        i += n_words;
    }
    if i != words.len() {
        return Err(format_err(
            "index names section has trailing words after the last name",
        ));
    }
    Ok(names)
}

/// Read and validate a v3 body (stream positioned after the 24-byte
/// header, whose `body_len`/`declared` fields are passed in).
fn load_v3_body<R: Read>(
    input: &mut R,
    body_len: u64,
    declared: u64,
) -> Result<JemMapper, SeqError> {
    let mut body = Vec::new();
    // `take` bounds the read without trusting `body_len` for an allocation.
    input.take(body_len).read_to_end(&mut body)?;
    if body.len() as u64 != body_len {
        return Err(format_err(format!(
            "index frame truncated: header declares {body_len} body bytes, found {}",
            body.len()
        )));
    }
    let computed = fnv1a64(&body);
    if computed != declared {
        return Err(format_err(format!(
            "index checksum mismatch: frame declares {declared:#018x}, body hashes to {computed:#018x}"
        )));
    }

    let input = &mut body.as_slice();
    let k = read_u64(input)? as usize;
    let w = read_u64(input)? as usize;
    let trials = read_u64(input)? as usize;
    let ell = read_u64(input)? as usize;
    let seed = read_u64(input)?;
    let config = MapperConfig {
        k,
        w,
        trials,
        ell,
        seed,
    };
    config
        .jem_params()
        .map_err(|e| format_err(format!("index holds an invalid configuration: {e}")))?;
    let tag = read_u64(input)?;
    let param = read_u64(input)?;
    let scheme = scheme_from_words(tag, param)?;
    scheme
        .validate(k)
        .map_err(|e| format_err(format!("index holds an invalid scheme: {e}")))?;

    let n_subjects = read_u64(input)? as usize;
    let mut names = Vec::with_capacity(n_subjects.min(1 << 16));
    for _ in 0..n_subjects {
        let len = read_u64(input)? as usize;
        if len > 1 << 20 {
            return Err(format_err("unreasonable subject name length"));
        }
        let mut buf = vec![0u8; len];
        input.read_exact(&mut buf)?;
        names.push(String::from_utf8(buf).map_err(|_| format_err("subject name is not UTF-8"))?);
    }
    let stream_len = read_u64(input)? as usize;
    let mut stream = Vec::with_capacity(stream_len.min(1 << 20));
    for _ in 0..stream_len {
        stream.push(read_u64(input)?);
    }
    // Every trial opens with a key count: a stream shorter than the trial
    // count is corrupt, and checking first bounds the builder by the file.
    if trials > stream.len() {
        return Err(format_err(format!(
            "index table stream is corrupt: {trials} trials but {} words",
            stream.len()
        )));
    }
    let mut builder = TableBuilder::new(trials);
    builder
        .decode_into(&stream)
        .map_err(|e| format_err(format!("index table stream is corrupt: {e}")))?;
    let table = builder
        .finish(default_lanes())
        .map_err(|e| format_err(format!("index table does not fit the v5 layout: {e}")))?;
    Ok(JemMapper::from_table_with_scheme(
        table, names, &config, scheme,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_seq::SeqRecord;
    use jem_sim::{contig_records, fragment_contigs, ContigProfile, Genome};

    fn build() -> (JemMapper, Vec<SeqRecord>) {
        let genome = Genome::random(40_000, 0.5, 123);
        let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 124);
        let subjects = contig_records(&contigs);
        let config = MapperConfig {
            k: 12,
            w: 8,
            trials: 6,
            ell: 300,
            seed: 9,
        };
        (JemMapper::build(&subjects, &config), subjects)
    }

    /// A deliberately tiny index, so exhaustive corruption sweeps stay fast.
    fn build_tiny() -> JemMapper {
        let genome = Genome::random(3_000, 0.5, 55);
        let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 56);
        let subjects = contig_records(&contigs);
        let config = MapperConfig {
            k: 12,
            w: 8,
            trials: 2,
            ell: 300,
            seed: 9,
        };
        JemMapper::build(&subjects, &config)
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("jem-persist-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (mapper, subjects) = build();
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        let loaded = load_index(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.config(), mapper.config());
        assert_eq!(loaded.n_subjects(), mapper.n_subjects());
        for i in 0..mapper.n_subjects() {
            assert_eq!(loaded.subject_name(i as u32), mapper.subject_name(i as u32));
        }
        assert_eq!(loaded.table().entry_count(), mapper.table().entry_count());
        assert_eq!(loaded.table().words(), mapper.table().words());
        // Mapping behaviour identical.
        let query = subjects[1].seq[..250.min(subjects[1].seq.len())].to_vec();
        let mut c1 = mapper.new_counter();
        let mut c2 = loaded.new_counter();
        assert_eq!(
            mapper.map_segment(&query, 0, &mut c1),
            loaded.map_segment(&query, 0, &mut c2)
        );
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let (mapper, _) = build();
        let mut first = Vec::new();
        save_index(&mut first, &mapper).unwrap();
        let loaded = load_index(&mut first.as_slice()).unwrap();
        let mut second = Vec::new();
        save_index(&mut second, &loaded).unwrap();
        assert_eq!(first, second, "v5 round-trip must reproduce exact bytes");
    }

    /// A committed artifact of the format-compat fixtures.
    fn fixture(name: &str) -> Vec<u8> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/format-compat")
            .join(name);
        std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn save_writes_the_table_words_as_they_are() {
        let (mapper, _) = build();
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        let table: Vec<u8> = mapper
            .table()
            .words()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        assert!(
            buf.ends_with(&table),
            "the table section is the table's words"
        );
        let head = &buf[..buf.len() - table.len()];
        assert_eq!(head.len() % 8, 0);
        assert_eq!(
            u64::from_le_bytes(head[112..120].try_into().unwrap()) as usize * 8,
            head.len()
        );
    }

    #[test]
    fn legacy_upgrades_produce_identical_v5_bytes() {
        // load-v3/v4 → save-v5 (the upgrade path) must reproduce the v5
        // twin committed beside the legacy fixtures.
        for legacy in ["index_v3.jem", "index_v4.jem"] {
            let migrated = load_index(&mut fixture(legacy).as_slice()).unwrap();
            let mut upgraded = Vec::new();
            save_index(&mut upgraded, &migrated).unwrap();
            assert!(
                upgraded == fixture("index_v5.jem"),
                "{legacy} upgrade drifted"
            );
        }
    }

    #[test]
    fn path_load_uses_mmap_and_maps_identically() {
        let (mapper, subjects) = build();
        let path = temp_path("mmap");
        let mut f = File::create(&path).unwrap();
        save_index(&mut f, &mapper).unwrap();
        drop(f);
        let loaded = load_index_path(&path).unwrap();
        let query = subjects[2].seq[..250.min(subjects[2].seq.len())].to_vec();
        let mut c1 = mapper.new_counter();
        let mut c2 = loaded.new_counter();
        assert_eq!(
            mapper.map_segment(&query, 0, &mut c1),
            loaded.map_segment(&query, 0, &mut c2)
        );
        // Saving the mmap-backed mapper reproduces the exact file bytes.
        let mut again = Vec::new();
        save_index(&mut again, &loaded).unwrap();
        assert_eq!(again, std::fs::read(&path).unwrap());
        drop(loaded);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn prefault_load_is_equivalent_to_lazy_load() {
        let (mapper, subjects) = build();
        let path = temp_path("prefault");
        let mut f = File::create(&path).unwrap();
        save_index(&mut f, &mapper).unwrap();
        drop(f);
        let eager = load_index_path_opts(&path, Integrity::Full, true).unwrap();
        let lazy = load_index_path(&path).unwrap();
        let query = subjects[1].seq[..250.min(subjects[1].seq.len())].to_vec();
        let mut c1 = eager.new_counter();
        let mut c2 = lazy.new_counter();
        assert_eq!(
            eager.map_segment(&query, 0, &mut c1),
            lazy.map_segment(&query, 0, &mut c2)
        );
        // The prefaulted mapper re-serializes to the same bytes too.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        save_index(&mut a, &eager).unwrap();
        save_index(&mut b, &lazy).unwrap();
        assert_eq!(a, b);
        drop((eager, lazy));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn path_load_header_only_succeeds_on_pristine_file() {
        let (mapper, _) = build();
        let path = temp_path("header-only");
        let mut f = File::create(&path).unwrap();
        save_index(&mut f, &mapper).unwrap();
        drop(f);
        let loaded = load_index_path_with(&path, Integrity::HeaderOnly).unwrap();
        assert_eq!(loaded.table().entry_count(), mapper.table().entry_count());
        drop(loaded);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn path_load_rejects_wrong_file_before_reading_body() {
        let path = temp_path("wrongfile");
        // A header that declares far more words than the file holds.
        let mut words = vec![0u64; HEADER_WORDS];
        words[0] = MAGIC_V5_WORD;
        words[1] = 1 << 40;
        let mut f = File::create(&path).unwrap();
        for w in &words {
            f.write_all(&w.to_le_bytes()).unwrap();
        }
        drop(f);
        let err = load_index_path(&path).unwrap_err();
        assert!(
            err.to_string().contains("declares"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn path_load_rejects_v3_length_mismatch_fast() {
        let path = temp_path("v3-short");
        let mut buf = fixture("index_v3.jem");
        buf.truncate(buf.len() - 10);
        std::fs::write(&path, &buf).unwrap();
        let err = load_index_path(&path).unwrap_err();
        assert!(
            err.to_string().contains("body bytes"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = b"NOTANIDX".to_vec();
        data.extend_from_slice(&[0u8; 64]);
        assert!(load_index(&mut data.as_slice()).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let (mapper, _) = build();
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_index(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn extended_file_rejected() {
        let (mapper, _) = build();
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        buf.push(0);
        assert!(load_index(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn every_single_byte_flip_rejected() {
        let mapper = build_tiny();
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        assert!(
            load_index(&mut buf.as_slice()).is_ok(),
            "pristine file must load"
        );
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(
                load_index(&mut bad.as_slice()).is_err(),
                "flip of byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_rejected_v3() {
        let buf = fixture("index_v3.jem");
        assert!(
            load_index(&mut buf.as_slice()).is_ok(),
            "pristine v3 file must load"
        );
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(
                load_index(&mut bad.as_slice()).is_err(),
                "flip of byte {i} went undetected"
            );
        }
    }

    #[test]
    fn corrupt_but_well_framed_stream_rejected_by_decode() {
        // Hand-build v3 files whose frame (length + checksum) is intact but
        // whose table stream is structural garbage — or far too short for
        // the trial count it claims: the error must come from the fallible
        // decode, not a panic or a trial-sized allocation.
        for trials in [1u64, 1 << 50] {
            assert_v3_stream_rejected(trials);
        }
    }

    fn assert_v3_stream_rejected(trials: u64) {
        let mut body = Vec::new();
        for v in [12u64, 8, trials, 300, 9] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        for v in [0u64, 8] {
            body.extend_from_slice(&v.to_le_bytes()); // minimizer, w = 8
        }
        body.extend_from_slice(&0u64.to_le_bytes()); // no subjects
        body.extend_from_slice(&1u64.to_le_bytes()); // stream_len = 1
        body.extend_from_slice(&999u64.to_le_bytes()); // garbage stream word
        let mut file = MAGIC_V3.to_vec();
        file.extend_from_slice(&(body.len() as u64).to_le_bytes());
        file.extend_from_slice(&fnv1a64(&body).to_le_bytes());
        file.extend_from_slice(&body);
        let err = load_index(&mut file.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("table stream is corrupt"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn old_format_magic_rejected() {
        let mut data = b"JEMIDX2\0".to_vec();
        data.extend_from_slice(&[0u8; 128]);
        assert!(load_index(&mut data.as_slice()).is_err());
    }

    #[test]
    fn legacy_fixtures_load_like_their_v5_twin() {
        let v5 = load_index(&mut fixture("index_v5.jem").as_slice()).unwrap();
        assert!(v5.table().entry_count() > 0);
        for legacy in ["index_v3.jem", "index_v4.jem"] {
            let old = load_index(&mut fixture(legacy).as_slice()).unwrap();
            assert_eq!(old.config(), v5.config());
            assert_eq!(old.scheme(), v5.scheme());
            assert_eq!(old.subject_names(), v5.subject_names());
            assert_eq!(old.table().entry_count(), v5.table().entry_count());
            assert_eq!(old.table().words(), v5.table().words(), "{legacy}");
        }
    }

    #[test]
    fn syncmer_index_roundtrips_with_scheme() {
        let genome = Genome::random(30_000, 0.5, 321);
        let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 322);
        let subjects = contig_records(&contigs);
        let config = MapperConfig {
            k: 16,
            w: 8,
            trials: 6,
            ell: 300,
            seed: 9,
        };
        let scheme = SketchScheme::ClosedSyncmer { s: 11 };
        let mapper = JemMapper::build_with_scheme(&subjects, &config, scheme);
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        let loaded = load_index(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.scheme(), scheme);
        let query = subjects[0].seq[..250.min(subjects[0].seq.len())].to_vec();
        let mut c1 = mapper.new_counter();
        let mut c2 = loaded.new_counter();
        assert_eq!(
            mapper.map_segment(&query, 0, &mut c1),
            loaded.map_segment(&query, 0, &mut c2)
        );
    }

    #[test]
    fn empty_index_roundtrips() {
        let config = MapperConfig {
            k: 12,
            w: 8,
            trials: 4,
            ell: 300,
            seed: 1,
        };
        let mapper = JemMapper::build(&[], &config);
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        let loaded = load_index(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.n_subjects(), 0);
        assert_eq!(loaded.table().entry_count(), 0);
    }

    #[test]
    fn out_of_range_subject_id_rejected_at_both_integrity_levels() {
        // A v5 file whose slot names a subject beyond the name table must
        // fail to load — under HeaderOnly too, which skips the checksum:
        // the id would otherwise index past the hit counter at query time.
        let mapper = build_tiny();
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        let mut words: Vec<u64> = buf
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let table_off = words[14] as usize;
        assert_eq!(words[table_off + 1], 1, "k = 12 writes one-word slots");
        let slot_off = table_off + words[table_off + 2] as usize; // trial 0
        let n_slots = words[table_off + 3] as usize;
        let inline = (slot_off..slot_off + n_slots)
            .find(|&i| (words[i] >> 32) < 1 << 31)
            .expect("tiny index has single-posting keys");
        let bogus = mapper.n_subjects() as u64;
        words[inline] = (words[inline] & u64::from(u32::MAX)) | bogus << 32;
        let err = parse_words(Arc::new(words.clone()), Integrity::HeaderOnly).unwrap_err();
        assert!(
            err.to_string().contains("subjects are named"),
            "unexpected error: {err}"
        );
        // Re-seal the checksum so only the range check can object.
        words[2] = checksum_words(&words[3..]);
        let err = parse_words(Arc::new(words), Integrity::Full).unwrap_err();
        assert!(
            err.to_string().contains("subjects are named"),
            "unexpected error: {err}"
        );
    }
}
