//! The S3 stream codec: the flat `u64` encoding of a rank's sketch entries
//! that the distributed driver exchanges in its Allgatherv step, and that
//! the legacy JEMIDX v3 file stores.
//!
//! Layout per trial: `[n_keys, (code, n_subjects, subjects…)*]`, codes
//! ascending, subjects ascending and unique. The stream length in bytes
//! (`8 × len`) is what the communication cost model charges for the
//! gather. The framed form prepends `[trials, payload_len, checksum]` so a
//! damaged frame is detected before anything is decoded.
//!
//! Decoding appends entries to a [`TableBuilder`]; the builder's sort and
//! write turn the union of any number of streams into one table.

use crate::builder::TableBuilder;
use std::fmt;

/// Identifier of a subject (contig). `u32` caps subjects at ~4.3 billion,
/// far above the paper's largest contig set (98K).
pub type SubjectId = u32;

/// Typed failure of decoding an encoded entry stream.
///
/// Every way a malformed stream can violate the
/// [`TableBuilder::encode`]/[`TableBuilder::encode_framed`] layout maps to
/// a variant here — decoding never panics, no matter the input words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before the structure its headers promised.
    Truncated {
        /// Words the layout required at the point of failure.
        needed: usize,
        /// Words actually present.
        len: usize,
    },
    /// Words remained after the last trial was fully decoded.
    TrailingGarbage {
        /// Number of unconsumed trailing words.
        extra: usize,
    },
    /// A subject id does not fit in [`SubjectId`].
    SubjectIdOverflow {
        /// The offending raw value.
        value: u64,
    },
    /// A framed stream declares a different trial count than the target
    /// builder.
    TrialMismatch {
        /// Trials declared by the stream.
        stream: usize,
        /// Trials of the decoding builder.
        table: usize,
    },
    /// A framed stream's checksum does not match its payload.
    ChecksumMismatch {
        /// Checksum the frame header declared.
        declared: u64,
        /// Checksum computed over the received payload.
        computed: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, len } => {
                write!(f, "truncated stream: needed {needed} words, have {len}")
            }
            DecodeError::TrailingGarbage { extra } => {
                write!(f, "trailing garbage: {extra} words after the last bank")
            }
            DecodeError::SubjectIdOverflow { value } => {
                write!(f, "subject id {value} overflows u32")
            }
            DecodeError::TrialMismatch { stream, table } => {
                write!(
                    f,
                    "stream encodes {stream} trials but the table has {table}"
                )
            }
            DecodeError::ChecksumMismatch { declared, computed } => {
                write!(
                    f,
                    "checksum mismatch: frame declares {declared:#018x}, payload hashes to {computed:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a offset basis: the state of [`checksum_continue`] over no words.
const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a state over more bytes.
#[inline]
fn fnv1a64_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over raw bytes — the workspace's one FNV-1a: the checksum of
/// the v3 index frame and of the serving protocol's frames, and (over
/// little-endian words) [`checksum_words`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(CHECKSUM_SEED, bytes)
}

/// FNV-1a over a word stream (little-endian bytes of each `u64`) — the
/// integrity check of the framed transport encoding and of index files.
pub fn checksum_words(words: &[u64]) -> u64 {
    checksum_continue(CHECKSUM_SEED, words)
}

/// Continue an FNV-1a state over more words, so a checksum can span
/// several slices: `checksum_words(a ++ b)` equals
/// `checksum_continue(checksum_words(a), b)`.
pub fn checksum_continue(h: u64, words: &[u64]) -> u64 {
    words
        .iter()
        .fold(h, |h, w| fnv1a64_continue(h, &w.to_le_bytes()))
}

impl TableBuilder {
    /// Flatten the entries to the S3 stream (layout in the module docs).
    /// The entries are sorted and deduplicated first, so the stream is a
    /// pure function of the entry set.
    pub fn encode(mut self) -> Vec<u64> {
        self.sort(1);
        let mut out = Vec::new();
        for run in &self.runs {
            out.push(run.chunk_by(|a, b| a.0 == b.0).count() as u64);
            for group in run.chunk_by(|a, b| a.0 == b.0) {
                out.push(group[0].0);
                out.push(group.len() as u64);
                out.extend(group.iter().map(|&(_, s)| u64::from(s)));
            }
        }
        out
    }

    /// [`TableBuilder::encode`] wrapped in an integrity-checked frame for
    /// transport over an unreliable channel:
    ///
    /// ```text
    /// [trials, payload_len, fnv1a64(payload), payload…]
    /// ```
    ///
    /// Any single-word change, truncation, or extension of the frame is
    /// detected by [`TableBuilder::decode_framed_into`].
    pub fn encode_framed(self) -> Vec<u64> {
        let trials = self.trials();
        let payload = self.encode();
        let mut out = Vec::with_capacity(payload.len() + 3);
        out.push(trials as u64);
        out.push(payload.len() as u64);
        out.push(checksum_words(&payload));
        out.extend(payload);
        out
    }

    /// Append the entries of an encoded stream to this builder — the
    /// global-table step (S3) of the distributed driver, and the v3 file
    /// reader. Codes and subjects need not be sorted or unique: the
    /// builder's sort canonicalizes them.
    ///
    /// Atomic: on a malformed stream the builder is left exactly as it was
    /// (the stream is validated in a read-only pass before any entry is
    /// appended).
    pub fn decode_into(&mut self, stream: &[u64]) -> Result<(), DecodeError> {
        let trials = self.trials();
        validate_stream(stream, trials)?;
        let mut i = 0;
        for t in 0..trials {
            let n_keys = stream[i] as usize;
            i += 1;
            for _ in 0..n_keys {
                let code = stream[i];
                let n_subj = stream[i + 1] as usize;
                i += 2;
                for &s in &stream[i..i + n_subj] {
                    self.push(t, code, s as SubjectId);
                }
                i += n_subj;
            }
        }
        Ok(())
    }

    /// Verify and decode a framed stream ([`TableBuilder::encode_framed`]).
    ///
    /// Atomic like [`TableBuilder::decode_into`]: any error leaves the
    /// builder untouched.
    pub fn decode_framed_into(&mut self, frame: &[u64]) -> Result<(), DecodeError> {
        if frame.len() < 3 {
            return Err(DecodeError::Truncated {
                needed: 3,
                len: frame.len(),
            });
        }
        let trials = frame[0] as usize;
        if trials != self.trials() {
            return Err(DecodeError::TrialMismatch {
                stream: trials,
                table: self.trials(),
            });
        }
        let payload_len = usize::try_from(frame[1]).map_err(|_| DecodeError::Truncated {
            needed: usize::MAX,
            len: frame.len(),
        })?;
        let body = frame.len() - 3;
        if body < payload_len {
            return Err(DecodeError::Truncated {
                needed: payload_len.saturating_add(3),
                len: frame.len(),
            });
        }
        if body > payload_len {
            return Err(DecodeError::TrailingGarbage {
                extra: body - payload_len,
            });
        }
        let payload = &frame[3..];
        let computed = checksum_words(payload);
        if computed != frame[2] {
            return Err(DecodeError::ChecksumMismatch {
                declared: frame[2],
                computed,
            });
        }
        self.decode_into(payload)
    }
}

/// Structural walk of an encoded stream: verifies framing, bounds and
/// subject-id ranges so the append pass can run infallibly afterwards.
fn validate_stream(stream: &[u64], trials: usize) -> Result<(), DecodeError> {
    let len = stream.len();
    let mut i = 0usize;
    for _ in 0..trials {
        let n_keys = *stream
            .get(i)
            .ok_or(DecodeError::Truncated { needed: i + 1, len })?;
        i += 1;
        for _ in 0..n_keys {
            // `code` at i, `n_subjects` at i + 1, then the subject list.
            let n_subj = *stream
                .get(i + 1)
                .ok_or(DecodeError::Truncated { needed: i + 2, len })?;
            i += 2;
            let end = usize::try_from(n_subj)
                .ok()
                .and_then(|n| i.checked_add(n))
                .ok_or(DecodeError::Truncated {
                    needed: usize::MAX,
                    len,
                })?;
            if end > len {
                return Err(DecodeError::Truncated { needed: end, len });
            }
            if let Some(&w) = stream[i..end]
                .iter()
                .find(|&&w| w > u64::from(SubjectId::MAX))
            {
                return Err(DecodeError::SubjectIdOverflow { value: w });
            }
            i = end;
        }
    }
    if i != len {
        return Err(DecodeError::TrailingGarbage { extra: len - i });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableBuilder {
        let mut b = TableBuilder::new(3);
        for (t, code, s) in [
            (0, 100, 5),
            (0, 100, 2),
            (0, 7, 1),
            (1, 100, 9),
            (2, 3, 4),
            (2, 3, 4),
            (2, 1 << 40, 0),
        ] {
            b.push(t, code, s);
        }
        b
    }

    #[test]
    fn encode_is_canonical() {
        let expect = [
            &[2, 7, 1, 1, 100, 2, 2, 5][..], // codes ascending, subjects sorted
            &[1, 100, 1, 9],
            &[2, 3, 1, 4, 1 << 40, 1, 0], // the duplicate entry is gone
        ]
        .concat();
        assert_eq!(sample().encode(), expect);
        assert_eq!(TableBuilder::new(4).encode(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn decode_canonicalizes_unsorted_streams() {
        // A stream from another writer may list codes in any order and
        // repeat subjects; the builder's sort makes it canonical.
        let loose = [
            &[2, 100, 3, 5, 2, 5, 7, 1, 1][..], // codes descending
            &[1, 100, 1, 9],
            &[2, 1 << 40, 1, 0, 3, 2, 4, 4], // subject 4 twice
        ]
        .concat();
        let mut b = TableBuilder::new(3);
        b.decode_into(&loose).unwrap();
        assert_eq!(b.encode(), sample().encode());
    }

    #[test]
    fn checksum_continues_across_slices() {
        let words = [1u64, 2, 3, 0xdead_beef];
        let whole = checksum_words(&words);
        let split = checksum_continue(checksum_words(&words[..1]), &words[1..]);
        assert_eq!(whole, split);
        assert_eq!(checksum_words(&[]), CHECKSUM_SEED);
        // The word checksum is the byte FNV-1a over little-endian words,
        // and that is the published FNV-1a 64 ("a" is the reference vector).
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fnv1a64(&bytes), whole);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut enc = TableBuilder::new(2).encode();
        enc.push(99);
        assert_eq!(
            TableBuilder::new(2).decode_into(&enc).unwrap_err(),
            DecodeError::TrailingGarbage { extra: 1 }
        );
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let enc = sample().encode();
        for cut in 0..enc.len() {
            let mut target = TableBuilder::new(3);
            let err = target.decode_into(&enc[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated { .. } | DecodeError::TrailingGarbage { .. }
                ),
                "cut at {cut}: {err:?}"
            );
            assert_eq!(target.encode(), vec![0; 3], "cut at {cut} appended entries");
        }
    }

    #[test]
    fn decode_rejects_huge_counts_without_panicking() {
        for stream in [
            vec![1, 42, u64::MAX],
            vec![u64::MAX],
            vec![1, 42, 1 << 62, 0],
        ] {
            assert!(matches!(
                TableBuilder::new(1).decode_into(&stream),
                Err(DecodeError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn decode_rejects_subject_overflow() {
        // One trial, one key, one subject that exceeds u32.
        let enc = vec![1, 42, 1, u64::from(u32::MAX) + 7];
        assert_eq!(
            TableBuilder::new(1).decode_into(&enc).unwrap_err(),
            DecodeError::SubjectIdOverflow {
                value: u64::from(u32::MAX) + 7
            }
        );
    }

    #[test]
    fn framed_roundtrip_and_extension() {
        let frame = sample().encode_framed();
        let mut longer = frame.clone();
        longer.push(1);
        let mut target = TableBuilder::new(3);
        assert_eq!(
            target.decode_framed_into(&longer).unwrap_err(),
            DecodeError::TrailingGarbage { extra: 1 }
        );
        target.decode_framed_into(&frame).unwrap();
        assert_eq!(target.encode(), sample().encode());
    }

    #[test]
    fn framed_decode_rejects_trial_mismatch() {
        let frame = TableBuilder::new(4).encode_framed();
        assert_eq!(
            TableBuilder::new(6).decode_framed_into(&frame).unwrap_err(),
            DecodeError::TrialMismatch {
                stream: 4,
                table: 6
            }
        );
    }

    #[test]
    fn decode_errors_display() {
        let e = DecodeError::Truncated { needed: 10, len: 4 };
        assert!(e.to_string().contains("truncated"));
        assert!(DecodeError::TrailingGarbage { extra: 2 }
            .to_string()
            .contains("trailing"));
        assert!(DecodeError::SubjectIdOverflow { value: 1 }
            .to_string()
            .contains("overflow"));
        assert!(DecodeError::TrialMismatch {
            stream: 1,
            table: 2
        }
        .to_string()
        .contains("trials"));
        assert!(DecodeError::ChecksumMismatch {
            declared: 1,
            computed: 2
        }
        .to_string()
        .contains("checksum"));
    }
}
