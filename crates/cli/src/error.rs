//! The CLI's typed error: every failure a `jem` command can hit maps to a
//! variant here, prints as one line, and exits nonzero — no `String`
//! plumbing, no panics on malformed user input.

use jem_core::ResilienceError;
use jem_seq::SeqError;
use std::fmt;

/// A failure of a `jem` invocation.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line: unknown command, missing/duplicate/malformed flags.
    Usage(String),
    /// An OS-level I/O failure on a named path.
    Io {
        /// Path the operation failed on.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A named input file exists but its contents are malformed (truncated
    /// FASTQ, corrupt index, bad FASTA header, …).
    Format {
        /// Path of the malformed file.
        path: String,
        /// What the parser rejected.
        source: SeqError,
    },
    /// Inputs parse individually but are semantically inconsistent (e.g. a
    /// mapping TSV referencing an unknown contig).
    Data(String),
    /// The server refused the request under per-client admission control.
    /// Distinct from transient `Busy` failures: the server named a wait,
    /// and retrying sooner is guaranteed to be refused again.
    Throttled {
        /// How long the server said to wait before retrying.
        retry_after: std::time::Duration,
    },
    /// The distributed run could not complete.
    Resilience(ResilienceError),
}

impl CliError {
    /// Wrap an I/O error with the path it struck.
    pub fn io(path: &str) -> impl FnOnce(std::io::Error) -> CliError + '_ {
        move |source| CliError::Io {
            path: path.to_string(),
            source,
        }
    }

    /// Wrap a parse/format error with the file it struck.
    pub fn format(path: &str) -> impl FnOnce(SeqError) -> CliError + '_ {
        move |source| CliError::Format {
            path: path.to_string(),
            source,
        }
    }

    /// Process exit code for this failure: 2 for usage errors (like
    /// conventional Unix tools), 75 (`EX_TEMPFAIL`) for quota throttling
    /// — scripts can branch on it and honor the retry hint — and 1 for
    /// everything else.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Throttled { .. } => 75,
            _ => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Format { path, source } => write!(f, "{path}: {source}"),
            CliError::Data(msg) => write!(f, "{msg}"),
            CliError::Throttled { retry_after } => write!(
                f,
                "server throttled this client: retry after {}ms",
                retry_after.as_millis()
            ),
            CliError::Resilience(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Format { source, .. } => Some(source),
            CliError::Resilience(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ResilienceError> for CliError {
    fn from(e: ResilienceError) -> Self {
        CliError::Resilience(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_one_line() {
        let errs: Vec<CliError> = vec![
            CliError::Usage("missing required flag --out".into()),
            CliError::Io {
                path: "x.fa".into(),
                source: std::io::Error::new(std::io::ErrorKind::NotFound, "no such file"),
            },
            CliError::Resilience(jem_core::ResilienceError::AllRanksFailed {
                step: "subject sketch".into(),
            }),
            CliError::Format {
                path: "r.fq".into(),
                source: SeqError::Format {
                    line: 3,
                    msg: "truncated record".into(),
                },
            },
            CliError::Data("mapping references unknown contig \"c9\"".into()),
            CliError::Throttled {
                retry_after: std::time::Duration::from_millis(250),
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.contains('\n'), "multi-line error: {s:?}");
        }
    }

    #[test]
    fn exit_codes() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Data("x".into()).exit_code(), 1);
        let throttled = CliError::Throttled {
            retry_after: std::time::Duration::from_millis(100),
        };
        assert_eq!(throttled.exit_code(), 75, "EX_TEMPFAIL for quota refusals");
        assert!(throttled.to_string().contains("100ms"));
    }

    #[test]
    fn io_and_format_carry_sources() {
        use std::error::Error;
        let e = CliError::io("f.fa")(std::io::Error::other("boom"));
        assert!(e.source().is_some());
        let e = CliError::format("f.fq")(SeqError::Format {
            line: 1,
            msg: "bad".into(),
        });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("f.fq"));
    }
}
