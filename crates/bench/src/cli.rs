//! Shared argument handling for the `nsai-bench` binaries.
//!
//! All four bins (`figures`, `trace`, `serve`, `perf`) follow one
//! convention, introduced by the figures bin: diagnostics and the usage
//! line go to **stderr** and the process exits with status **2** on any
//! argument problem (unknown flag, missing or malformed value); `--help`
//! prints the long help to stdout and exits 0. Nothing here panics —
//! a typo on the command line is a usage error, not a crash site.
//!
//! The parsing methods return `Result<_, String>` so the message
//! rendering is unit-testable; binaries funnel errors through
//! [`Cli::bail`], which is the only place that exits.
//!
//! Output goes through [`emit`], so a stdout closed by its reader
//! (`figures all | head`) stops the printing instead of panicking.

use std::collections::VecDeque;
use std::fmt::Display;
use std::io::{self, Write};
use std::str::FromStr;

/// Write `text` to stdout through its lock, as `print!` does, and flush.
/// Returns `false` when the reader has closed stdout (a broken pipe, as
/// in `perf --list | true`): the caller stops printing and keeps the exit
/// status its work decided. Any other write error panics, as with
/// `print!`.
pub fn emit(text: impl Display) -> bool {
    let mut out = io::stdout().lock();
    match write!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => true,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => false,
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// A stream of command-line arguments plus the one-line usage string
/// printed alongside every argument error.
#[derive(Debug)]
pub struct Cli {
    usage: &'static str,
    args: VecDeque<String>,
}

impl Cli {
    /// Arguments from the process environment (program name skipped).
    pub fn from_env(usage: &'static str) -> Self {
        Self::from_args(usage, std::env::args().skip(1).collect())
    }

    /// Arguments from an explicit vector (tests).
    pub fn from_args(usage: &'static str, args: Vec<String>) -> Self {
        Cli {
            usage,
            args: args.into(),
        }
    }

    /// Next raw argument, if any.
    #[allow(clippy::should_implement_trait)]
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.pop_front()
    }

    /// The value following `flag`, or a usage error if the stream ends.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .pop_front()
            .ok_or_else(|| format!("`{flag}` requires a value"))
    }

    /// The value following `flag`, parsed as `T`.
    pub fn parsed<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|e| format!("`{flag}` got `{raw}`: {e}"))
    }

    /// The comma-separated list following `flag`, trimmed, empty items
    /// dropped. An entirely empty list is a usage error.
    pub fn list(&mut self, flag: &str) -> Result<Vec<String>, String> {
        let raw = self.value(flag)?;
        let items: Vec<String> = raw
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if items.is_empty() {
            return Err(format!("`{flag}` requires a non-empty list"));
        }
        Ok(items)
    }

    /// Report an argument error on stderr along with the usage line and
    /// exit 2 — the figures-bin convention for all `nsai-bench` bins.
    pub fn bail(&self, message: impl Display) -> ! {
        eprintln!("error: {message}");
        eprintln!("usage: {}", self.usage);
        std::process::exit(2);
    }

    /// [`Cli::bail`] with the standard unknown-argument message.
    pub fn unknown(&self, arg: &str) -> ! {
        self.bail(format!("unknown argument `{arg}` (see --help)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args("test [FLAGS]", args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn value_and_parsed_consume_in_order() {
        let mut c = cli(&["--n", "7", "--name", "lnn"]);
        assert_eq!(c.next_arg().as_deref(), Some("--n"));
        assert_eq!(c.parsed::<u64>("--n"), Ok(7));
        assert_eq!(c.next_arg().as_deref(), Some("--name"));
        assert_eq!(c.value("--name").as_deref(), Ok("lnn"));
        assert_eq!(c.next_arg(), None);
    }

    #[test]
    fn missing_value_is_a_usage_error() {
        let mut c = cli(&[]);
        let err = c.value("--out").unwrap_err();
        assert!(err.contains("--out"), "{err}");
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn malformed_value_names_flag_and_input() {
        let mut c = cli(&["abc"]);
        let err = c.parsed::<u64>("--reps").unwrap_err();
        assert!(err.contains("--reps"), "{err}");
        assert!(err.contains("abc"), "{err}");
    }

    #[test]
    fn list_trims_and_rejects_empty() {
        let mut c = cli(&[" lnn, nvsa ,", ","]);
        assert_eq!(c.list("--workloads").unwrap(), vec!["lnn", "nvsa"]);
        assert!(c.list("--workloads").unwrap_err().contains("non-empty"));
    }
}
