//! The flag cursor shared by the operator binaries (`difftune-bench`,
//! `difftune-matrix`, `difftune-serve`, `difftune-router` and
//! `difftune-loadtest`).
//!
//! Each binary's `parse_args` walks its command line with a [`Flags`] cursor
//! and returns `Result<Args, String>`. Every value check lives here and its
//! error names the flag and the raw text, so parsers are testable in-process.
//! [`parse_env`] is the one exit path: it prints the error and the binary's
//! usage line, then exits 2.
//!
//! Every binary in the workspace writes its stdout through [`print_lines`]
//! or [`outln!`](crate::outln), so a reader that closes the pipe early
//! never makes it panic.

use std::fmt::Display;
use std::io::{self, ErrorKind, Write};
use std::time::Duration;

/// A cursor over command-line arguments (the program name excluded).
#[derive(Debug)]
pub struct Flags {
    args: std::vec::IntoIter<String>,
}

impl Flags {
    /// A cursor over `args`.
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Self {
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        Flags {
            args: args.into_iter(),
        }
    }

    /// The next argument, for the caller to match as a flag.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The argument after the current one, without consuming it.
    pub fn peek(&self) -> Option<&str> {
        self.args.as_slice().first().map(String::as_str)
    }

    /// The operand of `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The operand of `flag` through `parse`: `str::parse` for a `FromStr`
    /// type, or a `::parse` constructor such as `CellKey::parse`.
    pub fn parse<T, E: Display>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, String> {
        let raw = self.value(flag)?;
        parse(&raw).map_err(|error| format!("{flag} {raw:?}: {error}"))
    }

    /// The operand of `flag` as a duration: a finite number of seconds,
    /// greater than zero and small enough for a [`Duration`].
    pub fn seconds(&mut self, flag: &str) -> Result<Duration, String> {
        self.parse(flag, |raw| {
            raw.parse::<f64>()
                .ok()
                .filter(|&seconds| seconds > 0.0)
                .and_then(|seconds| Duration::try_from_secs_f64(seconds).ok())
                .filter(|duration| !duration.is_zero())
                .ok_or("expected a positive, finite number of seconds")
        })
    }

    /// The `KEY=VALUE` operand of `flag`, each half through its own parser.
    pub fn pair<K, V, E: Display, F: Display>(
        &mut self,
        flag: &str,
        key: impl FnOnce(&str) -> Result<K, E>,
        value: impl FnOnce(&str) -> Result<V, F>,
    ) -> Result<(K, V), String> {
        self.parse(flag, |raw| {
            let (k, v) = raw.split_once('=').ok_or("expected KEY=VALUE")?;
            let k = key(k).map_err(|error| error.to_string())?;
            Ok::<_, String>((k, value(v).map_err(|error| error.to_string())?))
        })
    }
}

/// The error for an argument no flag matched. `--help` and `-h` ask for the
/// usage line alone, so their message is empty.
pub fn unknown(arg: &str) -> String {
    match arg {
        "--help" | "-h" => String::new(),
        other => format!("unknown argument {other:?}"),
    }
}

/// Prints `lines` to stdout, one per line. A reader that stops early
/// (`| head`) closes the pipe; the lines are then dropped quietly instead of
/// panicking, so the binary carries on and still exits 0. Any other write
/// error exits 1.
pub fn print_lines<L: Display>(lines: impl IntoIterator<Item = L>) {
    let mut out = io::stdout().lock();
    let written = lines
        .into_iter()
        .try_for_each(|line| writeln!(out, "{line}"))
        .and_then(|()| out.flush());
    match written {
        Err(error) if error.kind() != ErrorKind::BrokenPipe => {
            eprintln!("cannot write to stdout: {error}");
            std::process::exit(1)
        }
        _ => {}
    }
}

/// `println!` for the binaries' reports, through [`print_lines`]: on a
/// closed stdout the line is dropped and the binary carries on (it still
/// writes its files and reaps its children); any other write error exits 1.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::outln!("")
    };
    ($($arg:tt)*) => {
        $crate::cli::print_lines([::std::format_args!($($arg)*)])
    };
}

/// Parses the process's own arguments with `parse_args`. A rejected command
/// line prints its message and `usage` to stderr, then exits 2.
pub fn parse_env<T>(usage: &str, parse_args: impl FnOnce(&mut Flags) -> Result<T, String>) -> T {
    parse_args(&mut Flags::new(std::env::args().skip(1))).unwrap_or_else(|message| {
        if !message.is_empty() {
            eprintln!("{message}");
        }
        eprintln!("{usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().copied())
    }

    #[test]
    fn values_and_parses_name_their_flag() {
        let mut cursor = flags(&["--addr", "127.0.0.1", "--port", "80", "--seed"]);
        assert_eq!(cursor.next_flag().as_deref(), Some("--addr"));
        assert_eq!(cursor.peek(), Some("127.0.0.1"));
        assert_eq!(cursor.value("--addr").unwrap(), "127.0.0.1");
        assert_eq!(cursor.next_flag().as_deref(), Some("--port"));
        assert_eq!(cursor.parse("--port", str::parse::<u16>), Ok(80));
        assert_eq!(cursor.next_flag().as_deref(), Some("--seed"));
        assert_eq!(
            cursor.value("--seed").unwrap_err(),
            "--seed requires a value"
        );
        assert_eq!(cursor.next_flag(), None);

        let error = flags(&["x"])
            .parse("--seed", str::parse::<u64>)
            .unwrap_err();
        assert_eq!(error, "--seed \"x\": invalid digit found in string");
    }

    #[test]
    fn seconds_must_be_positive_finite_and_fit_a_duration() {
        for (flag, raw) in [
            ("--idle-timeout", "inf"),
            ("--health-interval", "1e30"),
            ("--wait-seconds", "-1"),
            ("--max-seconds", "0"),
            ("--upstream-timeout", "NaN"),
            ("--idle-timeout", "1e-12"),
            ("--idle-timeout", "soon"),
        ] {
            let error = flags(&[raw]).seconds(flag).unwrap_err();
            assert!(error.starts_with(&format!("{flag} {raw:?}: ")), "{error}");
        }
        assert_eq!(
            flags(&["0.25"]).seconds("--idle-timeout"),
            Ok(Duration::from_millis(250))
        );
        assert_eq!(
            flags(&["600"]).seconds("--max-seconds"),
            Ok(Duration::from_secs(600))
        );
    }

    #[test]
    fn pairs_split_on_the_first_equals_sign() {
        let parsed = flags(&["fit=1.5"]).pair("--min-speedup", str::parse::<String>, str::parse);
        assert_eq!(parsed, Ok(("fit".to_string(), 1.5_f64)));
        let parsed = flags(&["a=b=c"]).pair("--checkpoint", str::parse::<String>, str::parse);
        assert_eq!(parsed, Ok(("a".to_string(), "b=c".to_string())));
        let error = flags(&["fit"])
            .pair("--max-seconds", str::parse::<String>, str::parse::<f64>)
            .unwrap_err();
        assert_eq!(error, "--max-seconds \"fit\": expected KEY=VALUE");
        let error = flags(&["fit=fast"])
            .pair("--max-seconds", str::parse::<String>, str::parse::<f64>)
            .unwrap_err();
        assert_eq!(error, "--max-seconds \"fit=fast\": invalid float literal");
    }

    #[test]
    fn help_asks_for_the_usage_line_alone() {
        assert_eq!(unknown("--help"), "");
        assert_eq!(unknown("-h"), "");
        assert_eq!(unknown("--bogus"), "unknown argument \"--bogus\"");
    }
}
