//! Minimal dependency-free argument parsing for the `sortsynth` binary.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use sortsynth_isa::IsaMode;

/// A parsed command line: subcommand, `--key value` options, and positional
/// arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// `--key value` pairs (`--flag` without a value maps to `"true"`).
    pub options: HashMap<String, String>,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
}

/// Errors from argument parsing and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgsError {
    msg: String,
}

impl ArgsError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        ArgsError { msg: msg.into() }
    }
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl Error for ArgsError {}

/// Boolean flags (present or absent, no value).
const FLAGS: &[&str] = &[
    "all",
    "plain",
    "json",
    "fix",
    "dead-write-cut",
    "value-flow-cut",
    "metrics",
    "portfolio",
];

/// Options that take a value.
const VALUED: &[&str] = &[
    "n",
    "scratch",
    "isa",
    "max-len",
    "cut",
    "limit",
    "data",
    "len",
    "budget-states",
    "timeout",
    "cache-dir",
    "addr",
    "workers",
    "queue-depth",
    "cache-capacity",
    "threads",
    "search-threads",
    "backend",
    "trace",
    "log-level",
    "record",
    "record-dir",
    "wait-ms",
    "mem-limit",
    "resume",
    "spill-dir",
    "search-mem-limit",
];

/// Parses a byte-size value with an optional `K`/`M`/`G` suffix
/// (`256M`, `1G`, `4096`). Case-insensitive; an optional trailing `iB`/`B`
/// is accepted (`256MiB`).
pub fn parse_bytes(value: &str) -> Result<u64, ArgsError> {
    let v = value.trim();
    let lower = v.to_ascii_lowercase();
    let digits_end = lower
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(lower.len());
    let (num, suffix) = lower.split_at(digits_end);
    let base: u64 = num
        .parse()
        .map_err(|_| ArgsError::new(format!("`{value}` is not a byte size")))?;
    let mult = match suffix.trim_end_matches("ib").trim_end_matches('b') {
        "" => 1,
        "k" => 1 << 10,
        "m" => 1 << 20,
        "g" => 1 << 30,
        _ => {
            return Err(ArgsError::new(format!(
                "`{value}` has an unknown size suffix (expected K, M, or G)"
            )))
        }
    };
    base.checked_mul(mult)
        .ok_or_else(|| ArgsError::new(format!("`{value}` overflows a byte count")))
}

/// Parses `args` (without the binary name).
///
/// # Errors
///
/// Returns [`ArgsError`] when no subcommand is present, a valued option is
/// missing its value, an option is not recognized (so a typo like
/// `--maxlen` fails loudly instead of silently running without the bound),
/// or an option is given twice (so `--n 3 … --n 2` cannot quietly run
/// n = 2).
pub fn parse(args: &[String]) -> Result<ParsedArgs, ArgsError> {
    let mut command = None;
    let mut options = HashMap::new();
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(key) = arg.strip_prefix("--") {
            let value = if VALUED.contains(&key) {
                iter.next()
                    .ok_or_else(|| ArgsError::new(format!("--{key} needs a value")))?
                    .clone()
            } else if FLAGS.contains(&key) {
                "true".to_string()
            } else {
                return Err(ArgsError::new(format!("unknown option `--{key}`")));
            };
            if options.insert(key.to_string(), value).is_some() {
                return Err(ArgsError::new(format!("option `--{key}` given twice")));
            }
        } else if command.is_none() {
            command = Some(arg.clone());
        } else {
            positional.push(arg.clone());
        }
    }
    Ok(ParsedArgs {
        command: command.ok_or_else(|| ArgsError::new("missing subcommand"))?,
        options,
        positional,
    })
}

impl ParsedArgs {
    /// `--n` (default 3).
    pub fn n(&self) -> Result<u8, ArgsError> {
        self.u8_option("n", 3)
    }

    /// `--scratch` (default 1).
    pub fn scratch(&self) -> Result<u8, ArgsError> {
        self.u8_option("scratch", 1)
    }

    /// `--isa cmov|minmax` (default cmov).
    pub fn isa(&self) -> Result<IsaMode, ArgsError> {
        match self.options.get("isa").map(String::as_str) {
            None | Some("cmov") => Ok(IsaMode::Cmov),
            Some("minmax") => Ok(IsaMode::MinMax),
            Some(other) => Err(ArgsError::new(format!(
                "unknown ISA `{other}` (expected cmov or minmax)"
            ))),
        }
    }

    /// A generic numeric option with a default.
    fn u8_option(&self, key: &str, default: u8) -> Result<u8, ArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgsError::new(format!("--{key}: `{v}` is not a number"))),
        }
    }

    /// `--key` numeric option, generic width.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgsError> {
        match self.options.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| ArgsError::new(format!("--{key}: `{v}` is not a number"))),
        }
    }

    /// Whether a boolean flag is set.
    pub fn flag(&self, key: &str) -> bool {
        self.options.get(key).map(String::as_str) == Some("true")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_options_and_positionals() {
        let parsed = parse(&strings(&["synth", "--n", "4", "--all", "extra"])).unwrap();
        assert_eq!(parsed.command, "synth");
        assert_eq!(parsed.options.get("n").map(String::as_str), Some("4"));
        assert!(parsed.flag("all"));
        assert_eq!(parsed.positional, vec!["extra"]);
        assert_eq!(parsed.n().unwrap(), 4);
        assert_eq!(parsed.scratch().unwrap(), 1);
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(parse(&strings(&["--n", "3"])).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn valued_option_without_value_is_an_error() {
        assert!(parse(&strings(&["synth", "--n"])).is_err());
    }

    #[test]
    fn isa_parsing() {
        assert_eq!(
            parse(&strings(&["synth", "--isa", "minmax"]))
                .unwrap()
                .isa()
                .unwrap(),
            IsaMode::MinMax
        );
        assert_eq!(
            parse(&strings(&["synth"])).unwrap().isa().unwrap(),
            IsaMode::Cmov
        );
        assert!(parse(&strings(&["synth", "--isa", "avx"]))
            .unwrap()
            .isa()
            .is_err());
    }

    #[test]
    fn unknown_options_are_rejected() {
        for option in ["--maxlen", "--strategy"] {
            let err = parse(&strings(&["synth", option, "9"])).unwrap_err();
            assert!(err.to_string().contains(option), "{err}");
        }
    }

    #[test]
    fn a_repeated_valued_option_is_rejected() {
        let line = "client synth --n 3 --backend portfolio --n 2";
        let args: Vec<String> = line.split(' ').map(String::from).collect();
        let err = parse(&args).unwrap_err();
        assert_eq!(err.to_string(), "option `--n` given twice");
    }

    #[test]
    fn a_repeated_flag_is_rejected() {
        let err = parse(&strings(&["synth", "--plain", "--n", "4", "--plain"])).unwrap_err();
        assert_eq!(err.to_string(), "option `--plain` given twice");
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_bytes("4096").unwrap(), 4096);
        assert_eq!(parse_bytes("256M").unwrap(), 256 << 20);
        assert_eq!(parse_bytes("256MiB").unwrap(), 256 << 20);
        assert_eq!(parse_bytes("1g").unwrap(), 1 << 30);
        assert_eq!(parse_bytes("8K").unwrap(), 8 << 10);
        assert!(parse_bytes("1T").is_err());
        assert!(parse_bytes("lots").is_err());
    }

    #[test]
    fn bad_numbers_are_errors() {
        let parsed = parse(&strings(&["synth", "--n", "three"])).unwrap();
        assert!(parsed.n().is_err());
        let parsed = parse(&strings(&["synth", "--cut", "abc"])).unwrap();
        assert!(parsed.num::<f64>("cut").is_err());
    }
}
