//! Tiny shared argument parser for the workspace binaries.
//!
//! Every flag-taking binary (`repro`, `ninf-call`, `ninf-load`, `ninfd`,
//! `ninf-trace`, `ninf-chaos`) parses through here, so they share one
//! behavior: declared flags parse anywhere on the line, `--help`/`-h` asks
//! for usage, and *anything else starting with `--` is an error* naming
//! the offending flag.

/// Parse outcome that isn't a successful parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h` was given: print usage, exit 0.
    Help,
    /// Malformed command line; the message names the problem.
    Bad(String),
}

/// Parsed command line: flag occurrences in order, plus positionals.
#[derive(Debug, Default, Clone)]
pub struct Parsed {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    /// Non-flag arguments, in order.
    pub positionals: Vec<String>,
}

impl Parsed {
    /// Last value given for `flag` (canonical name), if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for `flag`, in order.
    pub fn values(&self, flag: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether switch `flag` appeared.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|f| f == flag)
    }

    /// Parse `flag`'s value as `T`; `Ok(None)` when absent, `Err` naming the
    /// flag when present but malformed.
    pub fn parse<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        match self.value(flag) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| CliError::Bad(format!("invalid value `{raw}` for {flag}"))),
        }
    }
}

/// A flag spec is its canonical name optionally followed by `|`-separated
/// aliases, e.g. `"--experiment|-e"`. Matches are recorded under the
/// canonical name.
fn canonical<'a>(specs: &'a [&'a str], arg: &str) -> Option<&'a str> {
    specs.iter().copied().find_map(|spec| {
        let mut names = spec.split('|');
        let canon = names.next().expect("non-empty spec");
        (canon == arg || names.any(|a| a == arg)).then_some(canon)
    })
}

/// Parse `args` against declared value-taking flags and boolean switches.
///
/// Unknown `--flags` are rejected. A literal `--` ends flag parsing; the
/// rest are positionals.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
    value_flags: &[&str],
    switch_flags: &[&str],
) -> Result<Parsed, CliError> {
    let mut parsed = Parsed::default();
    let mut args = args.into_iter();
    let mut flags_done = false;
    while let Some(arg) = args.next() {
        if flags_done || !arg.starts_with('-') || arg == "-" {
            parsed.positionals.push(arg);
            continue;
        }
        if arg == "--" {
            flags_done = true;
        } else if arg == "--help" || arg == "-h" {
            return Err(CliError::Help);
        } else if let Some(canon) = canonical(value_flags, &arg) {
            let value = args
                .next()
                .ok_or_else(|| CliError::Bad(format!("{canon} needs a value")))?;
            parsed.values.push((canon.to_string(), value));
        } else if let Some(canon) = canonical(switch_flags, &arg) {
            parsed.switches.push(canon.to_string());
        } else {
            return Err(CliError::Bad(format!("unknown flag `{arg}` (try --help)")));
        }
    }
    Ok(parsed)
}

/// Parse a comma-separated list of numbers (e.g. `--clients 1,4,8`).
pub fn parse_list<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<Vec<T>, CliError> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| CliError::Bad(format!("invalid value `{s}` for {flag}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_anywhere_positionals_kept_in_order() {
        let p = parse_args(
            sv(&["a", "--seed", "7", "b", "--list", "c"]),
            &["--seed"],
            &["--list"],
        )
        .unwrap();
        assert_eq!(p.value("--seed"), Some("7"));
        assert!(p.has("--list"));
        assert_eq!(p.positionals, vec!["a", "b", "c"]);
    }

    #[test]
    fn unknown_flag_is_rejected_by_name() {
        let err = parse_args(sv(&["--bogus"]), &["--seed"], &[]).unwrap_err();
        assert_eq!(
            err,
            CliError::Bad("unknown flag `--bogus` (try --help)".into())
        );
    }

    #[test]
    fn help_is_signalled() {
        assert_eq!(
            parse_args(sv(&["-h"]), &[], &[]).unwrap_err(),
            CliError::Help
        );
        assert_eq!(
            parse_args(sv(&["--help"]), &[], &[]).unwrap_err(),
            CliError::Help
        );
    }

    #[test]
    fn aliases_resolve_to_canonical_and_repeat() {
        let p = parse_args(
            sv(&["--experiment", "t3", "-e", "t4"]),
            &["--experiment|-e"],
            &[],
        )
        .unwrap();
        assert_eq!(p.values("--experiment"), vec!["t3", "t4"]);
    }

    #[test]
    fn missing_value_and_bad_parse_are_named() {
        let err = parse_args(sv(&["--seed"]), &["--seed"], &[]).unwrap_err();
        assert_eq!(err, CliError::Bad("--seed needs a value".into()));
        let p = parse_args(sv(&["--seed", "x"]), &["--seed"], &[]).unwrap();
        assert!(matches!(p.parse::<u64>("--seed"), Err(CliError::Bad(_))));
        let p = parse_args(sv(&["--seed", "9"]), &["--seed"], &[]).unwrap();
        assert_eq!(p.parse::<u64>("--seed").unwrap(), Some(9));
    }

    #[test]
    fn double_dash_ends_flag_parsing() {
        let p = parse_args(sv(&["--", "--not-a-flag"]), &[], &[]).unwrap();
        assert_eq!(p.positionals, vec!["--not-a-flag"]);
    }

    #[test]
    fn comma_lists_parse() {
        assert_eq!(
            parse_list::<usize>("1,4, 8", "--clients").unwrap(),
            vec![1, 4, 8]
        );
        assert!(parse_list::<usize>("1,x", "--clients").is_err());
    }
}
