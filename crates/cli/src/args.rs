//! A small `--flag value` argument parser (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    command: String,
    options: BTreeMap<String, String>,
}

impl Args {
    /// Parses `argv` (without the program name): first token is the
    /// subcommand, the rest alternate `--key value`. A `--help` or `-h`
    /// token in any position makes the command `help`, whatever else the
    /// line holds.
    ///
    /// # Errors
    ///
    /// Rejects missing subcommands, non-`--` tokens in option position, and
    /// flags without values.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let argv: Vec<String> = argv.into_iter().collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            return Ok(Args {
                command: "help".to_owned(),
                options: BTreeMap::new(),
            });
        }
        let mut iter = argv.into_iter();
        let command = iter.next().ok_or("missing subcommand")?;
        if command.starts_with("--") {
            return Err(format!("expected a subcommand, got flag {command}"));
        }
        let mut options = BTreeMap::new();
        while let Some(key) = iter.next() {
            let Some(stripped) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got {key}"));
            };
            let value = iter
                .next()
                .ok_or_else(|| format!("flag --{stripped} needs a value"))?;
            options.insert(stripped.to_owned(), value);
        }
        Ok(Args { command, options })
    }

    /// The subcommand.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// An integer option with a default.
    ///
    /// # Errors
    ///
    /// Reports unparsable values with the flag name.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key} {v}: {e}")),
        }
    }

    /// The flags provided that `known` does not list, in name order — to
    /// reject typos before any option is read.
    pub fn unknown_keys(&self, known: &[&str]) -> Vec<String> {
        self.options
            .keys()
            .filter(|k| !known.contains(&k.as_str()))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["track", "--app", "SOR", "--threads", "64"]).unwrap();
        assert_eq!(a.command(), "track");
        assert_eq!(a.get("app"), Some("SOR"));
        assert_eq!(a.get_usize("threads", 0).unwrap(), 64);
        assert_eq!(a.get_usize("nodes", 8).unwrap(), 8, "default");
        assert_eq!(a.get_or("format", "ascii"), "ascii");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--app", "SOR"]).is_err(), "flag as command");
        assert!(parse(&["track", "app", "SOR"]).is_err(), "missing --");
        assert!(parse(&["track", "--app"]).is_err(), "missing value");
        assert!(parse(&["track", "--threads", "x"])
            .unwrap()
            .get_usize("threads", 0)
            .is_err());
    }

    #[test]
    fn detects_unknown_flags() {
        let a = parse(&["track", "--app", "SOR", "--thread", "64"]).unwrap();
        assert_eq!(a.unknown_keys(&["app", "threads"]), vec!["thread"]);
        assert!(a.unknown_keys(&["app", "thread"]).is_empty());
    }
}
