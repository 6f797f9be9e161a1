//! Minimal flag parsing for the `pccs` binary — `--key value` pairs plus
//! boolean switches, no external dependencies.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command-line arguments: a subcommand plus `--key value` options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: Option<String>,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// A parsing or lookup failure, printable as a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses a token stream (excluding the program name).
    ///
    /// Tokens starting with `--` become options when followed by a value
    /// token, or switches when followed by another flag / nothing.
    ///
    /// # Errors
    ///
    /// Returns an error for a second positional token (only one subcommand
    /// is allowed).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let tokens: Vec<String> = tokens.into_iter().collect();
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(key) = t.strip_prefix("--") {
                let has_value = tokens
                    .get(i + 1)
                    .is_some_and(|next| !next.starts_with("--"));
                if has_value {
                    args.options.insert(key.to_owned(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    args.switches.push(key.to_owned());
                    i += 1;
                }
            } else {
                if args.command.is_some() {
                    return Err(ArgError(format!(
                        "unexpected positional argument '{t}' (subcommand already given)"
                    )));
                }
                args.command = Some(t.clone());
                i += 1;
            }
        }
        Ok(args)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing flag.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// A float option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects a number, got '{v}'"))),
        }
    }

    /// An unsigned integer option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects an integer, got '{v}'"))),
        }
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Rejects any option or switch outside `known`, so a misspelled flag
    /// fails instead of silently falling back to its default.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first unknown option.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), ArgError> {
        let mut given = self.options.keys().chain(&self.switches);
        match given.find(|k| !known.contains(&k.as_str())) {
            None => Ok(()),
            Some(key) => Err(ArgError(format!("unknown option --{key}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_subcommand_options_and_switches() {
        let a = parse("calibrate --soc xavier --pu GPU --quick").unwrap();
        assert_eq!(a.command.as_deref(), Some("calibrate"));
        assert_eq!(a.get("soc"), Some("xavier"));
        assert_eq!(a.get("pu"), Some("GPU"));
        assert!(a.has("quick"));
        assert!(!a.has("verbose"));
    }

    #[test]
    fn numbers_parse_with_defaults() {
        let a = parse("predict --demand 60.5").unwrap();
        assert_eq!(a.get_f64("demand", 0.0).unwrap(), 60.5);
        assert_eq!(a.get_f64("external", 40.0).unwrap(), 40.0);
        assert!(a.get_f64("demand", 0.0).is_ok());
    }

    #[test]
    fn integers_parse_with_defaults() {
        let a = parse("calibrate --jobs 4").unwrap();
        assert_eq!(a.get_usize("jobs", 0).unwrap(), 4);
        assert_eq!(a.get_usize("threads", 2).unwrap(), 2);
        assert!(parse("calibrate --jobs many")
            .unwrap()
            .get_usize("jobs", 0)
            .is_err());
    }

    #[test]
    fn bad_number_errors() {
        let a = parse("predict --demand lots").unwrap();
        assert!(a.get_f64("demand", 0.0).is_err());
    }

    #[test]
    fn require_reports_missing_flag() {
        let a = parse("predict").unwrap();
        let err = a.require("model").unwrap_err();
        assert!(err.to_string().contains("--model"));
    }

    #[test]
    fn second_positional_is_rejected() {
        assert!(parse("one two").is_err());
    }

    #[test]
    fn unknown_options_and_switches_are_rejected() {
        let a = parse("corun --soc xavier --quick").unwrap();
        assert!(a.reject_unknown(&["soc", "quick"]).is_ok());
        let err = a.reject_unknown(&["soc"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --quick");
        let err = a.reject_unknown(&["quick"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --soc");
    }

    #[test]
    fn trailing_switch_parses() {
        let a = parse("calibrate --quick").unwrap();
        assert!(a.has("quick"));
    }
}
