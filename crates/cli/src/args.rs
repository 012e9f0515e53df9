//! Minimal `--flag value` argument parsing (no external dependencies),
//! plus the leading positional arguments two commands take.

use std::collections::HashMap;
use std::fmt;

/// Errors raised while parsing command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` had no following value.
    MissingValue(String),
    /// A positional argument appeared where a flag was expected.
    UnexpectedPositional(String),
    /// A `--flag` the command does not read.
    UnknownFlag(String),
    /// A required flag was absent.
    MissingFlag(&'static str),
    /// A flag value failed to parse.
    BadValue {
        /// The flag.
        flag: String,
        /// The offending text.
        value: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "flag {flag} needs a value"),
            ArgError::UnexpectedPositional(s) => write!(f, "unexpected argument {s:?}"),
            ArgError::UnknownFlag(flag) => write!(f, "this command takes no flag {flag}"),
            ArgError::MissingFlag(flag) => write!(f, "required flag --{flag} missing"),
            ArgError::BadValue { flag, value } => {
                write!(f, "flag {flag}: invalid value {value:?}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed `--flag value` pairs, valueless `--switch` flags, and the
/// positional arguments (`explain`'s packet id, `figure`'s ids).
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Flags {
    /// Parses `--flag value` pairs and valueless `--switch` flags against
    /// what the command declares it reads: `values` (groups of value-flag
    /// names), `switches`, and up to `positionals` bare arguments.
    /// Anything else is rejected rather than dropped — a typo like
    /// `--rat 0.1` must not run at the default rate.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] for undeclared or dangling flags and stray
    /// positionals.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        values: &[&[&str]],
        switches: &[&str],
        positionals: usize,
    ) -> Result<Flags, ArgError> {
        let mut parsed = Flags::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if parsed.positionals.len() == positionals {
                    return Err(ArgError::UnexpectedPositional(arg));
                }
                parsed.positionals.push(arg);
                continue;
            };
            if switches.contains(&name) {
                parsed.switches.push(name.to_string());
            } else if values.iter().any(|group| group.contains(&name)) {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(arg.clone()))?;
                parsed.values.insert(name.to_string(), value);
            } else {
                return Err(ArgError::UnknownFlag(arg));
            }
        }
        Ok(parsed)
    }

    /// Whether a valueless switch (declared in
    /// [`Flags::parse`]) was present.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The bare (non-`--`) arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingFlag`] when absent.
    pub fn required(&self, flag: &'static str) -> Result<&str, ArgError> {
        self.values
            .get(flag)
            .map(String::as_str)
            .ok_or(ArgError::MissingFlag(flag))
    }

    /// An optional string flag.
    pub fn optional(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// An optional numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparsable.
    pub fn numeric<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.values.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: format!("--{flag}"),
                value: v.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    const RUN: &[&str] = &["noc", "rate", "seed"];

    #[test]
    fn parses_flag_pairs() {
        let f = Flags::parse(argv("--noc ft:8:2:1 --rate 0.5"), &[RUN], &[], 0).unwrap();
        assert_eq!(f.required("noc").unwrap(), "ft:8:2:1");
        assert_eq!(f.numeric("rate", 1.0).unwrap(), 0.5);
        assert_eq!(f.numeric("seed", 7u64).unwrap(), 7);
        assert_eq!(f.optional("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(matches!(
            Flags::parse(argv("--noc"), &[RUN], &[], 0),
            Err(ArgError::MissingValue(_))
        ));
        assert!(matches!(
            Flags::parse(argv("simulate --noc x"), &[RUN], &[], 0),
            Err(ArgError::UnexpectedPositional(_))
        ));
        let f = Flags::parse(argv("--rate abc"), &[RUN], &[], 0).unwrap();
        assert!(matches!(
            f.numeric::<f64>("rate", 1.0),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(
            f.required("noc"),
            Err(ArgError::MissingFlag("noc"))
        ));
    }

    #[test]
    fn rejects_flags_the_command_does_not_declare() {
        // The typo must not fall back to the default rate.
        let typo = Flags::parse(argv("--noc hoplite:4 --rat 0.1"), &[RUN], &[], 0).unwrap_err();
        assert_eq!(typo, ArgError::UnknownFlag("--rat".into()));
        assert!(typo.to_string().contains("--rat"));
        // Declared in a second group, or as a switch: accepted.
        let f = Flags::parse(argv("--out x --json"), &[RUN, &["out"]], &["json"], 0).unwrap();
        assert_eq!(f.optional("out"), Some("x"));
        assert!(f.switch("json"));
        // A switch another command declares is unknown here.
        assert!(matches!(
            Flags::parse(argv("--json"), &[RUN], &["profile"], 0),
            Err(ArgError::UnknownFlag(_))
        ));
    }

    #[test]
    fn positionals_are_collected_up_to_the_declared_count() {
        let f = Flags::parse(argv("fig11 --out d fig12"), &[&["out"]], &[], 2).unwrap();
        assert_eq!(f.positionals(), ["fig11", "fig12"]);
        assert_eq!(f.optional("out"), Some("d"));
        assert_eq!(
            Flags::parse(argv("7 8"), &[RUN], &[], 1).unwrap_err(),
            ArgError::UnexpectedPositional("8".into())
        );
    }

    #[test]
    fn switches_take_no_value() {
        let f = Flags::parse(
            argv("--profile --noc ft:8:2:1 --json"),
            &[RUN],
            &["profile", "json"],
            0,
        )
        .unwrap();
        assert!(f.switch("profile"));
        assert!(f.switch("json"));
        assert!(!f.switch("verbose"));
        assert_eq!(f.required("noc").unwrap(), "ft:8:2:1");
    }

    #[test]
    fn error_messages() {
        assert!(ArgError::MissingFlag("noc").to_string().contains("--noc"));
        assert!(ArgError::MissingValue("--x".into())
            .to_string()
            .contains("needs a value"));
    }
}
