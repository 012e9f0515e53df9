//! Textual specifications for NoCs and patterns, e.g. `ft:8:2:1`,
//! `hoplite:16`, `random`, `local:2` — the CLI's configuration surface.

use std::fmt;

use fasttrack_core::config::{ConfigError, FtPolicy, NocConfig};
use fasttrack_core::topology::{TopologySpec, TopologySpecError};
use fasttrack_traffic::pattern::Pattern;

/// Errors raised while parsing a spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec's leading keyword is unknown.
    UnknownKind(String),
    /// Wrong number of `:`-separated fields for the kind.
    BadArity {
        /// The spec kind.
        kind: &'static str,
        /// Expected field count (after the kind).
        expected: usize,
        /// Found field count.
        found: usize,
    },
    /// A numeric field failed to parse.
    BadNumber(String),
    /// An `ft:`/`ftlite:` spec violates the paper's structural
    /// constraints on `FT(N², D, R)`.
    BadFtParams {
        /// Torus side length `N`.
        n: u16,
        /// Express-link span `D`.
        d: u16,
        /// Depopulation factor `R`.
        r: u16,
        /// Which constraint failed, human-readable.
        why: &'static str,
    },
    /// The parsed configuration failed validation.
    Invalid(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownKind(k) => write!(f, "unknown spec kind {k:?}"),
            SpecError::BadArity {
                kind,
                expected,
                found,
            } => {
                write!(f, "{kind} spec needs {expected} field(s), found {found}")
            }
            SpecError::BadNumber(s) => write!(f, "invalid number {s:?}"),
            SpecError::BadFtParams { n, d, r, why } => write!(
                f,
                "invalid FastTrack spec FT({sq},{d},{r}) on a {n}x{n} torus: {why} \
                 (constraints: 1 <= D <= N/2, 1 <= R <= D, D divisible by R)",
                sq = u32::from(*n) * u32::from(*n)
            ),
            SpecError::Invalid(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ConfigError> for SpecError {
    fn from(e: ConfigError) -> Self {
        SpecError::Invalid(e.to_string())
    }
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, SpecError> {
    s.parse().map_err(|_| SpecError::BadNumber(s.to_string()))
}

/// Checks the paper's structural constraints on `FT(N², D, R)` before
/// the configuration is built: `1 <= D <= N/2` (an express link must
/// not wrap past the opposite side of the torus), `1 <= R <= D`, and
/// `D % R == 0` (depopulated express routers must tile the express
/// span).
///
/// # Errors
///
/// Returns [`SpecError::BadFtParams`] naming the violated constraint.
pub fn validate_ft_params(n: u16, d: u16, r: u16) -> Result<(), SpecError> {
    let why = if d < 1 {
        Some("D must be at least 1")
    } else if d > n / 2 {
        Some("D exceeds N/2, so express links would wrap past the far side")
    } else if r < 1 {
        Some("R must be at least 1")
    } else if r > d {
        Some("R exceeds D, so some express spans would have no express router")
    } else if !d.is_multiple_of(r) {
        Some("R must divide D for express routers to tile the express span")
    } else {
        None
    };
    match why {
        Some(why) => Err(SpecError::BadFtParams { n, d, r, why }),
        None => Ok(()),
    }
}

/// Parses a NoC spec:
///
/// * `hoplite:<n>` — baseline Hoplite on an `n × n` torus
/// * `ft:<n>:<d>:<r>` — FastTrack (Full policy)
/// * `ftlite:<n>:<d>:<r>` — FastTrack (Inject policy)
///
/// # Errors
///
/// Returns a [`SpecError`] describing the malformed field.
pub fn parse_noc(spec: &str) -> Result<NocConfig, SpecError> {
    let fields: Vec<&str> = spec.split(':').collect();
    match fields[0] {
        "hoplite" => {
            if fields.len() != 2 {
                return Err(SpecError::BadArity {
                    kind: "hoplite",
                    expected: 1,
                    found: fields.len() - 1,
                });
            }
            Ok(NocConfig::hoplite(num(fields[1])?)?)
        }
        "ft" | "ftlite" => {
            if fields.len() != 4 {
                return Err(SpecError::BadArity {
                    kind: "ft",
                    expected: 3,
                    found: fields.len() - 1,
                });
            }
            let policy = if fields[0] == "ft" {
                FtPolicy::Full
            } else {
                FtPolicy::Inject
            };
            let (n, d, r) = (num(fields[1])?, num(fields[2])?, num(fields[3])?);
            validate_ft_params(n, d, r)?;
            Ok(NocConfig::fasttrack(n, d, r, policy)?)
        }
        other => Err(SpecError::UnknownKind(other.to_string())),
    }
}

fn topology_spec_error(e: TopologySpecError) -> SpecError {
    match e {
        TopologySpecError::UnknownKind(k) => SpecError::UnknownKind(k),
        TopologySpecError::BadNumber(s) => SpecError::BadNumber(s),
        other => SpecError::Invalid(other.to_string()),
    }
}

/// Parses a topology spec covering every backend the CLI can drive:
///
/// * `hoplite:<n>` / `ft:<n>:<d>:<r>` / `ftlite:<n>:<d>:<r>` — torus
///   backends, identical to [`parse_noc`] (including the structural
///   `FT(N², D, R)` checks)
/// * `shg:<q>:<delta>` — Sparse Hamming Graph on a `q × q` grid with
///   `delta` strides per dimension
/// * `mesh:<n>:<depth>` — buffered XY mesh with `depth`-deep FIFOs
///
/// # Errors
///
/// Returns a [`SpecError`] describing the malformed field.
pub fn parse_topology(spec: &str) -> Result<TopologySpec, SpecError> {
    match spec.split(':').next().unwrap_or("") {
        "hoplite" | "ft" | "ftlite" => Ok(TopologySpec::Torus(parse_noc(spec)?)),
        "shg" | "mesh" => spec.parse::<TopologySpec>().map_err(topology_spec_error),
        other => Err(SpecError::UnknownKind(other.to_string())),
    }
}

/// Parses a pattern spec: `random`, `bitcompl`, `transpose`, `tornado`,
/// `shuffle`, `bitrev`, `local:<radius>`, or `hotspot:<percent>`.
///
/// # Errors
///
/// Returns a [`SpecError`] for unknown names or malformed parameters.
pub fn parse_pattern(spec: &str) -> Result<Pattern, SpecError> {
    let fields: Vec<&str> = spec.split(':').collect();
    match fields[0] {
        "random" => Ok(Pattern::Random),
        "bitcompl" => Ok(Pattern::BitComplement),
        "transpose" => Ok(Pattern::Transpose),
        "tornado" => Ok(Pattern::Tornado),
        "shuffle" => Ok(Pattern::Shuffle),
        "bitrev" => Ok(Pattern::BitReverse),
        "local" => {
            if fields.len() != 2 {
                return Err(SpecError::BadArity {
                    kind: "local",
                    expected: 1,
                    found: fields.len() - 1,
                });
            }
            let radius: u16 = num(fields[1])?;
            if radius == 0 {
                return Err(SpecError::Invalid("local radius must be at least 1".into()));
            }
            Ok(Pattern::Local { radius })
        }
        "hotspot" => {
            if fields.len() != 2 {
                return Err(SpecError::BadArity {
                    kind: "hotspot",
                    expected: 1,
                    found: fields.len() - 1,
                });
            }
            let percent: u8 = num(fields[1])?;
            if !(1..=100).contains(&percent) {
                return Err(SpecError::Invalid(format!(
                    "hotspot percent {percent} out of 1..=100"
                )));
            }
            Ok(Pattern::Hotspot { percent })
        }
        other => Err(SpecError::UnknownKind(other.to_string())),
    }
}

/// A parsed `--grid` specification: the cross product of topologies,
/// patterns, and injection rates a sweep expands into.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Topology specifications (in spec order).
    pub nocs: Vec<TopologySpec>,
    /// Traffic patterns (in spec order).
    pub patterns: Vec<Pattern>,
    /// Injection rates (in spec order).
    pub rates: Vec<f64>,
}

/// Parses a sweep grid spec of the form
/// `<noc>[,<noc>...];<pattern>[,<pattern>...];<rate>[,<rate>...]`,
/// e.g. `hoplite:8,ft:8:2:1;random,transpose;0.1,0.5,1.0`.
///
/// # Errors
///
/// Returns a [`SpecError`] for a missing section, an empty list, a
/// malformed element, or an out-of-range rate.
pub fn parse_grid(spec: &str) -> Result<GridSpec, SpecError> {
    let sections: Vec<&str> = spec.split(';').collect();
    if sections.len() != 3 {
        return Err(SpecError::BadArity {
            kind: "grid",
            expected: 3,
            found: sections.len(),
        });
    }
    let list = |s: &str| -> Vec<String> {
        s.split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(String::from)
            .collect()
    };
    let nocs = list(sections[0])
        .iter()
        .map(|s| parse_topology(s))
        .collect::<Result<Vec<_>, _>>()?;
    let patterns = list(sections[1])
        .iter()
        .map(|s| parse_pattern(s))
        .collect::<Result<Vec<_>, _>>()?;
    let rates = list(sections[2])
        .iter()
        .map(|s| num::<f64>(s))
        .collect::<Result<Vec<_>, _>>()?;
    if nocs.is_empty() || patterns.is_empty() || rates.is_empty() {
        return Err(SpecError::Invalid(
            "grid needs at least one NoC, pattern, and rate".into(),
        ));
    }
    for &rate in &rates {
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(SpecError::Invalid(format!(
                "injection rate {rate} out of (0,1]"
            )));
        }
    }
    Ok(GridSpec {
        nocs,
        patterns,
        rates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_noc_specs() {
        assert_eq!(parse_noc("hoplite:8").unwrap().name(), "Hoplite 8x8");
        assert_eq!(parse_noc("ft:8:2:1").unwrap().name(), "FT(64,2,1)");
        let lite = parse_noc("ftlite:8:2:2").unwrap();
        assert_eq!(lite.ft_policy(), Some(FtPolicy::Inject));
    }

    #[test]
    fn rejects_bad_noc_specs() {
        assert!(matches!(
            parse_noc("mesh:4"),
            Err(SpecError::UnknownKind(_))
        ));
        assert!(matches!(
            parse_noc("hoplite"),
            Err(SpecError::BadArity { .. })
        ));
        assert!(matches!(
            parse_noc("ft:8:2"),
            Err(SpecError::BadArity { .. })
        ));
        assert!(matches!(
            parse_noc("ft:8:x:1"),
            Err(SpecError::BadNumber(_))
        ));
    }

    #[test]
    fn rejects_ft_constraint_violations() {
        // D > N/2: express links would wrap past the far side.
        let e = parse_noc("ft:8:5:1").unwrap_err();
        assert!(
            matches!(
                e,
                SpecError::BadFtParams {
                    n: 8,
                    d: 5,
                    r: 1,
                    ..
                }
            ),
            "{e}"
        );
        assert!(e.to_string().contains("1 <= D <= N/2"), "{e}");
        assert!(e.to_string().contains("FT(64,5,1)"), "{e}");
        // D == 0 and R == 0.
        assert!(matches!(
            parse_noc("ft:8:0:1"),
            Err(SpecError::BadFtParams { .. })
        ));
        assert!(matches!(
            parse_noc("ft:8:2:0"),
            Err(SpecError::BadFtParams { .. })
        ));
        // R > D: some express spans would have no express router.
        assert!(matches!(
            parse_noc("ft:8:2:3"),
            Err(SpecError::BadFtParams { .. })
        ));
        // R does not divide D.
        assert!(matches!(
            parse_noc("ft:8:4:3"),
            Err(SpecError::BadFtParams { .. })
        ));
        // The ftlite path shares the check.
        assert!(matches!(
            parse_noc("ftlite:8:5:1"),
            Err(SpecError::BadFtParams { .. })
        ));
        // Boundary cases stay accepted.
        assert!(parse_noc("ft:8:4:4").is_ok(), "D == N/2, R == D");
        assert!(parse_noc("ft:8:1:1").is_ok(), "D == 1");
        assert!(validate_ft_params(8, 4, 2).is_ok());
    }

    #[test]
    fn parses_patterns() {
        assert_eq!(parse_pattern("random").unwrap(), Pattern::Random);
        assert_eq!(
            parse_pattern("local:2").unwrap(),
            Pattern::Local { radius: 2 }
        );
        assert_eq!(parse_pattern("transpose").unwrap(), Pattern::Transpose);
        assert_eq!(parse_pattern("shuffle").unwrap(), Pattern::Shuffle);
        assert_eq!(parse_pattern("bitrev").unwrap(), Pattern::BitReverse);
        assert_eq!(
            parse_pattern("hotspot:60").unwrap(),
            Pattern::Hotspot { percent: 60 }
        );
        assert!(matches!(
            parse_pattern("hotspot"),
            Err(SpecError::BadArity { .. })
        ));
        assert!(matches!(
            parse_pattern("hotspot:0"),
            Err(SpecError::Invalid(_))
        ));
        assert!(matches!(
            parse_pattern("hotspot:101"),
            Err(SpecError::Invalid(_))
        ));
        // Radius 0 leaves no destination to draw (the generator asserts).
        assert!(matches!(
            parse_pattern("local:0"),
            Err(SpecError::Invalid(_))
        ));
        assert!(matches!(
            parse_pattern("weird"),
            Err(SpecError::UnknownKind(_))
        ));
        assert!(matches!(
            parse_pattern("local"),
            Err(SpecError::BadArity { .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = parse_noc("ft:8:2").unwrap_err();
        assert!(e.to_string().contains("3 field"));
    }

    #[test]
    fn parses_grid_specs() {
        let g = parse_grid("hoplite:8,ft:8:2:1;random,local:2;0.1,0.5,1.0").unwrap();
        assert_eq!(g.nocs.len(), 2);
        assert_eq!(g.nocs[1].display_name(), "FT(64,2,1)");
        assert_eq!(
            g.patterns,
            vec![Pattern::Random, Pattern::Local { radius: 2 }]
        );
        assert_eq!(g.rates, vec![0.1, 0.5, 1.0]);
    }

    #[test]
    fn parses_topology_specs() {
        assert!(matches!(
            parse_topology("ft:8:2:1").unwrap(),
            TopologySpec::Torus(_)
        ));
        assert!(matches!(
            parse_topology("shg:8:2").unwrap(),
            TopologySpec::Shg(_)
        ));
        assert!(matches!(
            parse_topology("mesh:8:4").unwrap(),
            TopologySpec::Mesh { n: 8, depth: 4 }
        ));
        // The torus kinds keep their structural FT checks.
        assert!(matches!(
            parse_topology("ft:8:5:1"),
            Err(SpecError::BadFtParams { .. })
        ));
        assert!(matches!(
            parse_topology("shg:8"),
            Err(SpecError::Invalid(_))
        ));
        assert!(matches!(
            parse_topology("mesh:8:x"),
            Err(SpecError::BadNumber(_))
        ));
        assert!(matches!(
            parse_topology("ring:8"),
            Err(SpecError::UnknownKind(_))
        ));
    }

    #[test]
    fn grid_accepts_all_topology_kinds() {
        let g = parse_grid("hoplite:8,shg:8:2,mesh:8:4;random;0.5").unwrap();
        assert_eq!(g.nocs.len(), 3);
        assert!(matches!(g.nocs[1], TopologySpec::Shg(_)));
        assert!(matches!(g.nocs[2], TopologySpec::Mesh { .. }));
    }

    #[test]
    fn rejects_bad_grid_specs() {
        assert!(matches!(
            parse_grid("hoplite:8;random"),
            Err(SpecError::BadArity { .. })
        ));
        assert!(matches!(
            parse_grid(";random;0.5"),
            Err(SpecError::Invalid(_))
        ));
        assert!(matches!(
            parse_grid("hoplite:8;random;2.0"),
            Err(SpecError::Invalid(_))
        ));
        assert!(matches!(
            parse_grid("ring:8;random;0.5"),
            Err(SpecError::UnknownKind(_))
        ));
    }
}
