//! Textual specifications for NoCs and patterns, e.g. `ft:8:2:1`,
//! `hoplite:16`, `random`, `local:2` — the CLI's configuration surface.

use std::fmt;

use fasttrack_core::config::NocConfig;
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
            SpecError::Invalid(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<TopologySpecError> for SpecError {
    fn from(e: TopologySpecError) -> Self {
        match e {
            TopologySpecError::UnknownKind(k) => SpecError::UnknownKind(k),
            TopologySpecError::BadNumber(s) => SpecError::BadNumber(s),
            TopologySpecError::Torus(e) => SpecError::Invalid(e.to_string()),
            other => SpecError::Invalid(other.to_string()),
        }
    }
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, SpecError> {
    s.parse().map_err(|_| SpecError::BadNumber(s.to_string()))
}

/// Parses a topology spec covering every backend the CLI can drive —
/// the [`TopologySpec`] grammar, which also checks the paper's
/// structural constraints on `FT(N², D, R)`:
///
/// * `hoplite:<n>` — baseline Hoplite on an `n × n` torus
/// * `ft:<n>:<d>:<r>` — FastTrack (Full policy)
/// * `ftlite:<n>:<d>:<r>` — FastTrack (Inject policy)
/// * `shg:<q>:<delta>` — Sparse Hamming Graph on a `q × q` grid with
///   `delta` strides per dimension
/// * `mesh:<n>[:<depth>]` — buffered XY mesh with `depth`-deep FIFOs
///
/// # Errors
///
/// Returns a [`SpecError`] describing the malformed field.
pub fn parse_topology(spec: &str) -> Result<TopologySpec, SpecError> {
    Ok(spec.parse::<TopologySpec>()?)
}

/// Parses a torus NoC spec: [`parse_topology`], restricted to
/// `hoplite:` / `ft:` / `ftlite:`. No command reads it; the repo
/// benchmark's plans (`benchmark/src/plan.rs`) build torus sessions
/// through it.
///
/// # Errors
///
/// Returns a [`SpecError`] describing the malformed field;
/// [`SpecError::Invalid`], naming the spec, for a well-formed `shg:` /
/// `mesh:` one.
pub fn parse_noc(spec: &str) -> Result<NocConfig, SpecError> {
    match parse_topology(spec)? {
        TopologySpec::Torus(cfg) => Ok(cfg),
        other => Err(SpecError::Invalid(format!(
            "{spec:?} names {}; this command models torus fabrics only (hoplite/ft/ftlite)",
            other.display_name()
        ))),
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

/// Checks that `pattern` is defined on `topology`'s side, where the two
/// first meet: the traffic source would panic on the first draw.
///
/// # Errors
///
/// Returns [`SpecError::Invalid`], naming the pattern and the side, for
/// a bit permutation on a side that is not a power of two.
pub fn check_pattern_side(pattern: Pattern, topology: &TopologySpec) -> Result<(), SpecError> {
    let side = topology.side();
    if pattern.admits_side(side) {
        Ok(())
    } else {
        Err(SpecError::Invalid(format!(
            "pattern {pattern} needs a power-of-two side, not {side}"
        )))
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
/// malformed element, an out-of-range rate, or a pattern one of the
/// NoCs cannot run.
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
    for noc in &nocs {
        for &pattern in &patterns {
            check_pattern_side(pattern, noc)?;
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
    use fasttrack_core::config::FtPolicy;
    use fasttrack_core::topology::Topology;
    use fasttrack_traffic::scenario::ScenarioHeader;

    #[test]
    fn parses_noc_specs() {
        assert_eq!(parse_noc("hoplite:8").unwrap().name(), "Hoplite 8x8");
        assert_eq!(parse_noc("ft:8:2:1").unwrap().name(), "FT(64,2,1)");
        let lite = parse_noc("ftlite:8:2:2").unwrap();
        assert_eq!(lite.ft_policy(), Some(FtPolicy::Inject));
    }

    #[test]
    fn rejects_bad_noc_specs() {
        assert!(matches!(parse_noc("mesh:4"), Err(SpecError::Invalid(_))));
        assert!(matches!(parse_noc("hoplite"), Err(SpecError::Invalid(_))));
        assert!(matches!(parse_noc("ft:8:2"), Err(SpecError::Invalid(_))));
        assert!(matches!(
            parse_noc("ft:8:x:1"),
            Err(SpecError::BadNumber(_))
        ));
    }

    /// The one check of `FT(N², D, R)` is `NocConfig::fasttrack`'s, so a
    /// violation reads as `ConfigError`'s sentence (the cases are in
    /// the table below).
    #[test]
    fn rejects_ft_constraint_violations() {
        let e = parse_noc("ft:8:5:1").unwrap_err();
        assert!(e.to_string().contains("need 1 <= d <= n/2"), "{e}");
    }

    /// The one check of a mesh spec is `MeshConfig::new`'s, so a side
    /// below 2 or a zero depth reads as `MeshConfigError`'s sentence,
    /// on the command line as in the grammar.
    #[test]
    fn rejects_mesh_config_violations() {
        for (spec, why) in [
            ("mesh:1", "mesh side 1 too small, need n >= 2"),
            ("mesh:4:0", "buffer depth must be at least 1"),
        ] {
            let message = format!("invalid configuration: invalid mesh spec: {why}");
            assert_eq!(parse_topology(spec).unwrap_err().to_string(), message);
            let argv = ["simulate", "--noc", spec].map(String::from).to_vec();
            let e = crate::run(argv).unwrap_err();
            assert_eq!(e.to_string(), message, "simulate --noc {spec}");
        }
    }

    /// Every surface that reads a NoC spec — the grid grammar's
    /// `parse_topology`, the torus-only `parse_noc`, and a scenario
    /// header's `topology` / `noc_config` — is the one [`TopologySpec`]
    /// grammar: the same value where it accepts, rejecting together
    /// where it does not.
    #[test]
    fn every_spec_surface_is_the_one_grammar() {
        // All five kinds: what grids, the fuzzer and the corpus headers
        // name, the FT boundaries (D == 1; D == N/2 with R == D; R
        // dividing D and tiling N), and the mesh's default depth.
        const ACCEPTED: &str = "hoplite:2 hoplite:4 hoplite:8 \
            ft:4:2:1 ft:8:2:1 ft:8:2:2 ft:8:1:1 ft:8:4:4 ft:16:4:2 \
            ftlite:8:2:1 ftlite:8:3:1 ftlite:8:4:1 ftlite:8:4:2 \
            shg:8:2 shg:8:3 mesh:4 mesh:4:4 mesh:8:2";
        // Unknown kind, wrong arity, a non-numeric field, a side below 2;
        // then the FT(N², D, R) violations — D == 0, R == 0, D > N/2,
        // D > N, R > D, R not dividing D, R not tiling N, shared by
        // `ftlite` — an SHG stride past the ring and a zero-depth mesh.
        const REJECTED: &str = "ring:8 hoplite hoplite:8:2 hoplite:x hoplite:1 \
            ft:8:2 ft:8:2:1:1 ft:8:x:1 shg:8 shg:x:2 mesh:1 mesh:8:x mesh:4:4:4 \
            ft:8:0:1 ft:8:2:0 ft:8:5:1 ft:8:9:1 ft:8:2:3 ft:8:4:3 ft:8:3:2 ft:10:4:4 \
            ftlite:8:5:1 shg:8:9 mesh:4:0";
        for spec in ACCEPTED.split_whitespace() {
            let parsed: TopologySpec = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
            let header = ScenarioHeader::new(spec, "t");
            assert_eq!(parse_topology(spec).as_ref(), Ok(&parsed), "{spec}");
            assert_eq!(header.topology().as_ref(), Ok(&parsed), "{spec}");
            match &parsed {
                TopologySpec::Torus(cfg) => {
                    assert_eq!(parse_noc(spec).as_ref(), Ok(cfg), "{spec}");
                    assert_eq!(header.noc_config().as_ref(), Ok(cfg), "{spec}");
                }
                _ => {
                    assert!(parse_noc(spec).is_err(), "{spec} is not a torus");
                    assert!(header.noc_config().is_err(), "{spec} is not a torus");
                }
            }
        }
        for spec in REJECTED.split_whitespace().chain([""]) {
            let header = ScenarioHeader::new(spec, "t");
            assert!(spec.parse::<TopologySpec>().is_err(), "{spec:?}");
            assert!(parse_topology(spec).is_err(), "{spec:?}");
            assert!(parse_noc(spec).is_err(), "{spec:?}");
            assert!(header.topology().is_err(), "{spec:?}");
            assert!(header.noc_config().is_err(), "{spec:?}");
        }
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
