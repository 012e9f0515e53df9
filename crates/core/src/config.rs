//! NoC configuration: the `FT(N², D, R)` topology family, router policies,
//! and validated, precomputed topology tables.

use std::fmt;

use crate::geom::gcd;

/// How packets may move between the short and express lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FtPolicy {
    /// FT (Full) router (paper Fig. 9b): packets may upgrade from short to
    /// express at any port, and express packets may leave the express lane
    /// at the livelock turns `W_ex → S_sh` and `N_ex → E_sh`.
    #[default]
    Full,
    /// FTlite (Inject) router (paper Fig. 9c): packets board the express
    /// lane only at PE injection and then stay on it until delivery; short
    /// packets likewise stay on short links. Cheapest switch variant.
    Inject,
}

impl fmt::Display for FtPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtPolicy::Full => f.write_str("full"),
            FtPolicy::Inject => f.write_str("inject"),
        }
    }
}

/// Which NoC we are simulating: the Hoplite baseline or a FastTrack variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum NocKind {
    /// Baseline Hoplite: unidirectional torus, short links only.
    Hoplite,
    /// FastTrack with express links of length `d`, depopulation factor `r`,
    /// and the given lane-change policy.
    FastTrack {
        /// Express-link length in hops.
        d: u16,
        /// Depopulation factor.
        r: u16,
        /// Lane-change policy.
        policy: FtPolicy,
    },
}

/// How packet delivery (exit) interacts with the south output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExitPolicy {
    /// The NoC exit shares the `S_sh` output port (Hoplite's austere
    /// two-mux switch): a delivery and a south-bound short hop cannot
    /// happen in the same cycle at one router.
    #[default]
    SharedWithSouth,
    /// A dedicated exit port: delivery does not block `S_sh`.
    Dedicated,
}

/// Extra pipeline registers inserted along NoC links (paper §V: "we can
/// also insert a configurable number of additional registers along the
/// NoC links if an even faster frequency is desired"). Each extra
/// register adds one cycle of link latency and shortens the per-segment
/// wire, raising the achievable clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LinkPipeline {
    /// Extra registers on each short link.
    pub short: u8,
    /// Extra registers on each express link (longer wires benefit most).
    pub express: u8,
}

impl LinkPipeline {
    /// No extra registers (the paper's default single-register links).
    pub(crate) const NONE: LinkPipeline = LinkPipeline {
        short: 0,
        express: 0,
    };

    /// Cycles a short-link traversal takes.
    pub(crate) fn short_cycles(self) -> u16 {
        1 + self.short as u16
    }

    /// Cycles an express-link traversal takes.
    pub(crate) fn express_cycles(self) -> u16 {
        1 + self.express as u16
    }

    /// The largest link delay (sizes the engine's timing wheel).
    pub(crate) fn max_cycles(self) -> u16 {
        self.short_cycles().max(self.express_cycles())
    }
}

/// Errors raised when validating a [`NocConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `n` must be at least 2.
    SystemTooSmall {
        /// Offending system size.
        n: u16,
    },
    /// Express length `d` must satisfy `1 <= d <= n/2`.
    BadExpressLength {
        /// Offending express length.
        d: u16,
        /// System size.
        n: u16,
    },
    /// Depopulation `r` must satisfy `1 <= r <= d` and `d % r == 0`.
    BadDepopulation {
        /// Express length.
        d: u16,
        /// Offending depopulation factor.
        r: u16,
    },
    /// `n % r != 0`: express routers would not tile the ring evenly.
    DepopulationDoesNotTile {
        /// System size.
        n: u16,
        /// Offending depopulation factor.
        r: u16,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::SystemTooSmall { n } => {
                write!(f, "system size n={n} too small, need n >= 2")
            }
            ConfigError::BadExpressLength { d, n } => {
                write!(
                    f,
                    "express length d={d} invalid for n={n}, need 1 <= d <= n/2"
                )
            }
            ConfigError::BadDepopulation { d, r } => {
                write!(
                    f,
                    "depopulation r={r} invalid for d={d}, need 1 <= r <= d and d % r == 0"
                )
            }
            ConfigError::DepopulationDoesNotTile { n, r } => {
                write!(
                    f,
                    "depopulation r={r} does not tile ring of size n={n} (n % r != 0)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A fully validated NoC configuration.
///
/// Construct via [`NocConfig::hoplite`] or [`NocConfig::fasttrack`] (the
/// paper's `FT(N², D, R)` notation).
///
/// # Examples
///
/// ```
/// use fasttrack_core::config::{NocConfig, FtPolicy};
///
/// // The paper's workhorse configuration FT(64, 2, 1): an 8x8 torus with
/// // length-2 express links at every router.
/// let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full)?;
/// assert_eq!(cfg.num_nodes(), 64);
/// assert_eq!(cfg.d(), 2);
/// # Ok::<(), fasttrack_core::config::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    n: u16,
    kind: NocKind,
    exit: ExitPolicy,
    pipeline: LinkPipeline,
    /// `express_hops[delta]`: minimal number of express hops that lands a
    /// packet exactly `delta` positions ahead on the ring (None if the
    /// express network cannot reach that offset). Index 0 is `None`.
    express_hops: Vec<Option<u16>>,
}

impl NocConfig {
    /// Baseline Hoplite on an `n × n` unidirectional torus.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::SystemTooSmall`] if `n < 2`.
    pub fn hoplite(n: u16) -> Result<Self, ConfigError> {
        if n < 2 {
            return Err(ConfigError::SystemTooSmall { n });
        }
        Ok(NocConfig {
            n,
            kind: NocKind::Hoplite,
            exit: ExitPolicy::default(),
            pipeline: LinkPipeline::NONE,
            express_hops: vec![None; n as usize],
        })
    }

    /// FastTrack `FT(n², d, r)` on an `n × n` torus.
    ///
    /// `d` is the express-link length in hops; `r` is the depopulation
    /// factor (express-capable routers appear every `r` positions; `r == 1`
    /// is the fully populated topology, `r == d` the cheapest one that
    /// still retains express links).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `n < 2`, `d` is outside `1..=n/2`,
    /// `r` is outside `1..=d` or does not divide `d`, or `r` does not
    /// divide `n`.
    ///
    /// # `FT(N², 1, 1)` degenerates to Hoplite
    ///
    /// A length-1 "express" link is physically indistinguishable from
    /// the short torus link next to it, so `d == 1` keeps the FastTrack
    /// *name* but degenerates the datapath to exactly baseline Hoplite:
    /// shared south/exit mux, no express lanes, no lane-change logic.
    /// Its links, price, wires and clock are Hoplite's too. The
    /// differential tests assert that `FT(N², 1, 1)` is cycle-for-cycle
    /// identical to `hoplite(n)`.
    pub fn fasttrack(n: u16, d: u16, r: u16, policy: FtPolicy) -> Result<Self, ConfigError> {
        if n < 2 {
            return Err(ConfigError::SystemTooSmall { n });
        }
        if d == 0 || d > n / 2 {
            return Err(ConfigError::BadExpressLength { d, n });
        }
        if r == 0 || r > d || !d.is_multiple_of(r) {
            return Err(ConfigError::BadDepopulation { d, r });
        }
        if !n.is_multiple_of(r) {
            return Err(ConfigError::DepopulationDoesNotTile { n, r });
        }
        let (exit, express_hops) = if d == 1 {
            // Degenerate: Hoplite datapath (see doc comment above).
            (ExitPolicy::SharedWithSouth, vec![None; n as usize])
        } else {
            // FastTrack routers carry a dedicated 5:1 exit mux (paper
            // Fig. 9b) — unlike Hoplite's shared S/exit port.
            (ExitPolicy::Dedicated, compute_express_hops(n, d))
        };
        Ok(NocConfig {
            n,
            kind: NocKind::FastTrack { d, r, policy },
            exit,
            pipeline: LinkPipeline::NONE,
            express_hops,
        })
    }

    /// Replaces the exit policy (default: [`ExitPolicy::SharedWithSouth`]).
    pub fn with_exit_policy(mut self, exit: ExitPolicy) -> Self {
        self.exit = exit;
        self
    }

    /// Adds extra pipeline registers to the NoC links (paper §V).
    pub fn with_link_pipeline(mut self, pipeline: LinkPipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// The link pipelining configuration.
    pub(crate) fn link_pipeline(&self) -> LinkPipeline {
        self.pipeline
    }

    /// Torus side length `N`.
    pub fn n(&self) -> u16 {
        self.n
    }

    /// Total routers/PEs (`N²`).
    pub fn num_nodes(&self) -> usize {
        self.n as usize * self.n as usize
    }

    /// Which NoC family this is.
    pub(crate) fn kind(&self) -> NocKind {
        self.kind
    }

    /// Exit-port sharing policy.
    pub(crate) fn exit_policy(&self) -> ExitPolicy {
        self.exit
    }

    /// Express-link length `D` (0 for Hoplite).
    pub fn d(&self) -> u16 {
        match self.kind {
            NocKind::Hoplite => 0,
            NocKind::FastTrack { d, .. } => d,
        }
    }

    /// Depopulation factor `R` (0 for Hoplite).
    pub fn r(&self) -> u16 {
        match self.kind {
            NocKind::Hoplite => 0,
            NocKind::FastTrack { r, .. } => r,
        }
    }

    /// Lane-change policy (None for Hoplite).
    pub fn ft_policy(&self) -> Option<FtPolicy> {
        match self.kind {
            NocKind::Hoplite => None,
            NocKind::FastTrack { policy, .. } => Some(policy),
        }
    }

    /// True if the router at ring position `pos` has express ports in a
    /// dimension (both the express input and output are present, since
    /// `d % r == 0` makes express chains land only on express routers).
    pub(crate) fn has_express_at(&self, pos: u16) -> bool {
        match self.kind {
            NocKind::Hoplite => false,
            // d == 1 degenerates to the Hoplite datapath (no express
            // routers anywhere); see [`NocConfig::fasttrack`].
            NocKind::FastTrack { d: 1, .. } => false,
            NocKind::FastTrack { r, .. } => pos.is_multiple_of(r),
        }
    }

    /// Minimal number of express hops covering exactly `delta` ring
    /// positions, or `None` when the express network cannot reach that
    /// offset (or `delta == 0`).
    fn express_hops_for(&self, delta: u16) -> Option<u16> {
        self.express_hops.get(delta as usize).copied().flatten()
    }

    /// Whether a packet `delta` positions away from its target column/row,
    /// standing at an express-capable router, should board the express
    /// lane: the offset must be express-reachable in **no more** cycles
    /// than riding short links (paper: use express iff `Δ ≥ D`). For
    /// `D = 1` the table is empty — the configuration degenerates to the
    /// Hoplite datapath (see [`NocConfig::fasttrack`]).
    pub(crate) fn express_worthwhile(&self, delta: u16) -> bool {
        match self.express_hops_for(delta) {
            Some(k) => k <= delta,
            None => false,
        }
    }

    /// True when a ring offset of `delta` is *reachable* by some number of
    /// express hops (equivalently `delta % gcd(D, N) == 0`; offset 0 counts
    /// as aligned). This is the invariant that must hold for a packet to be
    /// allowed onto an express lane: express hops preserve the offset
    /// modulo `gcd(D, N)`, so a misaligned packet could never get off.
    pub(crate) fn express_aligned(&self, delta: u16) -> bool {
        match self.kind {
            NocKind::Hoplite => false,
            NocKind::FastTrack { d, .. } => delta.is_multiple_of(gcd(d, self.n)),
        }
    }

    /// Short human-readable name, e.g. `Hoplite 8x8` or `FT(64,2,1)`.
    pub fn name(&self) -> String {
        match self.kind {
            NocKind::Hoplite => format!("Hoplite {0}x{0}", self.n),
            NocKind::FastTrack { d, r, .. } => {
                format!("FT({},{},{})", self.num_nodes(), d, r)
            }
        }
    }
}

impl fmt::Display for NocConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Computes, for every ring offset `delta` in `0..n`, the minimal number of
/// express hops (each of length `d`, wrapping mod `n`) that lands exactly on
/// `delta`. Offset 0 maps to `None` (no point riding express to stay put).
fn compute_express_hops(n: u16, d: u16) -> Vec<Option<u16>> {
    let mut table = vec![None; n as usize];
    let g = gcd(d, n);
    // Walk the express ring; it returns to the origin after n/g hops.
    let mut pos = 0u16;
    for k in 1..=(n / g) {
        pos = (pos + d) % n;
        let slot = &mut table[pos as usize];
        if pos != 0 && slot.is_none() {
            *slot = Some(k);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Topology, WireClass};

    #[test]
    fn hoplite_basics() {
        let cfg = NocConfig::hoplite(8).unwrap();
        assert_eq!(cfg.n(), 8);
        assert_eq!(cfg.num_nodes(), 64);
        assert!(cfg.links().iter().all(|l| l.class == WireClass::Short));
        assert_eq!(cfg.d(), 0);
        assert_eq!(cfg.name(), "Hoplite 8x8");
        assert!(!cfg.has_express_at(0));
        assert_eq!(cfg.express_hops_for(4), None);
    }

    #[test]
    fn fasttrack_notation() {
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
        assert_eq!(cfg.name(), "FT(64,2,1)");
        assert_eq!(cfg.d(), 2);
        assert_eq!(cfg.r(), 1);
        assert_eq!(cfg.ft_policy(), Some(FtPolicy::Full));
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            NocConfig::hoplite(1).unwrap_err(),
            ConfigError::SystemTooSmall { n: 1 }
        );
        assert_eq!(
            NocConfig::fasttrack(8, 0, 1, FtPolicy::Full).unwrap_err(),
            ConfigError::BadExpressLength { d: 0, n: 8 }
        );
        assert_eq!(
            NocConfig::fasttrack(8, 5, 1, FtPolicy::Full).unwrap_err(),
            ConfigError::BadExpressLength { d: 5, n: 8 }
        );
        assert_eq!(
            NocConfig::fasttrack(8, 4, 3, FtPolicy::Full).unwrap_err(),
            ConfigError::BadDepopulation { d: 4, r: 3 }
        );
        assert_eq!(
            NocConfig::fasttrack(6, 3, 0, FtPolicy::Full).unwrap_err(),
            ConfigError::BadDepopulation { d: 3, r: 0 }
        );
        // r=3 does not tile n=8 even if it divides d=3... first d check:
        // d=3 <= 4 ok, r=3 divides d=3 ok, but 8 % 3 != 0.
        assert_eq!(
            NocConfig::fasttrack(8, 3, 3, FtPolicy::Full).unwrap_err(),
            ConfigError::DepopulationDoesNotTile { n: 8, r: 3 }
        );
    }

    #[test]
    fn express_hops_divisible() {
        // n=8, d=2: even offsets reachable in delta/2 hops.
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
        assert_eq!(cfg.express_hops_for(0), None);
        assert_eq!(cfg.express_hops_for(2), Some(1));
        assert_eq!(cfg.express_hops_for(4), Some(2));
        assert_eq!(cfg.express_hops_for(6), Some(3));
        assert_eq!(cfg.express_hops_for(1), None);
        assert_eq!(cfg.express_hops_for(7), None);
    }

    #[test]
    fn express_hops_coprime_wraps() {
        // n=8, d=3: gcd=1, every offset reachable, possibly via wrap.
        let cfg = NocConfig::fasttrack(8, 3, 1, FtPolicy::Full).unwrap();
        assert_eq!(cfg.express_hops_for(3), Some(1));
        assert_eq!(cfg.express_hops_for(6), Some(2));
        assert_eq!(cfg.express_hops_for(1), Some(3)); // 3*3 = 9 ≡ 1 (mod 8)
        assert_eq!(cfg.express_hops_for(4), Some(4)); // 12 ≡ 4
        assert_eq!(cfg.express_hops_for(7), Some(5)); // 15 ≡ 7
        assert_eq!(cfg.express_hops_for(2), Some(6)); // 18 ≡ 2
        assert_eq!(cfg.express_hops_for(5), Some(7)); // 21 ≡ 5
    }

    #[test]
    fn express_worthwhile_only_when_faster() {
        let cfg = NocConfig::fasttrack(8, 3, 1, FtPolicy::Full).unwrap();
        assert!(cfg.express_worthwhile(6)); // 2 hops < 6
        assert!(cfg.express_worthwhile(3)); // 1 hop < 3
        assert!(!cfg.express_worthwhile(1)); // 3 hops > 1 short hop
        assert!(!cfg.express_worthwhile(2)); // 6 hops > 2
        assert!(cfg.express_worthwhile(7)); // 5 hops < 7
        assert!(!cfg.express_worthwhile(0));
    }

    #[test]
    fn depopulation_positions() {
        let cfg = NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap();
        assert!(cfg.has_express_at(0));
        assert!(!cfg.has_express_at(1));
        assert!(cfg.has_express_at(2));
        assert_eq!(cfg.name(), "FT(64,2,2)");
    }

    #[test]
    fn d1_degenerates_to_hoplite_datapath() {
        let cfg = NocConfig::fasttrack(8, 1, 1, FtPolicy::Full).unwrap();
        assert_eq!(cfg.name(), "FT(64,1,1)");
        assert!(
            matches!(cfg.kind(), NocKind::FastTrack { d: 1, r: 1, .. }),
            "the kind stays FT"
        );
        assert!(
            cfg.links().iter().all(|l| l.class == WireClass::Short),
            "D = 1 lays no express link"
        );
        assert_eq!(cfg.exit_policy(), ExitPolicy::SharedWithSouth);
        for pos in 0..8 {
            assert!(!cfg.has_express_at(pos));
        }
        for delta in 0..8 {
            assert_eq!(cfg.express_hops_for(delta), None);
            assert!(!cfg.express_worthwhile(delta));
        }
        // d >= 2 keeps the dedicated FastTrack exit mux.
        let ft2 = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
        assert_eq!(ft2.exit_policy(), ExitPolicy::Dedicated);
    }

    #[test]
    fn exit_policy_builder() {
        let cfg = NocConfig::hoplite(4)
            .unwrap()
            .with_exit_policy(ExitPolicy::Dedicated);
        assert_eq!(cfg.exit_policy(), ExitPolicy::Dedicated);
        let cfg2 = NocConfig::hoplite(4).unwrap();
        assert_eq!(cfg2.exit_policy(), ExitPolicy::SharedWithSouth);
    }

    #[test]
    fn config_error_display() {
        let e = ConfigError::BadExpressLength { d: 9, n: 8 };
        assert!(e.to_string().contains("d=9"));
    }
}
