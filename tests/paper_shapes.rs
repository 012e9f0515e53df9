//! The catalog driver: every table and figure of the paper, run at
//! reduced scale, with the paper's shape claims executed as checks
//! (`fasttrack_bench::figures`). `fasttrack figure --all` runs the same
//! entries at the paper's scale.
//!
//! The eight hand-built assertions this file used to hold are now
//! catalog checks; each old test name survives as a one-line lookup so
//! the mapping is executed rather than described:
//!
//! | old test (assertion)                                        | figure   | check that carries it (band)                                  |
//! |-------------------------------------------------------------|----------|----------------------------------------------------------------|
//! | `fasttrack_beats_hoplite_on_random` (FT > 2× Hoplite;       | fig11    | "~2.5× … on RANDOM" (2.0–3.0×) and "depopulated … sits       |
//! |   Hoplite < FT(64,2,2) < FT(64,2,1))                        |          |   between" (strict, on all four patterns, not just RANDOM)    |
//! | `no_win_below_saturation` (ratio in 0.95–1.05 at 5 %)       | fig11    | "no win below 10 %" (0.95–1.05 at 1, 2 and 5 %, four patterns) |
//! | `latency_improves_at_saturation` (FT < 0.65× at 50 %)       | fig12    | "under 0.65× on RANDOM at 50 % injection"                      |
//! | `iso_wiring_multichannel_comparison` (3x > 2× Hoplite;      | fig13    | "more than 2× its rate" (both) and "at 64 PEs … 1.1–1.4×"     |
//! |   FT > 0.95× Hoplite-3x)                                    |          |   (≥ 1.045×)                                                   |
//! | `worst_case_latency_tail_shrinks` (Hoplite > 1.5× FT)       | fig16    | "cut … 7×", pinned band 1.5–5.6× at 64 PEs                     |
//! | `express_length_sweet_spot` (D=2 > D=4)                     | fig17    | "peaks at D=2–3 and falls at D=4" (D=4 below D=2 *and* D=3)   |
//! | `express_usage_reduces_deflections` (express > 25 %;        | fig18    | "over a quarter" and "deflections per packet drop" (also      |
//! |   fewer deflections per packet)                             |          |   orders FT(64,2,2) between the two)                           |
//! | `inject_policy_between_hoplite_and_full`                    | abl-lane | "FTlite(Inject) still sits strictly between"                   |

use std::collections::HashSet;
use std::sync::OnceLock;

use fasttrack_bench::figures::{catalog, experiments_md, Figure, Outcome, Scale, Verdict};

fn run_all() -> Vec<(&'static Figure, Outcome)> {
    catalog()
        .iter()
        .map(|fig| (fig, (fig.run)(Scale::Reduced)))
        .collect()
}

/// One reduced-scale run of the whole catalog, shared by every test.
fn outcomes() -> &'static [(&'static Figure, Outcome)] {
    static RUN: OnceLock<Vec<(&'static Figure, Outcome)>> = OnceLock::new();
    RUN.get_or_init(run_all)
}

/// Asserts that figure `id` has a check whose claim contains `claim`
/// and that it did not fail.
#[track_caller]
fn carried_by(id: &str, claim: &str) {
    let (_, outcome) = outcomes()
        .iter()
        .find(|(fig, _)| fig.id == id)
        .unwrap_or_else(|| panic!("no figure {id}"));
    let check = outcome
        .checks
        .iter()
        .find(|c| c.claim.contains(claim))
        .unwrap_or_else(|| panic!("{id} has no check about {claim:?}"));
    assert_ne!(check.verdict, Verdict::Fails, "{}", check.line());
}

#[test]
fn no_figure_fails_a_check() {
    let failed: Vec<String> = outcomes()
        .iter()
        .flat_map(|(fig, outcome)| {
            outcome
                .checks
                .iter()
                .filter(|c| c.verdict == Verdict::Fails)
                .map(move |c| format!("{}: {}", fig.id, c.line()))
        })
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

#[test]
fn ids_and_slugs_are_unique_and_tables_are_filled() {
    let mut ids = HashSet::new();
    let mut slugs = HashSet::new();
    for (fig, outcome) in outcomes() {
        assert!(ids.insert(fig.id), "duplicate id {}", fig.id);
        assert!(!outcome.tables.is_empty(), "{} has no table", fig.id);
        assert!(!outcome.checks.is_empty(), "{} checks nothing", fig.id);
        for table in &outcome.tables {
            assert!(
                slugs.insert(table.title()),
                "duplicate slug {}",
                table.title()
            );
            assert!(!table.is_empty(), "{} is empty", table.title());
        }
    }
    assert_eq!(ids.len(), 23);
}

#[test]
fn two_runs_render_byte_identical_markdown() {
    assert_eq!(experiments_md(outcomes()), experiments_md(&run_all()));
}

#[test]
fn fasttrack_beats_hoplite_on_random() {
    carried_by("fig11", "on RANDOM at saturation");
    carried_by("fig11", "sits between Hoplite and FT(64,2,1)");
}

#[test]
fn no_win_below_saturation() {
    carried_by("fig11", "no win below 10 %");
}

#[test]
fn latency_improves_at_saturation() {
    carried_by("fig12", "under 0.65× on RANDOM at 50 % injection");
}

#[test]
fn iso_wiring_multichannel_comparison() {
    carried_by("fig13", "more than 2× its rate");
    carried_by("fig13", "at 64 PEs FT(64,2,1) sustains 1.1–1.4×");
}

#[test]
fn worst_case_latency_tail_shrinks() {
    carried_by("fig16", "cut Hoplite's worst-case latency 7×");
}

#[test]
fn express_length_sweet_spot() {
    carried_by("fig17", "peaks at D=2–3 and falls at D=4");
}

#[test]
fn express_usage_reduces_deflections() {
    carried_by("fig18", "over a quarter");
    carried_by("fig18", "deflections per packet drop");
}

#[test]
fn inject_policy_between_hoplite_and_full() {
    carried_by("abl-lane", "strictly between Hoplite and FT(Full)");
}
