//! The repo benchmark: five workloads, min-of-K host time, exact
//! simulated statistics, and an outside-in layer trace. See `README.md`.
//!
//! ```text
//! fasttrack-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fasttrack-benchmark --all [--trace] [--seed <n>] [--seconds <s>] [--quick]
//! fasttrack-benchmark --repeat-check [N] [--seed <n>] [--seconds <s>]
//! fasttrack-benchmark --list
//! ```

mod catalog;
mod checks;
mod endtoend;
mod env;
mod estimator;
mod json;
mod plan;
mod report;
mod span;
mod traced;
mod workloads;

use endtoend::RunOptions;

/// `run_seconds` in `BENCHMARK.json`; what `--seconds` defaults to.
pub const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 7;

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    /// One workload in this process (what the acceptance driver runs).
    Workload {
        name: String,
        traced: bool,
    },
    /// Every workload, each in a fresh child process.
    All {
        traced: bool,
    },
    RepeatCheck {
        sets: usize,
    },
    List,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    quick: bool,
}

const USAGE: &str = "\
usage: fasttrack-benchmark --workload <name> [--trace <0|1>] [--seed <n>] [--seconds <s>] [--quick]
       fasttrack-benchmark --all [--trace] [--seed <n>] [--seconds <s>] [--quick]
       fasttrack-benchmark --repeat-check [N] [--seed <n>] [--seconds <s>] [--quick]
       fasttrack-benchmark --list";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let mut list = false;
    let mut repeat = None;
    let mut traced = false;
    let mut args = Args {
        mode: Mode::List,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        quick: false,
    };
    let mut it = argv.iter().peekable();
    // An optional value: taken only when the next argument is not a flag.
    fn optional<'a>(it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>) -> Option<&'a str> {
        it.next_if(|a| !a.starts_with("--")).map(String::as_str)
    }
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?.to_string()),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {v}: not a duration"))?;
            }
            "--trace" => {
                traced = match optional(&mut it) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(v) => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--quick" => args.quick = true,
            "--all" => all = true,
            "--list" => list = true,
            "--repeat-check" => {
                let sets = match optional(&mut it) {
                    None => 2,
                    Some(v) => v
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or_else(|| format!("--repeat-check {v}: need at least 2 sets"))?,
                };
                repeat = Some(sets);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.mode = match (workload, all, repeat, list) {
        (Some(name), false, None, false) => Mode::Workload { name, traced },
        (None, true, None, false) => Mode::All { traced },
        (None, false, Some(sets), false) => Mode::RepeatCheck { sets },
        (None, false, None, true) => Mode::List,
        _ => return Err("pick one of --workload, --all, --repeat-check, --list".into()),
    };
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cfg!(debug_assertions) && args.mode != Mode::List {
        eprintln!("error: this is a debug build; the benchmark measures optimized builds only (cargo run --release)");
        std::process::exit(2);
    }
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    let result = match &args.mode {
        Mode::List => {
            print!("{}", report::list());
            Ok(true)
        }
        Mode::Workload { name, traced } => report::run_workload(name, *traced, &opts),
        Mode::All { traced } => report::run_all(*traced, &opts),
        Mode::RepeatCheck { sets } => report::repeat_check(*sets, &opts),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn parses_the_acceptance_driver_command_line() {
        let a = parse("--workload torus-lowload --seed 11 --seconds 18 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                mode: Mode::Workload {
                    name: "torus-lowload".into(),
                    traced: true
                },
                seed: 11,
                seconds: 18.0,
                quick: false,
            }
        );
        let a = parse("--workload corpus-cli --seed 3 --seconds 5 --trace 0").unwrap();
        assert_eq!(
            a.mode,
            Mode::Workload {
                name: "corpus-cli".into(),
                traced: false
            }
        );
    }

    #[test]
    fn bare_trace_and_repeat_check_take_defaults() {
        assert_eq!(
            parse("--all --trace").unwrap().mode,
            Mode::All { traced: true }
        );
        assert_eq!(
            parse("--all --trace --quick").unwrap().mode,
            Mode::All { traced: true }
        );
        assert_eq!(
            parse("--repeat-check").unwrap().mode,
            Mode::RepeatCheck { sets: 2 }
        );
        assert_eq!(
            parse("--repeat-check 5 --seed 8").unwrap().mode,
            Mode::RepeatCheck { sets: 5 }
        );
        assert_eq!(parse("--list").unwrap().mode, Mode::List);
    }

    #[test]
    fn rejects_contradictions_and_garbage() {
        assert!(parse("").is_err());
        assert!(parse("--all --list").is_err());
        assert!(parse("--workload x --all").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--all --seed x").is_err());
        assert!(parse("--all --seconds -1").is_err());
        assert!(parse("--all --trace 2").is_err());
        assert!(parse("--repeat-check 1").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn default_seconds_is_the_contract_run_length() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(json::Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
