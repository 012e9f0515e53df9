//! The `fasttrack` binary: parse argv, dispatch, print.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match fasttrack_cli::run(args) {
        // Commands that produce machine-readable output (CSV) already
        // end with exactly one newline; don't append a second.
        Ok(output) if output.ends_with('\n') => print!("{output}"),
        Ok(output) => println!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            // Usage helps with malformed invocations; runtime failures
            // (a missed SLO, an I/O error) keep stderr to
            // the verdict itself.
            if matches!(
                e,
                fasttrack_cli::CliError::Args(_) | fasttrack_cli::CliError::UnknownCommand(_)
            ) {
                eprintln!("{}", fasttrack_cli::USAGE);
            }
            std::process::exit(1);
        }
    }
}
