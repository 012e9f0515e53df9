//! The `fasttrack` binary: parse argv, dispatch, print.

use std::io::{self, ErrorKind, Write};

use fasttrack_cli::{CliError, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match fasttrack_cli::run(args) {
        // Commands that produce machine-readable output (CSV) already
        // end with exactly one newline; don't append a second.
        Ok(output) if output.ends_with('\n') => emit(io::stdout(), &output),
        Ok(output) => emit(io::stdout(), &(output + "\n")),
        Err(e) => {
            // Usage helps with malformed invocations; runtime failures
            // (a missed SLO, an I/O error) keep stderr to the verdict.
            let usage = matches!(e, CliError::Args(_) | CliError::UnknownCommand(_));
            let usage = if usage {
                format!("{USAGE}\n")
            } else {
                String::new()
            };
            emit(io::stderr(), &format!("error: {e}\n{usage}"));
            1
        }
    };
    std::process::exit(code);
}

/// Writes `text` and returns the exit status of having written it.
/// `print!` panics when the reader has gone (`fasttrack sweep … | head`);
/// a closed pipe is a quiet stop instead, which keeps the command's own
/// status.
fn emit(mut out: impl Write, text: &str) -> i32 {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            let _ = writeln!(io::stderr(), "error: writing output: {e}");
            1
        }
        _ => 0,
    }
}
