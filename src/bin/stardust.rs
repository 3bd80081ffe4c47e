//! The `stardust` command-line tool: stream monitoring over CSV input.
//!
//! See `stardust help` for usage. All logic lives in [`stardust::cli`].

use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, args) = match stardust::cli::Args::parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Input: last positional argument as a file, else stdin. `help` needs
    // no input; `serve` and `metrics` generate their own workload when
    // none is given (piped stdin is still honored — only an interactive
    // terminal is skipped, so the command runs without waiting for input).
    let no_input = matches!(cmd.as_str(), "help" | "--help" | "-h")
        || (matches!(cmd.as_str(), "serve" | "metrics")
            && args.positional().is_empty()
            && std::io::IsTerminal::is_terminal(&std::io::stdin()));
    let input = if no_input {
        String::new()
    } else if let Some(path) = args.positional().first() {
        match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read '{path}': {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            eprintln!("cannot read stdin: {e}");
            return ExitCode::FAILURE;
        }
        buf
    };
    match stardust::cli::run(&cmd, &args, &input) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
