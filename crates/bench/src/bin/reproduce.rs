//! `reproduce <artefact> [flags]`: regenerate one table or figure of the
//! paper's evaluation (the list is `bench::ARTEFACTS`). With no artefact,
//! or an unknown one, print the list and exit 1; a flag the artefact does
//! not read, or a bad value, exits 1 naming it before anything is written.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = argv.first() else {
        eprint!("{}", bench::usage());
        return ExitCode::FAILURE;
    };
    let Some(artefact) = bench::ARTEFACTS.iter().find(|a| a.name == name) else {
        eprint!("error: unknown artefact `{name}`\n\n{}", bench::usage());
        return ExitCode::FAILURE;
    };
    match artefact.parse(&argv[1..]) {
        Ok(args) => {
            (artefact.run)(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
