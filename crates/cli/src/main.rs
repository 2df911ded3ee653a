//! `ibfat` — command-line front end for the fat-tree InfiniBand library.
//!
//! ```text
//! ibfat info 8x3
//! ibfat route 8x3 0 100 [--scheme mlid]
//! ibfat route 4x3 "P(000)" "P(100)"
//! ibfat verify 4x3 [--scheme slid]
//! ibfat discover 8x2
//! ibfat simulate 8x3 --pattern centric --load 0.4 --vls 2 --time-us 300
//! ibfat sweep 16x2 --loads 0.1,0.3,0.5 --vls 1
//! ibfat workload 8x3 --kind allreduce-ring --bytes 4096 --scheme mlid
//! ibfat workload 8x3 --kind replay --trace trace.jsonl
//! ```

use ibfat_cli::args;
use ibfat_cli::commands::{self, CmdError};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args::parse(&argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    // One locked stdout for the whole report; a reader that closes the
    // pipe early (`ibfat run … | head -1`) ends the run quietly.
    let mut out = io::stdout().lock();
    match commands::run(cmd, &mut out) {
        Ok(()) => ib_fabric::exit_after_stdout(out.flush()),
        Err(CmdError::Write(e)) => ib_fabric::exit_after_stdout(Err(e)),
        Err(CmdError::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
