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

use ibfat_cli::{args, commands};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => {
            if let Err(e) = commands::run(cmd) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            std::process::exit(2);
        }
    }
}
