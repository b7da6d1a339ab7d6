//! The one figures binary.  `stat_figures NAME` prints one experiment from
//! [`stat_bench::EXPERIMENTS`]; `stat_figures all` regenerates every figure and
//! ablation, writing one text file per experiment under `results/` and printing
//! everything to stdout as well.
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use stat_bench::EXPERIMENTS;

fn main() -> ExitCode {
    let wanted = std::env::args().nth(1).unwrap_or_default();
    if wanted == "all" {
        let dir = Path::new("results");
        fs::create_dir_all(dir).expect("create results directory");
        for (name, _, generate) in EXPERIMENTS.iter().filter(|(_, in_all, _)| *in_all) {
            let contents = generate();
            let path = dir.join(format!("{name}.txt"));
            fs::write(&path, &contents).expect("write result file");
            println!("{contents}");
            eprintln!("wrote {}", path.display());
        }
        return ExitCode::SUCCESS;
    }
    match EXPERIMENTS.iter().find(|(name, ..)| *name == wanted) {
        Some((_, _, generate)) => {
            println!("{}", generate());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("usage: stat_figures <all|EXPERIMENT>, where EXPERIMENT is one of:");
            for (name, ..) in EXPERIMENTS {
                eprintln!("  {name}");
            }
            ExitCode::from(2)
        }
    }
}
