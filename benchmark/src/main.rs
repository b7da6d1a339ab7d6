//! Command line of the benchmark; see `benchmark/README.md`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stat_benchmark::compare::{bounds_of, compare, table, Outcome};
use stat_benchmark::json::Json;
use stat_benchmark::report::{driver_line, listing, run_record};
use stat_benchmark::suite::{run_all, Plan};
use stat_benchmark::workloads::{Budget, Scale, Workload, DEFAULT_SECONDS, DEFAULT_SEED};

const USAGE: &str = "\
usage: stat-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       stat-benchmark all [--workload <name>] [--seed N] [--seconds S] [--runs R] [--out FILE]
       stat-benchmark compare <a.json> <b.json>
workloads: attach_208k merge_wide_64kd attach_1m stream_64k_hang";

/// Where this crate's source stands: `BENCHMARK.json` is beside it and `out/`
/// inside it, wherever the caller stands.
const CRATE_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// `--flag value` pairs and the bare arguments between them.
struct Args {
    flags: BTreeMap<String, String>,
    bare: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut flags, mut bare) = (BTreeMap::new(), Vec::new());
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?;
                    flags.insert(flag.to_string(), value);
                }
                None => bare.push(arg),
            }
        }
        Ok(Args { flags, bare })
    }

    /// Refuse a flag the subcommand does not read: one that is silently
    /// dropped would leave a run configured otherwise than its caller thinks.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|f| !known.contains(&f.as_str())) {
            Some(flag) => Err(format!("unknown option --{flag}\n{USAGE}")),
            None => Ok(()),
        }
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{flag}: cannot read {text:?}")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.flags
            .get("workload")
            .map(|name| {
                Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
            })
            .transpose()
    }
}

fn write_json(path: &PathBuf, value: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.to_line() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    args.only(&["workload", "seed", "seconds", "trace", "out"])?;
    let workload = args
        .workload()?
        .ok_or("one run (`run`, or run.sh with --trace) needs --workload")?;
    let seed = args.get("seed", DEFAULT_SEED)?;
    let traced = match args.get("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let budget = Budget::Seconds(args.get("seconds", DEFAULT_SECONDS)?);
    let result =
        stat_benchmark::run_workload(workload, Scale::Full, seed, budget, traced, process_start)
            .map_err(|e| format!("{}: {e}", workload.name()))?;
    if let Some(path) = args.flags.get("out") {
        write_json(
            &PathBuf::from(path),
            &run_record(&result, seed, traced, budget, Scale::Full),
        )?;
    }
    print!("{}", listing(&result));
    // The driver reads the last line.  `correct` carries the verdict; the exit
    // code says only whether the run could be measured at all.
    println!("{}", driver_line(&result, traced).to_line());
    Ok(ExitCode::SUCCESS)
}

fn all(args: &Args) -> Result<ExitCode, String> {
    args.only(&["workload", "seed", "seconds", "runs", "out"])?;
    let seed = args.get("seed", DEFAULT_SEED)?;
    let plan = Plan {
        workloads: args.workload()?.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        seed,
        runs: args.get("runs", 3)?,
        seconds: args.get("seconds", DEFAULT_SECONDS)?,
    };
    let out = PathBuf::from(args.get("out", format!("{CRATE_DIR}/out/result-seed{seed}.json"))?);
    // Beside the result file, every run's full record: each operation's wall,
    // each set-up, each traced operation's spans.
    let records = out.with_extension("runs");
    let (file, all_correct) = run_all(&plan, &records)?;
    write_json(&out, &file)?;
    println!("wrote {} and {}/", out.display(), records.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    args.only(&[])?;
    let [_, a, b] = args.bare.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let bounds = bounds_of(&read_json(&format!("{CRATE_DIR}/../BENCHMARK.json"))?)?;
    let rows = compare(&read_json(a)?, &read_json(b)?, &bounds)?;
    print!("{}", table(&rows));
    let regressed = rows
        .iter()
        .filter(|r| r.outcome == Outcome::Regressed)
        .count();
    println!("{regressed} regressed of {} rows", rows.len());
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.bare.first().map(String::as_str) {
            Some("run") => run(&args, process_start),
            Some("all") => all(&args),
            Some("compare") => compare_files(&args),
            _ => Err(USAGE.to_string()),
        }
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
