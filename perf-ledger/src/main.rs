//! perf-ledger: a steady wall-clock benchmark of the real ADCNN runtime.
//!
//! ```text
//! perf-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out DIR]
//! perf-ledger suite --repeat N [--traced K] [--seconds S] [--seed-base B] [--smoke] [--out DIR]
//! perf-ledger compare A/ledger.json B/ledger.json
//! perf-ledger spec
//! ```
//!
//! A run prints its result as the last line of standard output; everything
//! else (the quiet-tenth vs whole-window figures, the run document's path)
//! goes to standard error. See README.md.

mod clock;
mod json;
mod ledger;
mod models;
mod quiet;
mod run;
mod serve;
mod spec;
mod sys;
mod walk;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  perf-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out DIR]
  perf-ledger suite --repeat N [--traced K] [--seconds S] [--seed-base B] [--smoke] [--out DIR]
  perf-ledger compare A/ledger.json B/ledger.json
  perf-ledger spec        (prints BENCHMARK.json from src/spec.rs)";

/// Smoke runs measure this long whatever `--seconds` says: one second
/// untraced; eight traced, the least that gives each of the traced pass's
/// six served windows a block of every workload.
const SMOKE_SECONDS: [f64; 2] = [1.0, 8.0];

/// `--key value` pairs and bare flags after the optional subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.0.iter().position(|a| a == key) {
            None => Ok(None),
            Some(i) if i + 1 < self.0.len() => {
                let v = self.0.remove(i + 1);
                self.0.remove(i);
                Ok(Some(v))
            }
            Some(_) => Err(format!("{key} needs a value")),
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        match self.value(key)? {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("bad value '{v}' for {key}")),
        }
    }

    fn flag(&mut self, key: &str) -> bool {
        match self.0.iter().position(|a| a == key) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(a) => Err(format!("unexpected argument '{a}'")),
        }
    }
}

fn out_dir(flags: &mut Flags) -> Result<PathBuf, String> {
    Ok(flags.value("--out")?.map_or_else(|| PathBuf::from("perf-ledger/out"), PathBuf::from))
}

fn run(mut flags: Flags) -> Result<ExitCode, String> {
    // Before anything is spawned: every runtime, worker, supervisor and
    // socket thread inherits this thread's one-CPU mask. Only a run pins;
    // `suite` must leave its children both CPUs to choose from.
    let machine = sys::pin_process();
    let name = flags.value("--workload")?.ok_or("--workload is required")?;
    let workload = spec::workload(&name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", names.join(", "))
    })?;
    let smoke = flags.flag("--smoke");
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(spec::RUN_SECONDS as f64);
    let trace = match flags.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, not '{v}'")),
    };
    let args = run::RunArgs {
        workload,
        seed: flags.parsed("--seed")?.unwrap_or(1),
        seconds: if smoke { SMOKE_SECONDS[usize::from(trace)] } else { seconds },
        trace,
        smoke,
        out_dir: out_dir(&mut flags)?,
    };
    flags.done()?;
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }

    let doc =
        if args.trace { run::traced(&args, machine)? } else { run::end_to_end(&args, machine)? };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {:?}: {e}", args.out_dir))?;
    let path = args.out_dir.join(format!("{}.trace{}.json", workload.name, u8::from(args.trace)));
    std::fs::write(&path, doc.document.to_string()).map_err(|e| format!("write {path:?}: {e}"))?;
    eprintln!("[{}] run document: {}", workload.name, path.display());
    println!("{}", doc.result_line);
    Ok(ExitCode::SUCCESS)
}

fn dispatch() -> Result<ExitCode, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("suite") => {
            let mut flags = Flags(argv.split_off(1));
            let smoke = flags.flag("--smoke");
            let args = ledger::SuiteArgs {
                repeat: flags.parsed("--repeat")?.unwrap_or(10),
                traced: flags.parsed("--traced")?.unwrap_or(1),
                seconds: flags.parsed("--seconds")?.unwrap_or(spec::RUN_SECONDS as f64),
                seed_base: flags.parsed("--seed-base")?.unwrap_or(1),
                smoke,
                out_dir: out_dir(&mut flags)?,
            };
            flags.done()?;
            ledger::suite(&args)?;
            Ok(ExitCode::SUCCESS)
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match argv.as_slice() {
            [_, a, b] => {
                let ok = ledger::compare(a.as_ref(), b.as_ref())?;
                Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
            }
            _ => Err("compare takes two ledger paths".into()),
        },
        Some("--help" | "-h") | None => {
            eprintln!("{USAGE}");
            Ok(ExitCode::from(2))
        }
        Some(_) => run(Flags(argv)),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
