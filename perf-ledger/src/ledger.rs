//! `suite`: every workload, N times, each run a fresh child process, into
//! one `ledger.json`. `compare`: two ledgers side by side, judged by the
//! benchmark's own bounds.

use crate::json::{self, Value};
use crate::spec::{self, Better};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Options of `suite`.
pub struct SuiteArgs {
    pub repeat: usize,
    /// Traced runs per workload (their metrics go to the ledger unjudged).
    pub traced: usize,
    pub seconds: f64,
    pub seed_base: u64,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` cuts them
/// (exclusive method) — the rule the driver judges spreads by. Needs two
/// values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

fn run_child(
    exe: &Path,
    a: &SuiteArgs,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<Value, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(a.out_dir.join(format!("seed-{seed}")));
    if a.smoke {
        cmd.arg("--smoke");
    }
    // `output()` waits for the child: nothing is left running.
    let out = cmd.output().map_err(|e| format!("spawn {exe:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {}: exit {:?}\n{}",
            u8::from(trace),
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(last).map_err(|e| format!("child result line: {e}"))
}

fn summary(runs: &[Value]) -> Value {
    let mut rows = Vec::new();
    for w in &spec::WORKLOADS {
        let mut per_metric = Vec::new();
        for m in &spec::END_TO_END {
            let values = metric_values(runs, w.name, m.name);
            if let Some((q1, med, q3)) = quartiles(&values) {
                per_metric.push((
                    m.name,
                    Value::obj([
                        ("n", values.len().into()),
                        ("q1", q1.into()),
                        ("median", med.into()),
                        ("q3", q3.into()),
                        ("iqr_share", ((q3 - q1) / med).into()),
                        ("unit", m.unit.into()),
                    ]),
                ));
            }
        }
        rows.push((w.name, Value::obj(per_metric)));
    }
    Value::obj(rows)
}

/// Run the suite and write `<out>/ledger.json`; every run's document and
/// trace stay under `<out>/seed-<n>/`.
pub fn suite(a: &SuiteArgs) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("create {:?}: {e}", a.out_dir))?;
    let mut runs = Vec::new();
    for r in 0..a.repeat.max(a.traced) {
        for w in &spec::WORKLOADS {
            let seed = a.seed_base + r as u64;
            for trace in [false, true] {
                if r >= if trace { a.traced } else { a.repeat } {
                    continue;
                }
                let line = run_child(&exe, a, w.name, seed, trace)?;
                eprintln!("suite: {} seed {seed} trace {} -> {line}", w.name, u8::from(trace));
                let mut row = vec![
                    ("workload".to_string(), Value::from(w.name)),
                    ("seed".to_string(), Value::from(seed)),
                    ("trace".to_string(), Value::from(u64::from(trace))),
                ];
                row.extend(line.as_obj().ok_or("result line is not an object")?.iter().cloned());
                runs.push(Value::Obj(row));
            }
        }
    }
    let ledger = Value::obj([
        ("schema", "adcnn-perf-ledger/ledger/1".into()),
        (
            "facts",
            Value::obj([
                ("clock", "wall".into()),
                ("mode", if a.smoke { "smoke" } else { "full" }.into()),
                ("simd", crate::sys::simd_tier().into()),
                ("commit", crate::sys::git_commit().into()),
                ("seconds", a.seconds.into()),
                ("repeat", a.repeat.into()),
                ("seed_base", a.seed_base.into()),
            ]),
        ),
        ("summary", summary(&runs)),
        ("runs", Value::Arr(runs)),
    ]);
    let path = a.out_dir.join("ledger.json");
    std::fs::write(&path, ledger.to_string()).map_err(|e| format!("write {path:?}: {e}"))?;
    eprintln!("suite: wrote {}", path.display());
    Ok(())
}

fn load(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
    Ok(v.get("runs").and_then(Value::as_arr).ok_or(format!("{path:?}: no 'runs'"))?.to_vec())
}

fn untraced<'a>(runs: &'a [Value], workload: &'a str) -> impl Iterator<Item = &'a Value> {
    runs.iter().filter(move |r| {
        r.get("workload").and_then(Value::as_str) == Some(workload)
            && r.get("trace").and_then(Value::as_f64) == Some(0.0)
    })
}

fn metric_values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    untraced(runs, workload)
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failed_share(runs: &[Value], workload: &str) -> f64 {
    let total = |k: &str| untraced(runs, workload).filter_map(|r| r.get(k)?.as_f64()).sum::<f64>();
    let attempted = total("attempted");
    if attempted > 0.0 {
        total("failed") / attempted
    } else {
        0.0
    }
}

/// Print one row per (workload, end-to-end metric) and return whether B is
/// acceptable: no metric's median worse than A's by more than its bound,
/// and no rise in the failed share.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    Ok(compare_runs(&load(a_path)?, &load(b_path)?))
}

fn compare_runs(a: &[Value], b: &[Value]) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<21} {:>11} {:>23} {:>11} {:>23} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B vs A", "bound"
    );
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (va, vb) = (metric_values(a, w.name, m.name), metric_values(b, w.name, m.name));
            let (Some((a1, am, a3)), Some((b1, bm, b3))) = (quartiles(&va), quartiles(&vb)) else {
                println!("{:<16} {:<21} needs two runs or more on both sides", w.name, m.name);
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let change = (bm - am) / am;
            let worse = match m.better {
                Better::Higher => -change,
                Better::Lower => change,
            };
            let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
            let verdict = if worse > bound {
                ok = false;
                "regressed"
            } else if spread > bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<16} {:<21} {:>11.4} [{:>9.4}, {:>9.4}] {:>11.4} [{:>9.4}, {:>9.4}] {:>+7.2}% {:>5.0}%  {verdict}",
                w.name, m.name, am, a1, a3, bm, b1, b3, change * 100.0, bound * 100.0
            );
        }
        let (fa, fb) = (failed_share(a, w.name), failed_share(b, w.name));
        if fb > fa {
            ok = false;
            println!("{:<16} failed share rose from {fa:.6} to {fb:.6}: regressed", w.name);
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values checked against CPython: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        let v = [3.0, 1.0, 2.0];
        assert_eq!(quartiles(&v), Some((1.0, 2.0, 3.0)));
        let v = [1.0, 2.0];
        assert_eq!(quartiles(&v), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    fn runs(ips: &[f64], failed: u64) -> Vec<Value> {
        ips.iter()
            .map(|v| {
                Value::obj([
                    ("workload", Value::from("small_inproc_d4")),
                    ("trace", Value::from(0u64)),
                    ("attempted", Value::from(1000u64)),
                    ("failed", Value::from(failed)),
                    (
                        "metrics",
                        Value::obj([("images_per_s", Value::obj([("value", Value::from(*v))]))]),
                    ),
                ])
            })
            .collect()
    }

    #[test]
    fn compare_flags_a_regression_and_a_rise_in_failures() {
        let base = runs(&[100.0, 101.0, 99.0, 100.5], 0);
        assert!(compare_runs(&base, &runs(&[100.2, 99.5, 100.9, 100.0], 0)));
        assert!(!compare_runs(&base, &runs(&[80.0, 81.0, 79.0, 80.5], 0)), "20 % slower");
        assert!(!compare_runs(&base, &runs(&[100.0, 101.0, 99.0, 100.5], 3)), "failures rose");
    }
}
