//! Shared reporting helpers for the experiment harnesses.
//!
//! Each `benches/figXX_*.rs` / `benches/tableX_*.rs` binary regenerates one
//! artifact of the paper's evaluation section: it prints the same rows or
//! series the paper reports and writes a machine-readable copy under
//! `results/` (workspace root) for EXPERIMENTS.md provenance.

use adcnn_core::obs::json;
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// Print a fixed-width table with a title.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n=== {title} ===");
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> =
        rows.iter().map(|r| r.iter().map(|c| c.to_string()).collect()).collect();
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in &rows {
        assert_eq!(r.len(), cols, "ragged table row");
        for (w, c) in widths.iter_mut().zip(r) {
            *w = (*w).max(c.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (c, w) in cells.iter().zip(&widths) {
            s.push_str(&format!("{c:>w$}  ", w = w));
        }
        println!("{}", s.trim_end());
    };
    line(&headers);
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * cols));
    for r in &rows {
        line(r);
    }
}

/// Workspace-root `results/` directory (created on demand).
fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Write a document rendered with [`adcnn_core::obs::json`] to
/// `results/<name>.json`.
///
/// The files are machine-read downstream, so a document that fails
/// [`json::is_well_formed`] panics here (and fails `ci.sh`) instead of
/// reaching the disk.
pub fn emit_json(name: &str, doc: &str) {
    assert!(json::is_well_formed(doc), "malformed {name}.json:\n{doc}");
    let path = results_dir().join(format!("{name}.json"));
    fs::write(&path, doc).expect("write experiment json");
    println!("[written {path:?}]");
}

/// Format seconds as milliseconds with 1 decimal.
pub fn ms(s: f64) -> String {
    format!("{:.1}", s * 1e3)
}

/// Format a ratio as `x.yz×`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printing_does_not_panic() {
        print_table("t", &["a", "bb"], &[vec!["1".to_string(), "2".into()]]);
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn a_ragged_row_is_refused() {
        print_table("t", &["a", "bb"], &[vec!["1".to_string()]]);
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn the_emitter_refuses_a_malformed_document() {
        emit_json("emit_selftest_malformed", "{\"a\":[");
    }

    #[test]
    fn the_emitter_round_trips_cells_that_need_escaping() {
        let cell = "say \"hi\"\nbye";
        let doc = json::array([json::Obj::new().str("cell", cell).u64("n", 1).finish()]);
        emit_json("emit_selftest_roundtrip", &doc);
        let path = results_dir().join("emit_selftest_roundtrip.json");
        let written = fs::read_to_string(&path).expect("just written");
        fs::remove_file(&path).expect("remove the selftest file");
        assert_eq!(written, doc);
        assert_eq!(written, r#"[{"cell":"say \"hi\"\nbye","n":1}]"#);
    }

    #[test]
    fn results_dir_exists() {
        assert!(results_dir().is_dir());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(0.1234), "123.4");
        assert_eq!(times(2.5), "2.50x");
    }
}
