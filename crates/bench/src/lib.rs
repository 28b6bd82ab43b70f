//! # sjmp-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation and per
//! ablation. `validate_results`'s `RUNS` table declares how each one
//! produces its committed result, and `validate_results --regen` reruns
//! them all. Run one with `cargo run -p sjmp-bench --bin <target>
//! [--quick]`.
//!
//! Every binary prints a plain-text table whose rows correspond to the
//! paper's plotted series **and** serializes the same rows to
//! `results/<bin>.json` via [`Report`]; `EXPERIMENTS.md` records
//! paper-vs-measured. Set `SJMP_TRACE=1` to install an event tracer
//! ([`trace_from_env`]) and dump Chrome `trace_event` + metrics JSON
//! alongside ([`export_trace`]).

pub mod trajectory;

use std::fmt::Display;
use std::path::PathBuf;

use sjmp_trace::{chrome_trace, Json, Tracer};

/// Environment variable that switches event tracing on for the bench
/// binaries (`SJMP_TRACE=1 cargo run -p sjmp-bench --bin ...`).
pub const TRACE_ENV: &str = "SJMP_TRACE";

/// Ring capacity of the tracer handed out by [`trace_from_env`].
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Prints a header line surrounded by rules.
pub fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats one table row with fixed-width columns.
pub fn row<D: Display>(cells: &[D], widths: &[usize]) {
    let mut line = String::new();
    for (i, c) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        line.push_str(&format!("{:>w$}  ", c.to_string(), w = w));
    }
    println!("{}", line.trim_end());
}

/// A benchmark report: prints the classic fixed-width text table *and*
/// captures every section, header, and row so [`Report::finish`] can
/// serialize the run to `results/<name>.json` (machine-readable twin of
/// the text output; numeric-looking cells become JSON numbers).
///
/// # Examples
///
/// ```no_run
/// let mut report = sjmp_bench::Report::new("fig0_example");
/// report.heading("Figure 0: example");
/// report.header(&["n", "cycles"], &[6, 10]);
/// report.row(&["1", "1127"]);
/// report.note("paper: 1127");
/// report.finish();
/// ```
#[derive(Debug)]
pub struct Report {
    name: String,
    sections: Vec<Section>,
    notes: Vec<String>,
}

#[derive(Debug, Default)]
struct Section {
    title: String,
    columns: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<Json>>,
}

impl Report {
    /// Starts a report for the benchmark binary `name` (the
    /// `results/<name>.json` stem).
    pub fn new(name: &str) -> Report {
        Report {
            name: name.to_string(),
            sections: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Prints a heading and opens a new section.
    pub fn heading(&mut self, title: &str) {
        heading(title);
        self.sections.push(Section {
            title: title.to_string(),
            ..Section::default()
        });
    }

    /// Prints the column-header row with these column widths, and records
    /// the column names and the widths for the section's rows.
    pub fn header<D: Display>(&mut self, cells: &[D], widths: &[usize]) {
        row(cells, widths);
        let section = self.current();
        section.columns = cells.iter().map(ToString::to_string).collect();
        section.widths = widths.to_vec();
    }

    /// Prints a data row in the header's widths and records it (cells
    /// that parse as integers or floats are stored as JSON numbers).
    pub fn row<D: Display>(&mut self, cells: &[D]) {
        let section = self.current();
        row(cells, &section.widths);
        let vals = cells.iter().map(|c| cell_json(&c.to_string())).collect();
        section.rows.push(vals);
    }

    /// Prints a free-form note line and records it.
    pub fn note(&mut self, text: &str) {
        println!("{text}");
        self.notes.push(text.to_string());
    }

    fn current(&mut self) -> &mut Section {
        if self.sections.is_empty() {
            self.sections.push(Section::default());
        }
        self.sections.last_mut().expect("pushed above")
    }

    /// Serializes the report to `results/<name>.json` and returns the
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if the results directory or file cannot be written.
    pub fn finish(self) -> PathBuf {
        let sections = self
            .sections
            .into_iter()
            .map(|s| {
                Json::Obj(vec![
                    ("title".into(), Json::str(&s.title)),
                    (
                        "columns".into(),
                        Json::Arr(s.columns.iter().map(|c| Json::str(c)).collect()),
                    ),
                    (
                        "rows".into(),
                        Json::Arr(s.rows.into_iter().map(Json::Arr).collect()),
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("bench".into(), Json::str(&self.name)),
            ("sections".into(), Json::Arr(sections)),
            (
                "notes".into(),
                Json::Arr(self.notes.iter().map(|n| Json::str(n)).collect()),
            ),
        ]);
        let path = results_dir().join(format!("{}.json", self.name));
        std::fs::write(&path, doc.pretty()).expect("write report JSON");
        println!("\nwrote {}", path.display());
        path
    }
}

/// Parses a table cell into the most specific JSON value: integer, then
/// float, else string.
fn cell_json(s: &str) -> Json {
    if let Ok(i) = s.parse::<i64>() {
        return Json::Int(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        if f.is_finite() {
            return Json::Float(f);
        }
    }
    Json::str(s)
}

/// The `results/` output directory, created if absent.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// An event tracer configured from the environment: enabled with a
/// [`TRACE_CAPACITY`]-event ring when [`TRACE_ENV`] is set to anything
/// but `0`/empty, disabled (zero modeled and near-zero real cost)
/// otherwise.
pub fn trace_from_env() -> Tracer {
    match std::env::var(TRACE_ENV) {
        Ok(v) if !v.is_empty() && v != "0" => Tracer::new(TRACE_CAPACITY),
        _ => Tracer::disabled(),
    }
}

/// Dumps `tracer`'s state for the benchmark `name`: a Chrome
/// `trace_event` file at `results/<name>.trace.json` (load it in
/// `chrome://tracing` or Perfetto) and a flat metrics dump at
/// `results/<name>.metrics.json`. No-op for a disabled tracer.
///
/// # Panics
///
/// Panics if the files cannot be written.
pub fn export_trace(name: &str, tracer: &Tracer, freq_hz: u64) {
    if !tracer.enabled() {
        return;
    }
    let dir = results_dir();
    let trace_path = dir.join(format!("{name}.trace.json"));
    let chrome = chrome_trace(&tracer.events(), freq_hz as f64, tracer.dropped());
    std::fs::write(&trace_path, chrome.pretty()).expect("write Chrome trace");
    let metrics_path = dir.join(format!("{name}.metrics.json"));
    std::fs::write(&metrics_path, tracer.snapshot().to_json().pretty())
        .expect("write metrics JSON");
    println!("wrote {}", trace_path.display());
    println!("wrote {}", metrics_path.display());
}

/// Parses a `--quick` flag (smaller sweeps for CI) from argv.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Geometric size ticks `2^lo ..= 2^hi`, stepping the exponent.
pub fn pow2_ticks(lo: u32, hi: u32, step: u32) -> Vec<u64> {
    (lo..=hi)
        .step_by(step as usize)
        .map(|e| 1u64 << e)
        .collect()
}

/// Human-readable byte size.
pub fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = n as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if v.fract() == 0.0 {
        format!("{}{}", v as u64, UNITS[u])
    } else {
        format!("{:.1}{}", v, UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks() {
        assert_eq!(pow2_ticks(4, 8, 2), vec![16, 64, 256]);
        assert_eq!(pow2_ticks(3, 3, 1), vec![8]);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(1 << 20), "1MiB");
        assert_eq!(human_bytes(3 * (1 << 30) / 2), "1.5GiB");
    }

    #[test]
    fn cells_parse_to_the_most_specific_json() {
        assert_eq!(cell_json("42"), Json::Int(42));
        assert_eq!(cell_json("-7"), Json::Int(-7));
        assert_eq!(cell_json("3.5"), Json::Float(3.5));
        assert_eq!(cell_json("1127 (807)"), Json::str("1127 (807)"));
        assert_eq!(cell_json("64MiB"), Json::str("64MiB"));
    }

    #[test]
    fn report_serializes_sections_rows_and_notes() {
        let mut r = Report::new("unit_test");
        r.heading("first");
        r.header(&["a", "b"], &[4, 4]);
        r.row(&["1", "2.5"]);
        r.row(&["x", "3"]);
        r.note("a note");
        // Inspect the JSON without touching the filesystem.
        let s = &r.sections[0];
        assert_eq!(s.title, "first");
        assert_eq!(s.columns, vec!["a", "b"]);
        assert_eq!(s.rows[0], vec![Json::Int(1), Json::Float(2.5)]);
        assert_eq!(s.rows[1], vec![Json::str("x"), Json::Int(3)]);
        assert_eq!(r.notes, vec!["a note"]);
    }
}
