//! CI gate for the machine-readable outputs in `results/` and the
//! host-speed trajectory, and the one list of runs that produce them.
//!
//! Usage: `validate_results --regen | --all | <bench-name>...`. Exits
//! nonzero with a message naming the file and the first rule it breaks.
//!
//! [`RUNS`] declares every committed result once: the bench binary and
//! whether it runs traced. `--regen` rebuilds the bins, reruns each entry
//! from the repository root (stdout to `results/<bin>.txt`; the bin
//! writes `results/<bin>.json` and, traced, its side files), then checks
//! as `--all` does. CI regenerates this way and requires `git status
//! --porcelain -- results/` to print nothing.
//!
//! Every bench report has one shape: `bench`, `notes`, and non-empty
//! `sections`, each with a `title`, a non-empty `columns` array of
//! strings, and at least one row of exactly one cell per column. What a
//! report promises beyond that is data: [`expectations`] maps each bench
//! to its [`Rule`]s (sections found by title substring, with required
//! columns, minimum rows, first-column values, a column whose cells come
//! from a fixed set; required notes), and one checker, [`check_report`],
//! applies the shape and the rules. The `ablate_safety_checks`
//! refinement is the one row rule the table references by function.
//!
//! A named run also checks the Chrome trace (`results/<name>.trace.json`)
//! and metrics (`.metrics.json`) side files; the name `analyze_report`
//! selects the `sjmp_lint` findings schema. `--all` checks every report
//! in `results/`, side files where they exist (tracing is opt-in per
//! run), and the `BENCH_selfperf.json` trajectory
//! ([`sjmp_bench::trajectory::check`]: every entry a `sjmp_perf` run
//! under a manifest naming its commit); then it pairs reports, [`RUNS`]
//! and the binaries in `crates/bench/src/bin/` ([`check_stale`]).

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use sjmp_bench::{trajectory, TRACE_ENV};
use sjmp_trace::Json;

use Rule::*;

/// One thing a bench report must carry beyond the common shape. A
/// section is found by a substring of its title.
enum Rule {
    /// A section titled like this.
    Section(&'static str),
    /// A section with (at least) these columns.
    Columns(&'static str, &'static [&'static str]),
    /// A section with at least this many rows.
    MinRows(&'static str, usize),
    /// A section with a row starting with each of these cells.
    FirstCells(&'static str, &'static [&'static str]),
    /// A section whose cells in this column are all one of these.
    CellsIn(&'static str, &'static str, &'static [&'static str]),
    /// A section whose rows pass a rule that is not about shape.
    Rows(&'static str, fn(&Table) -> Result<(), String>),
    /// A note, exactly.
    Note(&'static str),
    /// A note starting with this.
    NotePrefix(&'static str),
}

const SWEEP_COLUMNS: &[&str] = &[
    "load",
    "offered/s",
    "goodput/s",
    "shed%",
    "p999lo",
    "p999us",
];

/// Every committed result and the run that produces it: the bench
/// binary, run from the repository root with no arguments (every result
/// is the full-size run), and whether it runs with `SJMP_TRACE=1`, which
/// also writes the committed trace and metrics side files.
const RUNS: [(&str, bool); 17] = [
    ("fig1_mmap_scaling", false),
    // Table 2 is rebuilt from the trace's spans.
    ("tab2_switch_breakdown", true),
    ("fig6_tlb_tagging", false),
    ("fig7_rpc_latency", false),
    ("fig8_gups", false),
    ("fig9_gups_rates", false),
    ("fig10_redis", false),
    ("fig11_samtools", false),
    ("fig12_samtools_mmap", false),
    ("ablate_safety_checks", false),
    ("ablate_page_size", false),
    ("ablate_lock_design", false),
    ("ablate_memory_tiers", false),
    ("pressure_oversub", false),
    ("crash_sweep", false),
    ("warm_restart", false),
    ("overload", false),
];

/// The expectation table: what each bench's committed report promises.
fn expectations(bench: &str) -> &'static [Rule] {
    match bench {
        // Crashes at every block write and flush barrier, and seeded
        // faults, recover the old or the new VAS image, never a hybrid.
        "crash_sweep" => &[
            CellsIn("Crash at every block write", "recovered", &["old", "new"]),
            CellsIn("Crash at each flush barrier", "recovered", &["old", "new"]),
            CellsIn("Seeded torn writes", "recovered", &["old", "new"]),
            NotePrefix("violations: 0"),
        ],
        "warm_restart" => &[
            Columns("warm restart:", &["vas_save", "recovery", "vas_load"]),
            Columns("cold rebuild vs warm restart", &["speedup"]),
        ],
        // The bin writes a FAIL verdict (and exits nonzero) when goodput
        // at 2x saturation drops below 90% of goodput at saturation.
        "overload" => &[
            Columns("Saturation sweep: M1", SWEEP_COLUMNS),
            Columns("Saturation sweep: M2", SWEEP_COLUMNS),
            Columns("Saturation sweep: M3", SWEEP_COLUMNS),
            MinRows("Saturation sweep: M1", 3),
            MinRows("Saturation sweep: M2", 3),
            MinRows("Saturation sweep: M3", 3),
            Section("Bursty arrivals"),
            Section("Degraded mode"),
            // Slowest within-deadline requests, latency decomposed.
            Columns(
                "Tail exemplars",
                &[
                    "latency_us",
                    "backoff_us",
                    "queue_us",
                    "switch_us",
                    "service_us",
                ],
            ),
            Note("overload verdict: PASS"),
        ],
        // The access-side touch sweep beside the construction-cost table.
        "ablate_page_size" => &[
            Section("mmap construction cost"),
            Columns(
                "Touch sweep",
                &[
                    "backend",
                    "page size",
                    "walks",
                    "tlb misses",
                    "tlb reach",
                    "cycles/touch",
                ],
            ),
            FirstCells("Touch sweep", &["4level", "no-vm"]),
        ],
        "fig6_tlb_tagging" => &[Columns(
            "Figure 6",
            &["switch(tag off)", "switch(tag on)", "no switch", "no-vm"],
        )],
        "fig8_gups" => &[Columns(
            "no-VM base+bound backend",
            &["windows", "SpaceJMP", "no-vm", "tlb misses", "no-vm misses"],
        )],
        "ablate_safety_checks" => &[Rows("Safety-check ablation", check_safety_refinement)],
        _ => &[],
    }
}

/// The `sjmp_lint` findings report: its own schema, no producing bench.
const ANALYZE_REPORT: &str = "analyze_report";

const BIN_DIR: &str = "crates/bench/src/bin";

/// Bench binaries that produce no report of their own: this gate,
/// `sjmp_lint` (`analyze_report.json`), `sjmp_top` (`.folded`) and
/// `perf_trajectory` (`BENCH_selfperf.json`).
const TOOL_BINS: [&str; 4] = [
    "validate_results",
    "sjmp_lint",
    "sjmp_top",
    "perf_trajectory",
];

/// One report section whose shape has been checked.
struct Table<'a> {
    title: &'a str,
    columns: Vec<&'a str>,
    rows: Vec<&'a [Json]>,
}

impl Table<'_> {
    fn column(&self, name: &str) -> Result<usize, String> {
        self.columns
            .iter()
            .position(|c| *c == name)
            .ok_or_else(|| format!("section \"{}\": missing column \"{name}\"", self.title))
    }
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("missing required key \"{key}\""))
}

fn arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("\"{key}\" is not an array"))
}

fn keys(doc: &Json, keys: &[&str]) -> Result<(), String> {
    keys.iter().try_for_each(|key| field(doc, key).map(drop))
}

/// The common section shape: a title, a non-empty header of strings,
/// and at least one row with one cell per column.
fn table(section: &Json) -> Result<Table<'_>, String> {
    let title = field(section, "title")?.as_str().unwrap_or("?");
    let columns = arr(section, "columns")?
        .iter()
        .map(Json::as_str)
        .collect::<Option<Vec<_>>>()
        .filter(|c| !c.is_empty())
        .ok_or_else(|| format!("section \"{title}\": columns must be non-empty strings"))?;
    let width = columns.len();
    let rows = arr(section, "rows")?
        .iter()
        .map(|row| row.as_arr().filter(|cells| cells.len() == width))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("section \"{title}\": every row must have {width} cells"))?;
    if rows.is_empty() {
        return Err(format!("section \"{title}\" has no rows"));
    }
    Ok(Table {
        title,
        columns,
        rows,
    })
}

/// The one report checker: the common shape, then `rules`.
fn check_report(rules: &[Rule], doc: &Json) -> Result<(), String> {
    keys(doc, &["bench", "notes"])?;
    let tables = arr(doc, "sections")?
        .iter()
        .map(table)
        .collect::<Result<Vec<_>, _>>()?;
    if tables.is_empty() {
        return Err("no sections recorded".into());
    }
    let titled = |needle: &str| {
        tables
            .iter()
            .find(|t| t.title.contains(needle))
            .ok_or_else(|| format!("no section titled like \"{needle}\""))
    };
    for rule in rules {
        match *rule {
            Section(title) => drop(titled(title)?),
            Columns(title, columns) => {
                let t = titled(title)?;
                columns.iter().try_for_each(|c| t.column(c).map(drop))?;
            }
            MinRows(title, min) => {
                let t = titled(title)?;
                if t.rows.len() < min {
                    let rows = t.rows.len();
                    return Err(format!(
                        "section \"{}\" has {rows} rows, want >= {min}",
                        t.title
                    ));
                }
            }
            FirstCells(title, cells) => {
                let t = titled(title)?;
                for cell in cells {
                    if !t.rows.iter().any(|row| row[0].as_str() == Some(cell)) {
                        return Err(format!("section \"{}\": no row for \"{cell}\"", t.title));
                    }
                }
            }
            CellsIn(title, column, allowed) => {
                let t = titled(title)?;
                let at = t.column(column)?;
                for row in &t.rows {
                    let cell = row[at].as_str();
                    if !cell.is_some_and(|c| allowed.contains(&c)) {
                        return Err(format!(
                            "section \"{}\": {column} {cell:?}, want one of {allowed:?}",
                            t.title
                        ));
                    }
                }
            }
            Rows(title, check) => check(titled(title)?)?,
            Note(want) | NotePrefix(want) => {
                let exact = matches!(rule, Note(_));
                let mut notes = arr(doc, "notes")?.iter().filter_map(Json::as_str);
                if !notes.any(|n| n == want || !exact && n.starts_with(want)) {
                    return Err(format!("required note \"{want}\" missing"));
                }
            }
        }
    }
    Ok(())
}

/// `ablate_safety_checks`: each policy refines the one before it —
/// naive >= pruned >= interproc checks on every row — and on at least
/// one program the interprocedural verifier beats the dataflow pass.
fn check_safety_refinement(t: &Table) -> Result<(), String> {
    let naive = t.column("naive checks")?;
    let pruned = t.column("pruned checks")?;
    let interproc = t.column("interproc checks")?;
    let mut strictly_less = false;
    for row in &t.rows {
        let num = |at: usize| {
            row[at]
                .as_f64()
                .ok_or_else(|| format!("row cell {at} is not a number"))
        };
        let (n, p, i) = (num(naive)?, num(pruned)?, num(interproc)?);
        if p > n || i > p {
            return Err(format!(
                "check counts must refine: naive {n} >= pruned {p} >= interproc {i}"
            ));
        }
        strictly_less |= i < p;
    }
    if !strictly_less {
        return Err("no program where the interprocedural verifier beats the dataflow pass".into());
    }
    Ok(())
}

/// The `sjmp_lint` findings report: `tool`, `findings_total`, and
/// `traces` entries carrying `name`/`events`/`dropped`/`findings`. Its
/// optional `ir` section (`--ir` / `--gen`) must show healthy example
/// programs clean, expected-dangling ones with findings, and a
/// generator batch with zero soundness violations.
fn check_analyze_report(doc: &Json) -> Result<(), String> {
    let tool = field(doc, "tool")?.as_str();
    if tool != Some("sjmp-lint") {
        return Err(format!("unexpected tool {tool:?}"));
    }
    field(doc, "findings_total")?;
    for trace in arr(doc, "traces")? {
        keys(trace, &["name", "events", "dropped", "skipped_incomplete"])?;
        for finding in arr(trace, "findings")? {
            keys(finding, &["rule", "message", "segments", "pids", "cores"])?;
        }
    }
    let Some(ir) = doc.get("ir") else {
        return Ok(());
    };
    if ir.get("programs").is_some() {
        for program in arr(ir, "programs")? {
            keys(
                program,
                &["name", "mem_ops", "proven_safe", "proven_dangling"],
            )?;
            keys(program, &["unknown", "expected_dangling"])?;
            let name = program.get("name").and_then(Json::as_str).unwrap_or("?");
            let dangling = !arr(program, "findings")?.is_empty();
            let expected = matches!(program.get("expected_dangling"), Some(Json::Bool(true)));
            if expected && !dangling {
                return Err(format!(
                    "ir program \"{name}\" should report dangling findings"
                ));
            }
            if dangling && !expected {
                return Err(format!("healthy ir program \"{name}\" has findings"));
            }
        }
    }
    if let Some(gen) = ir.get("gen") {
        keys(gen, &["seeds", "programs", "mem_sites", "proven_safe"])?;
        let violations = arr(gen, "violations")?.len();
        if violations > 0 {
            return Err(format!(
                "generator batch reports {violations} soundness violations"
            ));
        }
    }
    Ok(())
}

fn check_trace(doc: &Json) -> Result<(), String> {
    let events = arr(doc, "traceEvents")?;
    if events.is_empty() {
        return Err("trace is empty".into());
    }
    events
        .iter()
        .try_for_each(|ev| keys(ev, &["name", "ph", "ts", "pid", "tid"]))
}

/// Loads `root/path` and applies `check`, naming `path` in any error.
fn check_file(
    root: &Path,
    path: &str,
    check: impl Fn(&Json) -> Result<(), String>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(root.join(path)).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: parse error: {e}"))?;
    check(&doc).map_err(|e| format!("{path}: {e}"))
}

/// Validates the outputs named `name`; returns what was checked.
fn validate(root: &Path, name: &str, sweep: bool) -> Result<String, String> {
    let report = format!("results/{name}.json");
    if name == ANALYZE_REPORT {
        check_file(root, &report, check_analyze_report)?;
        return Ok(report);
    }
    check_file(root, &report, |doc| check_report(expectations(name), doc))?;
    let trace = format!("results/{name}.trace.json");
    if !root.join(&trace).exists() && sweep {
        return Ok(report);
    }
    check_file(root, &trace, check_trace)?;
    let metrics = format!("results/{name}.metrics.json");
    check_file(root, &metrics, |doc| keys(doc, &["counters", "histograms"]))?;
    Ok(format!("results/{name}{{.json,.trace.json,.metrics.json}}"))
}

/// The names of the `*<suffix>` files in `root/dir`, sorted.
fn stems(root: &Path, dir: &str, suffix: &str) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(root.join(dir)).map_err(|e| format!("{dir}/: {e}"))?;
    let mut names = Vec::new();
    for entry in entries {
        let file = entry.map_err(|e| format!("{dir}/: {e}"))?.file_name();
        names.extend(
            file.to_string_lossy()
                .strip_suffix(suffix)
                .map(String::from),
        );
    }
    names.sort();
    Ok(names)
}

/// Every report in `results/`: each `<name>.json` but the trace and
/// metrics side files.
fn all_report_names(root: &Path) -> Result<Vec<String>, String> {
    let mut names = stems(root, "results", ".json")?;
    names.retain(|n| !n.ends_with(".trace") && !n.ends_with(".metrics"));
    if names.iter().all(|n| n == ANALYZE_REPORT) {
        return Err("results/: no bench reports found".into());
    }
    Ok(names)
}

/// Stale-results detection over the reports in `results/`, the [`RUNS`]
/// entries and the binaries in [`BIN_DIR`]: a report no entry produces
/// can never be regenerated, an entry whose bin is gone cannot run, a
/// bin that is neither an entry nor a tool produces nothing committed,
/// and an entry with no report was never regenerated.
fn check_stale(reports: &[String], runs: &[&str], bins: &[String]) -> Result<(), String> {
    for name in reports.iter().filter(|n| *n != ANALYZE_REPORT) {
        if !runs.contains(&name.as_str()) {
            return Err(format!(
                "results/{name}.json is stale: no RUNS entry produces it"
            ));
        }
    }
    for run in runs {
        if !bins.iter().any(|b| b == run) {
            return Err(format!("RUNS entry {run} has no bin {BIN_DIR}/{run}.rs"));
        }
        if !reports.iter().any(|r| r == run) {
            return Err(format!(
                "RUNS entry {run} has no committed report: run validate_results --regen"
            ));
        }
    }
    for bin in bins {
        if !runs.contains(&bin.as_str()) && !TOOL_BINS.contains(&bin.as_str()) {
            return Err(format!(
                "{BIN_DIR}/{bin}.rs is neither a RUNS entry nor a tool"
            ));
        }
    }
    Ok(())
}

/// Rebuilds the bench binaries, so no stale one can answer, then reruns
/// every [`RUNS`] entry from `root`, writing its stdout to
/// `results/<bin>.txt`. Stops at the first run that fails.
fn regen(root: &Path) -> Result<(), String> {
    let release = (!cfg!(debug_assertions)).then_some("--release");
    let build = ["build", "-p", "sjmp-bench", "--bins"]
        .into_iter()
        .chain(release);
    let status = Command::new("cargo").args(build).current_dir(root).status();
    if !status.as_ref().is_ok_and(|s| s.success()) {
        return Err(format!("cargo build -p sjmp-bench --bins: {status:?}"));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("current_exe has no directory")?;
    for (bin, traced) in RUNS {
        let mut cmd = Command::new(dir.join(bin));
        cmd.current_dir(root).env_remove(TRACE_ENV);
        if traced {
            cmd.env(TRACE_ENV, "1");
        }
        let out = cmd.stderr(Stdio::inherit()).output();
        let out = out.map_err(|e| format!("{bin}: {e}"))?;
        if !out.status.success() {
            return Err(format!("{bin} failed: {}", out.status));
        }
        let text = format!("results/{bin}.txt");
        std::fs::write(root.join(&text), &out.stdout).map_err(|e| format!("{text}: {e}"))?;
        println!("ran {bin}: {text}");
    }
    Ok(())
}

/// Runs the gate over `args` (`--regen`, `--all` or bench names) from
/// `root`.
fn run(root: &Path, args: &[String]) -> Result<(), String> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if has("--regen") {
        regen(root)?;
    }
    let sweep = has("--regen") || has("--all");
    let names = if sweep {
        all_report_names(root)?
    } else {
        args.to_vec()
    };
    for name in &names {
        println!("ok: {}", validate(root, name, sweep)?);
    }
    if sweep {
        check_file(root, trajectory::PATH, trajectory::check)?;
        println!("ok: {}", trajectory::PATH);
    }
    // Pairing needs the bin dir, so it runs only in a sweep from a
    // checkout (a bare results/ copy has nothing to pair against).
    if sweep && root.join(BIN_DIR).is_dir() {
        check_stale(
            &names,
            &RUNS.map(|(bin, _)| bin),
            &stems(root, BIN_DIR, ".rs")?,
        )?;
        println!("ok: results/, RUNS and {BIN_DIR}/ pair 1:1 (no stale reports)");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: validate_results --regen | --all | <bench-name>...");
        return ExitCode::FAILURE;
    }
    match run(Path::new("."), &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAIL {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    fn committed(path: &str) -> Json {
        let text = std::fs::read_to_string(root().join(path)).unwrap();
        Json::parse(&text).unwrap()
    }

    /// The gate's verdict on `doc` as `bench`'s report.
    fn verdict(bench: &str, doc: &Json) -> Result<(), String> {
        check_report(expectations(bench), doc).map_err(|e| format!("results/{bench}.json: {e}"))
    }

    fn field_mut<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
        match doc {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
            _ => panic!("not an object"),
        }
    }

    fn items(doc: &mut Json) -> &mut Vec<Json> {
        match doc {
            Json::Arr(items) => items,
            _ => panic!("not an array"),
        }
    }

    /// The first section whose title contains `needle`.
    fn section<'a>(doc: &'a mut Json, needle: &str) -> &'a mut Json {
        items(field_mut(doc, "sections"))
            .iter_mut()
            .find(|s| {
                s.get("title")
                    .and_then(Json::as_str)
                    .unwrap()
                    .contains(needle)
            })
            .unwrap()
    }

    /// The string element equal to `value` in the array `doc`.
    fn element<'a>(doc: &'a mut Json, value: &str) -> &'a mut Json {
        items(doc)
            .iter_mut()
            .find(|c| c.as_str() == Some(value))
            .unwrap()
    }

    fn rename_title(doc: &mut Json, needle: &str) {
        *field_mut(section(doc, needle), "title") = Json::str("renamed");
    }

    fn rename_column(doc: &mut Json, needle: &str, column: &str) {
        *element(field_mut(section(doc, needle), "columns"), column) = Json::str("renamed");
    }

    fn rows<'a>(doc: &'a mut Json, needle: &str) -> &'a mut Vec<Json> {
        items(field_mut(section(doc, needle), "rows"))
    }

    /// Renames the first cell of every row that starts with `first`.
    fn rename_rows(doc: &mut Json, needle: &str, first: &str) {
        for row in rows(doc, needle) {
            let cells = items(row);
            if cells[0].as_str() == Some(first) {
                cells[0] = Json::str("renamed");
            }
        }
    }

    fn set_cell(doc: &mut Json, needle: &str, row: usize, column: usize, value: Json) {
        items(&mut rows(doc, needle)[row])[column] = value;
    }

    fn replace_note(doc: &mut Json, prefix: &str) {
        let notes = items(field_mut(doc, "notes"));
        let note = notes
            .iter_mut()
            .find(|n| n.as_str().unwrap().starts_with(prefix))
            .unwrap();
        *note = Json::str("replaced");
    }

    type Edit = fn(&mut Json);

    /// One in-memory mutation per guarantee the table states: the
    /// report, the mutation, and the rule the failure must name.
    type Mutation = (&'static str, Edit, &'static str);

    const OLD_OR_NEW: &str = "want one of [\"old\", \"new\"]";

    const MUTATIONS: &[Mutation] = &[
        (
            "crash_sweep",
            |d| set_cell(d, "Crash at every block write", 0, 1, Json::str("hybrid")),
            OLD_OR_NEW,
        ),
        (
            "crash_sweep",
            |d| set_cell(d, "Crash at each flush barrier", 1, 2, Json::str("hybrid")),
            OLD_OR_NEW,
        ),
        (
            "crash_sweep",
            |d| set_cell(d, "Seeded torn writes", 2, 1, Json::str("hybrid")),
            OLD_OR_NEW,
        ),
        (
            "crash_sweep",
            |d| replace_note(d, "violations: 0"),
            "required note \"violations: 0\" missing",
        ),
        (
            "warm_restart",
            |d| rename_column(d, "warm restart:", "vas_load"),
            "missing column \"vas_load\"",
        ),
        (
            "warm_restart",
            |d| rename_column(d, "cold rebuild", "speedup"),
            "missing column \"speedup\"",
        ),
        (
            "overload",
            |d| rename_column(d, "Saturation sweep: M2", "p999lo"),
            "missing column \"p999lo\"",
        ),
        (
            "overload",
            |d| rows(d, "Saturation sweep: M3").truncate(2),
            "has 2 rows, want >= 3",
        ),
        (
            "overload",
            |d| rename_title(d, "Bursty arrivals"),
            "no section titled like \"Bursty arrivals\"",
        ),
        (
            "overload",
            |d| rename_title(d, "Degraded mode"),
            "no section titled like \"Degraded mode\"",
        ),
        (
            "overload",
            |d| rename_column(d, "Tail exemplars", "queue_us"),
            "missing column \"queue_us\"",
        ),
        (
            "overload",
            |d| replace_note(d, "overload verdict: PASS"),
            "required note \"overload verdict: PASS\" missing",
        ),
        (
            "ablate_page_size",
            |d| rename_rows(d, "Touch sweep", "4level"),
            "no row for \"4level\"",
        ),
        (
            "ablate_page_size",
            |d| rename_rows(d, "Touch sweep", "no-vm"),
            "no row for \"no-vm\"",
        ),
        (
            "fig6_tlb_tagging",
            |d| rename_column(d, "Figure 6", "no-vm"),
            "missing column \"no-vm\"",
        ),
        (
            "fig8_gups",
            |d| rename_column(d, "no-VM base+bound", "no-vm misses"),
            "missing column \"no-vm misses\"",
        ),
        (
            "ablate_safety_checks",
            |d| set_cell(d, "Safety-check", 3, 4, Json::Int(301)),
            "check counts must refine",
        ),
        (
            "ablate_safety_checks",
            |d| set_cell(d, "Safety-check", 2, 4, Json::Int(250)),
            "no program where the interprocedural verifier beats the dataflow pass",
        ),
    ];

    #[test]
    fn every_committed_report_passes() {
        assert_eq!(run(&root(), &["--all".to_string()]), Ok(()));
    }

    #[test]
    fn each_guarantee_fails_its_mutation() {
        for (bench, mutate, rule) in MUTATIONS {
            let mut doc = committed(&format!("results/{bench}.json"));
            mutate(&mut doc);
            let err = verdict(bench, &doc).expect_err(rule);
            let report = format!("results/{bench}.json: ");
            assert!(err.starts_with(&report) && err.contains(rule), "{err}");
        }
    }

    /// The stale gate's inputs: report names, [`RUNS`] bins, bin stems.
    type Pairing = (Vec<String>, Vec<&'static str>, Vec<String>);

    type PairingEdit = fn(&mut Pairing);

    /// One mutation of the committed pairing per stale-gate rule, and the
    /// rule the failure must name.
    const STALE_MUTATIONS: &[(PairingEdit, &str)] = &[
        (
            |(reports, _, _)| reports.push("fig13_retired".into()),
            "results/fig13_retired.json is stale: no RUNS entry produces it",
        ),
        (
            |(_, runs, _)| runs.push("fig13_unbuilt"),
            "RUNS entry fig13_unbuilt has no bin",
        ),
        (
            |(_, _, bins)| bins.push("fig13_undeclared".into()),
            "fig13_undeclared.rs is neither a RUNS entry nor a tool",
        ),
        (
            |(reports, _, _)| reports.retain(|r| r != "fig8_gups"),
            "RUNS entry fig8_gups has no committed report",
        ),
    ];

    #[test]
    fn each_stale_rule_fails_its_mutation() {
        let root = root();
        let committed: Pairing = (
            all_report_names(&root).unwrap(),
            RUNS.map(|(bin, _)| bin).to_vec(),
            stems(&root, BIN_DIR, ".rs").unwrap(),
        );
        let verdict = |(reports, runs, bins): &Pairing| check_stale(reports, runs, bins);
        assert_eq!(verdict(&committed), Ok(()));
        for (mutate, rule) in STALE_MUTATIONS {
            let mut pairing = committed.clone();
            mutate(&mut pairing);
            let err = verdict(&pairing).expect_err(rule);
            assert!(err.contains(rule), "{err}");
        }
    }

    #[test]
    fn ragged_rows_and_headerless_sections_fail() {
        let mut doc = committed("results/fig1_mmap_scaling.json");
        items(&mut rows(&mut doc, "Figure 1")[0]).push(Json::Int(0));
        let err = verdict("fig1_mmap_scaling", &doc).unwrap_err();
        assert!(err.contains("every row must have 5 cells"), "{err}");

        let mut doc = committed("results/fig7_rpc_latency.json");
        items(field_mut(section(&mut doc, "Figure 7"), "columns")).clear();
        let err = verdict("fig7_rpc_latency", &doc).unwrap_err();
        assert!(err.contains("columns must be non-empty strings"), "{err}");
    }

    fn remove(doc: &mut Json, key: &str) {
        match doc {
            Json::Obj(fields) => fields.retain(|(k, _)| k != key),
            _ => panic!("not an object"),
        }
    }

    fn first_run(doc: &mut Json) -> &mut Json {
        &mut items(field_mut(doc, "runs"))[0]
    }

    fn manifest(doc: &mut Json) -> &mut Json {
        field_mut(first_run(doc), "manifest")
    }

    /// Drops the first run's end-to-end metrics named `<prefix>...`.
    fn drop_metrics(doc: &mut Json, prefix: &str) {
        match field_mut(first_run(doc), "metrics") {
            Json::Obj(metrics) => metrics.retain(|(name, _)| !name.starts_with(prefix)),
            _ => panic!("not an object"),
        }
    }

    /// A run as the retired ns-per-simulated-cycle harness appended it.
    const LEGACY_RUN: &str = r#"{"unix_secs": 1786198917, "quick": false, "workloads": [
        {"workload": "gups", "sim_cycles": 5135085, "host_ns": 46670244,
         "ns_per_sim_cycle": 9.08850466934822}]}"#;

    /// One in-memory mutation per trajectory rule, and the rule the
    /// failure must name.
    const TRAJECTORY_MUTATIONS: &[(Edit, &str)] = &[
        (
            |d| remove(first_run(d), "manifest"),
            "run 0: missing manifest",
        ),
        (
            |d| remove(manifest(d), "commit"),
            "run 0: manifest names no commit",
        ),
        (
            |d| *field_mut(manifest(d), "commit") = Json::str("53552d9"),
            "manifest commit \"53552d9\" is not 40 hex digits",
        ),
        (
            |d| drop_metrics(d, "kv_mixed."),
            "missing workload \"kv_mixed\"",
        ),
        (
            |d| drop_metrics(d, "gups_walk.ref_ns_per_op"),
            "missing metric \"gups_walk.ref_ns_per_op\"",
        ),
        (
            |d| drop_metrics(d, "genome_pipeline.unit_ns"),
            "missing metric \"genome_pipeline.unit_ns\"",
        ),
        (
            |d| items(field_mut(d, "runs")).clear(),
            "trajectory has no runs",
        ),
        (
            |d| items(field_mut(d, "runs")).insert(1, Json::parse(LEGACY_RUN).unwrap()),
            "run 1: missing manifest",
        ),
    ];

    #[test]
    fn each_trajectory_rule_fails_its_mutation() {
        let dir = std::env::temp_dir().join(format!("validate_trajectory_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = trajectory::PATH;
        let verdict = |doc: &Json| {
            std::fs::write(dir.join(path), doc.pretty()).unwrap();
            check_file(&dir, path, trajectory::check)
        };
        assert_eq!(verdict(&committed(path)), Ok(()));
        for (mutate, rule) in TRAJECTORY_MUTATIONS {
            let mut doc = committed(path);
            mutate(&mut doc);
            let err = verdict(&doc).expect_err(rule);
            assert!(
                err.starts_with(&format!("{path}: ")) && err.contains(rule),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A findings report as `sjmp_lint --ir --gen` writes it.
    const ANALYZE_DOC: &str = r#"{
        "tool": "sjmp-lint",
        "traces": [{"name": "fig8_gups", "events": 9, "dropped": 0,
                    "skipped_incomplete": false, "findings": []}],
        "ir": {
            "programs": [
                {"name": "quickstart", "mem_ops": 2, "proven_safe": 2, "proven_dangling": 0,
                 "unknown": 0, "expected_dangling": false, "findings": []},
                {"name": "dangling-escape", "mem_ops": 4, "proven_safe": 2, "proven_dangling": 2,
                 "unknown": 0, "expected_dangling": true,
                 "findings": [{"rule": "cross-vas-dangling", "message": "dangling load",
                               "segments": [], "pids": [], "cores": []}]}
            ],
            "gen": {"seeds": 8, "programs": 8, "mem_sites": 40, "proven_safe": 30,
                    "violations": []}
        },
        "findings_total": 0
    }"#;

    fn ir_programs(doc: &mut Json) -> &mut Vec<Json> {
        items(field_mut(field_mut(doc, "ir"), "programs"))
    }

    #[test]
    fn analyze_report_ir_expectations_and_generator_violations() {
        let doc = Json::parse(ANALYZE_DOC).unwrap();
        assert_eq!(check_analyze_report(&doc), Ok(()));
        let cases: [(Edit, &str); 3] = [
            (
                |d| {
                    let programs = ir_programs(d);
                    let dangling = programs[1].get("findings").unwrap().clone();
                    *field_mut(&mut programs[0], "findings") = dangling;
                },
                "healthy ir program \"quickstart\" has findings",
            ),
            (
                |d| items(field_mut(&mut ir_programs(d)[1], "findings")).clear(),
                "ir program \"dangling-escape\" should report dangling findings",
            ),
            (
                |d| {
                    let gen = field_mut(field_mut(d, "ir"), "gen");
                    items(field_mut(gen, "violations")).push(Json::str("seed 3"));
                },
                "generator batch reports 1 soundness violations",
            ),
        ];
        for (mutate, rule) in cases {
            let mut doc = Json::parse(ANALYZE_DOC).unwrap();
            mutate(&mut doc);
            assert_eq!(check_analyze_report(&doc), Err(rule.to_string()));
        }
    }

    #[test]
    fn a_named_analyze_report_run_uses_the_findings_schema() {
        let dir = std::env::temp_dir().join(format!("validate_results_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("results")).unwrap();
        std::fs::write(dir.join("results/analyze_report.json"), ANALYZE_DOC).unwrap();
        let verdict = run(&dir, &[ANALYZE_REPORT.to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(verdict, Ok(()));
    }
}
