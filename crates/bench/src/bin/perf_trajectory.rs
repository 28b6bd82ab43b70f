//! `perf_trajectory [--seconds N] [--quick]` — appends one `sjmp_perf`
//! run to `BENCH_selfperf.json` ([`sjmp_bench::trajectory`]). From the
//! repository root of a tree whose tracked files match `HEAD`, it runs
//! `BENCHMARK.json`'s `command` at seed [`SEED`] with those flags
//! (`--seconds` defaults to its `run_seconds`), plain and with
//! `--trace 1`, forwarding the output, and appends an entry whose manifest
//! names `HEAD`'s commit (from `git`). A changed tree, a failed run, or a
//! trajectory the gate rejects leaves the file as is.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use sjmp_bench::trajectory;
use sjmp_trace::Json;

/// The seed of every entry: entries at other seeds run other random
/// streams, so they would not compare along the trajectory.
const SEED: u64 = 1;

/// The manifest of the run `args` ask for, `seconds` unless they say
/// otherwise, and the `sjmp_perf` flags for exactly that run.
fn manifest(commit: &str, seconds: u64, args: &[String]) -> Result<(Json, String), String> {
    let (mut seconds, mut quick) = (seconds, false);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seconds" => {
                let value = args.next().map_or("", String::as_str);
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--quick" => quick = true,
            _ => return Err("usage: perf_trajectory [--seconds N] [--quick]".into()),
        }
    }
    let manifest = Json::Obj(vec![
        ("commit".into(), Json::str(commit)),
        ("seed".into(), Json::from_u64(SEED)),
        ("seconds".into(), Json::from_u64(seconds)),
        ("quick".into(), Json::Bool(quick)),
    ]);
    let quick = if quick { " --quick" } else { "" };
    let flags = format!("--seed {SEED} --seconds {seconds}{quick}");
    Ok((manifest, flags))
}

/// Refuses a tree whose tracked files, the trajectory's aside, differ
/// from `commit`, given `git status --porcelain` output: the entry would
/// name code that did not produce its numbers.
fn clean(commit: &str, status: &str) -> Result<(), String> {
    let changed = status.lines().filter_map(|line| line.get(3..));
    let changed: Vec<&str> = changed.filter(|path| *path != trajectory::PATH).collect();
    match changed[..] {
        [] => Ok(()),
        _ => Err(format!("the tree differs from {commit}: {changed:?}")),
    }
}

/// The entry for a plain and a `--trace 1` run: their summaries' metrics,
/// plus the plain run's printed `<workload> unit_ns <value> ns` lines. A
/// run whose summary (its last line) reports a failed op is refused.
fn entry(manifest: Json, plain: &str, traced: &str) -> Result<Json, String> {
    let mut fields = vec![("manifest".into(), manifest)];
    for (run, key, stdout) in [("plain", "metrics", plain), ("traced", "layers", traced)] {
        let last = stdout.lines().last().unwrap_or_default();
        let doc = Json::parse(last).map_err(|e| format!("the {run} run has no summary: {e}"))?;
        let (correct, failed) = (doc.get("correct"), doc.get("failed").and_then(Json::as_f64));
        if correct != Some(&Json::Bool(true)) || failed != Some(0.0) {
            let why = format!("correct {correct:?}, failed {failed:?}");
            return Err(format!("the {run} run failed its checks ({why})"));
        }
        let Some(Json::Obj(mut metrics)) = doc.get("metrics").cloned() else {
            return Err(format!("the {run} run's summary has no metrics"));
        };
        for line in stdout.lines().filter(|_| run == "plain") {
            if let [w, "unit_ns", value, unit] = line.split(' ').collect::<Vec<_>>()[..] {
                let value = value.parse().map_err(|e| format!("{line}: {e}"))?;
                let unit_ns = [("value", Json::Float(value)), ("unit", Json::str(unit))];
                let unit_ns = unit_ns.map(|(k, v)| (k.to_string(), v));
                metrics.push((format!("{w}.unit_ns"), Json::Obj(unit_ns.into())));
            }
        }
        fields.push((key.into(), Json::Obj(metrics)));
    }
    Ok(Json::Obj(fields))
}

/// Appends the entry for these runs to the trajectory at `path`, new if
/// absent. Writes nothing unless the runs, the existing file and the
/// result all pass: a broken trajectory is history to repair, not replace.
fn record(path: &Path, manifest: Json, plain: &str, traced: &str) -> Result<(), String> {
    let entry = entry(manifest, plain, traced)?;
    let name = path.display();
    let mut runs = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        text => {
            let text = text.map_err(|e| format!("{name}: {e}"))?;
            let doc = Json::parse(&text).map_err(|e| format!("{name}: parse error: {e}"))?;
            trajectory::check(&doc).map_err(|e| format!("{name}: {e}"))?;
            let runs = doc.get("runs").and_then(Json::as_arr);
            runs.unwrap_or_default().to_vec()
        }
    };
    runs.push(entry);
    let bench = ("bench".into(), Json::str(trajectory::BENCH));
    let doc = Json::Obj(vec![bench, ("runs".into(), Json::Arr(runs))]);
    trajectory::check(&doc).map_err(|e| format!("{name}: the new entry: {e}"))?;
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{name}: {e}"))
}

/// Runs `argv` and returns its stdout; its stderr passes through.
fn run(argv: &[&str]) -> Result<String, String> {
    let line = argv.join(" ");
    let mut cmd = Command::new(argv[0]);
    let out = cmd.args(&argv[1..]).stderr(Stdio::inherit()).output();
    let out = out.map_err(|e| format!("{line}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let error = || format!("{line}: {}", out.status);
    out.status.success().then_some(stdout).ok_or_else(error)
}

fn append() -> Result<String, String> {
    let commit = run(&["git", "rev-parse", "HEAD"])?.trim().to_string();
    clean(&commit, &run(&["git", "status", "--porcelain", "-uno"])?)?;
    let bench = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let bench = Json::parse(&bench).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let cmd = bench.get("command").and_then(Json::as_arr);
    let argv: Vec<&str> = cmd.into_iter().flatten().filter_map(Json::as_str).collect();
    let seconds = bench.get("run_seconds").and_then(Json::as_f64);
    let (Some(seconds), false) = (seconds, argv.is_empty()) else {
        return Err("BENCHMARK.json names no command or run_seconds".into());
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (manifest, flags) = self::manifest(&commit, seconds as u64, &args)?;
    let perf = |flags: &str| {
        let argv = [&argv[..], &flags.split(' ').collect::<Vec<_>>()].concat();
        run(&argv).inspect(|stdout| print!("{stdout}"))
    };
    let plain = perf(&flags)?;
    let traced = perf(&format!("{flags} --trace 1"))?;
    record(Path::new(trajectory::PATH), manifest, &plain, &traced)?;
    Ok(commit)
}

fn main() -> ExitCode {
    let appended = append();
    match &appended {
        Ok(commit) => println!("appended a run of {commit} to {}", trajectory::PATH),
        Err(e) => eprintln!("perf_trajectory: {e}"),
    }
    ExitCode::from(u8::from(appended.is_err()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjmp_bench::trajectory::{METRICS, WORKLOADS};

    use std::path::PathBuf;

    const COMMIT: &str = "53552d955a6e7321125167fe0b9a2263261db70e";

    fn parse(args: &[&str]) -> Result<(Json, String), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        super::manifest(COMMIT, 30, &args)
    }

    fn manifest() -> Json {
        parse(&["--quick", "--seconds", "1"]).unwrap().0
    }

    /// `sjmp_perf` stdout over every workload: printed lines, then the
    /// JSON summary of the end-to-end (plain) or per-layer (traced)
    /// metrics, `correct` and `failed`.
    fn canned(traced: bool, correct: bool, failed: u64) -> String {
        let names: Vec<&str> = match traced {
            true => vec!["os.access.calls", "mem.tlb_hit_ratio"],
            false => METRICS[..5].to_vec(),
        };
        let mut out = String::new();
        let mut metrics = Vec::new();
        for w in WORKLOADS {
            out += &format!("{w} ref_ns_per_op 250.5 ns\n{w} unit_ns 5123.5 ns\n");
            out += &format!("{w} digest 0123456789abcdef pinned\n");
            for name in &names {
                metrics.push(format!("\"{w}.{name}\":{{\"value\":2.5,\"unit\":\"ns\"}}"));
            }
        }
        let metrics = metrics.join(",");
        out + &format!(
            "{{\"correct\":{correct},\"attempted\":100,\"failed\":{failed},\"metrics\":{{{metrics}}}}}\n"
        )
    }

    fn scratch(name: &str) -> PathBuf {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("perf_trajectory_{pid}_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn read(path: &Path) -> String {
        std::fs::read_to_string(path).unwrap()
    }

    #[test]
    fn the_manifest_is_the_flags_it_forwards() {
        let (json, flags) = parse(&["--quick", "--seconds", "1"]).unwrap();
        assert_eq!(flags, "--seed 1 --seconds 1 --quick");
        let field = |key: &str| json.get(key).cloned();
        assert_eq!(field("commit"), Some(Json::str(COMMIT)));
        assert_eq!(field("seed"), Some(Json::from_u64(1)));
        assert_eq!(field("seconds"), Some(Json::from_u64(1)));
        assert_eq!(field("quick"), Some(Json::Bool(true)));
        assert_eq!(parse(&[]).unwrap().1, "--seed 1 --seconds 30");
        for args in [&["--trace", "1"][..], &["--seed", "2"]] {
            assert!(parse(args).unwrap_err().starts_with("usage:"));
        }
        assert!(parse(&["--seconds"]).is_err());
        assert!(parse(&["--seconds", "x"]).is_err());
    }

    #[test]
    fn canned_runs_append_one_entry_each() {
        let dir = scratch("append");
        let path = dir.join(trajectory::PATH);
        let (plain, traced) = (canned(false, true, 0), canned(true, true, 0));
        record(&path, manifest(), &plain, &traced).unwrap();
        record(&path, manifest(), &plain, &traced).unwrap();
        let doc = Json::parse(&read(&path)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(trajectory::check(&doc), Ok(()));
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("manifest"), Some(&manifest()));
        let value = |key: &str, name: &str| runs[1].get(key)?.get(name)?.get("value")?.as_f64();
        assert_eq!(
            value("metrics", "kv_mixed.ref_ns_per_op"),
            Some(2.5),
            "the summary's"
        );
        assert_eq!(value("metrics", "kv_mixed.unit_ns"), Some(5123.5));
        assert_eq!(value("layers", "kv_mixed.mem.tlb_hit_ratio"), Some(2.5));
    }

    #[test]
    fn a_failed_run_or_a_malformed_trajectory_leaves_the_file_unchanged() {
        let dir = scratch("refuse");
        let path = dir.join(trajectory::PATH);
        let (plain, traced) = (canned(false, true, 0), canned(true, true, 0));
        record(&path, manifest(), &plain, &traced).unwrap();
        let good = read(&path);
        let refused = [
            (
                canned(false, false, 0),
                traced.clone(),
                "the plain run failed its checks",
            ),
            (
                plain.clone(),
                canned(true, true, 3),
                "the traced run failed its checks",
            ),
            (
                String::new(),
                traced.clone(),
                "the plain run has no summary",
            ),
        ];
        for (plain, traced, rule) in refused {
            let err = record(&path, manifest(), &plain, &traced).unwrap_err();
            assert!(err.contains(rule), "{err}");
            assert_eq!(read(&path), good);
        }

        // A run as the retired ns-per-simulated-cycle harness appended it.
        let legacy = r#"{"unix_secs": 1, "quick": false,
            "workloads": [{"workload": "gups", "ns_per_sim_cycle": 9.1}]}"#;
        let mut with_legacy = Json::parse(&good).unwrap();
        if let Json::Obj(fields) = &mut with_legacy {
            if let Some((_, Json::Arr(runs))) = fields.iter_mut().find(|(k, _)| k == "runs") {
                runs.push(Json::parse(legacy).unwrap());
            }
        }
        let broken = [
            (good[..good.len() / 2].to_string(), "parse error"),
            (with_legacy.pretty(), "run 1: missing manifest"),
        ];
        for (existing, rule) in broken {
            std::fs::write(&path, &existing).unwrap();
            let err = record(&path, manifest(), &plain, &traced).unwrap_err();
            let name = path.display();
            assert!(err.starts_with(&format!("{name}: {rule}")), "{err}");
            assert_eq!(read(&path), existing);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn only_a_tree_that_matches_its_commit_is_recorded() {
        assert_eq!(clean(COMMIT, ""), Ok(()));
        assert_eq!(clean(COMMIT, " M BENCH_selfperf.json\n"), Ok(()));
        let status = " M BENCH_selfperf.json\nM  crates/gups/src/lib.rs\n D README.md\n";
        let err = clean(COMMIT, status).unwrap_err();
        let changed = r#"["crates/gups/src/lib.rs", "README.md"]"#;
        assert_eq!(err, format!("the tree differs from {COMMIT}: {changed}"));
    }
}
