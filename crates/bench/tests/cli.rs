//! CLI validation tests: run the real `repro` binary and assert that bad
//! argument values fail fast, with a clear message, before any work starts.
//!
//! Regression tests for the class of bug where `--threads 0` (or an
//! overflowing / absurdly large count) was accepted by `usize::parse` and
//! only blew up — or silently misbehaved — deep inside the engine.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro binary runs")
}

fn assert_rejects(args: &[&str], needle: &str) {
    let output = repro(args);
    assert!(
        !output.status.success(),
        "`repro {}` should fail, got: {}",
        args.join(" "),
        String::from_utf8_lossy(&output.stdout),
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(needle),
        "`repro {}` stderr should mention `{needle}`, got: {stderr}",
        args.join(" "),
    );
}

#[test]
fn dse_rejects_zero_and_oversized_counts() {
    assert_rejects(&["dse", "--threads", "0"], "--threads must be at least 1");
    assert_rejects(&["dse", "--threads", "1000000"], "--threads must be at most");
    assert_rejects(&["dse", "--top", "0"], "--top must be at least 1");
    assert_rejects(&["dse", "--top", "18446744073709551616"], "needs an integer");
    assert_rejects(&["dse", "--backend"], "--backend needs a value");
}

#[test]
fn calibrate_rejects_zero_and_oversized_counts() {
    assert_rejects(&["calibrate", "--threads", "0"], "--threads must be at least 1");
    assert_rejects(&["calibrate", "--threads", "99999999"], "--threads must be at most");
    assert_rejects(&["calibrate", "--top", "0"], "--top must be at least 1");
}

#[test]
fn serve_rejects_zero_shards_and_unknown_backends() {
    assert_rejects(&["serve", "--shards", "0"], "--shards must be at least 1");
    assert_rejects(&["serve", "--threads", "0"], "--threads must be at least 1");
    assert_rejects(&["serve", "--batch", "0"], "unknown serve option");
    assert_rejects(&["serve", "--backend", "nope"], "unknown backend `nope`");
}

#[test]
fn load_rejects_zero_clients_and_requests() {
    assert_rejects(&["load", "--clients", "0"], "--clients must be at least 1");
    // The command fixes the per-connection request count, the sweep chunk,
    // the pipeline depth and the spawned server's sizing.
    for removed in ["--requests", "--chunk", "--depth", "--shards"] {
        assert_rejects(&["load", removed, "4"], &format!("unknown load option `{removed}`"));
    }
    assert_rejects(&["load", "--backend", "nope"], "unknown backend `nope`");
    // --spawn launches its own server; silently ignoring a user-supplied
    // endpoint would report numbers for the wrong server.
    assert_rejects(&["load", "--spawn", "--addr", "10.0.0.1:7077"], "cannot be combined");
    assert_rejects(&["load", "--spawn", "--socket", "/tmp/x.sock"], "cannot be combined");
}

#[test]
fn unknown_experiments_and_flags_fail_with_usage() {
    assert_rejects(&["fig99"], "unknown experiment");
    assert_rejects(&["dse", "--bogus"], "unknown dse option");
    assert_rejects(&["serve", "--bogus"], "unknown serve option");
    assert_rejects(&["load", "--bogus"], "unknown load option");
}

/// `repro`'s own usage prints every subcommand's usage, the same string the
/// subcommand prints after a parse error.
#[test]
fn bare_repro_prints_every_subcommand_usage() {
    let output = repro(&[]);
    assert!(!output.status.success(), "`repro` with no arguments should fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    for usage in [
        mp_bench::dse_cmd::USAGE,
        mp_bench::calibrate_cmd::USAGE,
        mp_bench::serve_cmd::USAGE,
        mp_bench::load_cmd::USAGE,
        mp_bench::job_cmd::USAGE,
    ] {
        assert!(stderr.contains(usage), "`repro` usage lacks `{usage}`, got: {stderr}");
    }
    assert_rejects(&["load", "--bogus"], mp_bench::load_cmd::USAGE);
    assert_rejects(&["job", "frobnicate"], mp_bench::job_cmd::USAGE);
}

/// A reader that stops early (`repro --json … | head -c 100`) closes the
/// pipe while `repro` still has experiments to print: the run ends quietly
/// instead of panicking with "failed printing to stdout". The experiment list
/// is asked for eight times over, about 160 kB of output, so `repro` cannot
/// have written it all into the pipe's 64 kB buffer before the close.
#[test]
fn repro_ends_quietly_when_its_reader_closes_the_pipe() {
    use std::io::Read;
    use std::process::Stdio;

    let experiments =
        "table1 fig2a fig2b fig2d table2 table3 fig3 fig4 fig5 fig6 fig7 table4 summary";
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--json")
        .args(std::iter::repeat(experiments.split(' ')).take(8).flatten())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro binary runs");
    let mut head = [0u8; 100];
    let mut stdout = child.stdout.take().expect("stdout is piped");
    stdout.read_exact(&mut head).expect("repro prints at least 100 bytes");
    drop(stdout);
    let output = child.wait_with_output().expect("repro exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "repro panicked: {stderr}");
    assert!(output.status.success(), "repro exited with {}: {stderr}", output.status);
    assert!(head.starts_with(b"{\"experiment\":\"table1\""), "{}", String::from_utf8_lossy(&head));
}

/// `repro dse` writes its two exports and nothing else: a re-run into the
/// same directory recomputes, reports the same in-process check and rewrites
/// a byte-identical `sweep.csv`, and a cache file left there by an older binary is
/// neither read nor rewritten. The analytic backend does not memoise, so the
/// in-process second pass recomputes too: bit-identical, with no cache hits.
#[test]
fn dse_rerun_is_bit_identical_and_ignores_cache_files() {
    let dir = std::env::temp_dir().join(format!("mp-cli-dse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.to_str().expect("temp paths are UTF-8");
    let run = || {
        let output = repro(&["dse", "--quick", "--json", "--out", out]);
        let report = String::from_utf8_lossy(&output.stdout).into_owned();
        assert!(output.status.success(), "repro dse failed: {report}");
        assert!(report.contains("\"identical\":true"), "report: {report}");
        assert!(report.contains("\"rescan_hits\":0,"), "report: {report}");
        assert!(!report.contains("warm_entries"), "report: {report}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("cache"), "a cache file was looked at: {stderr}");
        std::fs::read(dir.join("sweep.csv")).expect("sweep.csv is written")
    };
    let files = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("the output directory exists")
            .map(|entry| entry.expect("readable entry").file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };

    let first = run();
    assert_eq!(files(), ["sweep.csv", "sweep.json"]);

    let stale = dir.join("cache-analytic.json");
    std::fs::write(&stale, "not a cache").unwrap();
    let second = run();
    assert!(first == second, "the re-run's sweep.csv differs from the first run's");
    assert_eq!(std::fs::read(&stale).unwrap(), b"not a cache", "the stale file is untouched");
    assert_eq!(files(), ["cache-analytic.json", "sweep.csv", "sweep.json"]);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `repro dse --trace` arms its engine's span recorder and writes chrome
/// JSON that holds both kinds of span the engine records: the table builds
/// of `Engine::sweep` and the batches.
#[test]
fn dse_trace_export_holds_batch_and_table_build_spans() {
    let dir = std::env::temp_dir().join(format!("mp-cli-dse-trace-{}", std::process::id()));
    let trace = dir.join("trace.json");
    let out = dir.to_str().expect("temp paths are UTF-8");
    let output =
        repro(&["dse", "--quick", "--out", out, "--trace", trace.to_str().expect("UTF-8")]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    let json = std::fs::read_to_string(&trace).expect("the trace file is written");
    serde_json::parse(&json).expect("the trace is JSON");
    for kind in ["batch ", "table_build "] {
        assert!(json.contains(&format!("\"name\":\"{kind}")), "no `{kind}…` span in {json}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Whether the in-process second pass of `repro dse` is answered from the
/// cache is the backend's property: analytic and measured recompute it
/// (`rescan_hits` 0), comm and the simulator answer every scenario from the
/// cache. Both passes are bit-identical either way.
#[test]
fn dse_second_pass_hits_the_cache_only_for_memoising_backends() {
    let number = |report: &str, name: &str| -> f64 {
        let value = serde_json::parse(report.trim()).expect("the report is one JSON object");
        let fields = value.as_map().expect("the report is a JSON object");
        let (_, field) = fields.iter().find(|(key, _)| key == name).expect("the field is reported");
        field.as_f64().expect("the field is a number")
    };
    for (backend, memoises) in [("measured", false), ("comm", true), ("sim", true)] {
        let dir = std::env::temp_dir().join(format!("mp-cli-dse-{backend}-{}", std::process::id()));
        let out = dir.to_str().expect("temp paths are UTF-8");
        let output = repro(&["dse", "--quick", "--json", "--backend", backend, "--out", out]);
        let report = String::from_utf8_lossy(&output.stdout).into_owned();
        assert!(output.status.success(), "repro dse --backend {backend} failed: {report}");
        assert!(report.contains("\"identical\":true"), "{backend}: {report}");
        let expected = if memoises { number(&report, "scenarios") } else { 0.0 };
        assert_eq!(number(&report, "rescan_hits"), expected, "{backend}: {report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `repro dse --quick` exports the same bytes from every build and every
/// backend: FNV-1a digests of `sweep.csv`, and of `sweep.json` past its first
/// line (which holds timings), pinned from a release build. Debug builds
/// compute the design grid and spell its floats the same way, so a change to
/// the float spelling, the grid or the models shows here in either profile.
#[test]
fn dse_quick_exports_match_pinned_digests() {
    let digest = |bytes: &[u8]| {
        let mut hash = mp_model::fingerprint::Fnv64::new();
        bytes.iter().for_each(|&byte| hash.write_u8(byte));
        hash.finish()
    };
    for (backend, csv, json) in [
        ("analytic", 0xd98d_468f_7f0d_128b, 0xd733_67f9_d8a0_ae85),
        ("comm", 0xd943_9f9d_e5b8_7f53, 0xf051_3ff1_5d33_36e9),
        ("sim", 0x3ffa_647b_43f2_91f3, 0xbbe7_5038_3f49_00a9),
        ("measured", 0x651f_a6be_2fa2_43db, 0xc816_4194_f1ed_fa55),
    ] {
        let dir =
            std::env::temp_dir().join(format!("mp-cli-digest-{backend}-{}", std::process::id()));
        let out = dir.to_str().expect("temp paths are UTF-8");
        let output = repro(&["dse", "--quick", "--backend", backend, "--out", out]);
        assert!(output.status.success(), "repro dse --backend {backend} failed: {output:?}");
        let read = |name: &str| std::fs::read(dir.join(name)).expect("the export is written");
        let json_file = read("sweep.json");
        let records = json_file.splitn(2, |&byte| byte == b'\n').nth(1).expect("records follow");
        assert_eq!(digest(&read("sweep.csv")), csv, "{backend}: sweep.csv");
        assert_eq!(digest(records), json, "{backend}: sweep.json from line 2");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
