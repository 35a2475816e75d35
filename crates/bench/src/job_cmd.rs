//! The `repro job` subcommand: drive durable sweep jobs on a running
//! `repro serve`.
//!
//! Four actions mirror the protocol's job verbs:
//!
//! * `submit` — register the load-generator space ([`load_space`]; or,
//!   with `--dse-space`, the full `repro dse` exploration space) as a
//!   durable background sweep, printing the job id and initial snapshot.
//!   `--chunk` sizes the runner windows, `--checkpoint-every` the
//!   checkpoint cadence in completed windows.
//! * `status` / `cancel` / `resume` — inspect, gracefully stop or
//!   re-queue a job by `--id`.
//!
//! `--wait SECS` (on `submit` and `resume`) polls until the job settles;
//! `--verify` then fetches the swept records with a normal sweep (warm on
//! a backend that memoises, recomputed on analytic or measured) and checks
//! them **bit-identical** against a direct local
//! `Engine::sweep` of the same space — the CI crash-recovery drill's
//! parity gate. The local reference is built from this invocation's flags,
//! so `--verify` first checks that the server's backend and the job's
//! space fingerprint match them, and names the submit flags to repeat when
//! they do not. The verification fetch goes through the shared
//! [`RetryPolicy`], so a server still draining job windows answers when
//! it can rather than failing the check.
//!
//! [`load_space`]: crate::load_cmd::load_space

use std::process::ExitCode;
use std::time::Duration;

use mp_dse::prelude::*;
use mp_serve::prelude::*;

use crate::cli;

/// The `job` flags that consume a value token (see
/// [`crate::dse_cmd::VALUE_FLAGS`] for why this lives next to `parse`).
pub const VALUE_FLAGS: &[&str] =
    &["--addr", "--socket", "--backend", "--chunk", "--checkpoint-every", "--id", "--wait"];

/// The subcommand's usage, printed after a parse error and in `repro`'s
/// own usage.
pub const USAGE: &str = "repro job submit [--addr HOST:PORT | --socket PATH] \
     [--backend analytic|comm|sim|measured] [--quick] [--dse-space] [--chunk N] \
     [--checkpoint-every K] [--wait SECS] [--verify]\n       \
     repro job status|cancel|resume --id ID [--addr HOST:PORT | --socket PATH] [--wait SECS] \
     [--verify [--backend B] [--quick] [--dse-space]]";

/// What one `job` invocation asks for.
struct Options {
    action: Action,
    endpoint: Endpoint,
    backend: String,
    quick: bool,
    /// Sweep the `repro dse` exploration space instead of the
    /// load-generator space (the EXPERIMENTS.md warm-restart drill).
    dse_space: bool,
    chunk: usize,
    checkpoint_every: usize,
    id: Option<String>,
    /// Poll until settled for this long after submit/resume.
    wait: Option<Duration>,
    /// After a waited job completes, check the served records against a
    /// local reference sweep.
    verify: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Action {
    Submit,
    Status,
    Cancel,
    Resume,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut iter = args.iter();
    let action = match iter.next().map(String::as_str) {
        Some("submit") => Action::Submit,
        Some("status") => Action::Status,
        Some("cancel") => Action::Cancel,
        Some("resume") => Action::Resume,
        Some(other) => return Err(format!("unknown job action `{other}`")),
        None => return Err("job needs an action: submit, status, cancel or resume".to_string()),
    };
    let mut options = Options {
        action,
        endpoint: Endpoint::Tcp("127.0.0.1:7077".to_string()),
        backend: "analytic".to_string(),
        quick: false,
        dse_space: false,
        chunk: 0,
        checkpoint_every: 0,
        id: None,
        wait: None,
        verify: false,
    };
    while let Some(arg) = iter.next() {
        let arg = arg.as_str();
        if VALUE_FLAGS.contains(&arg) {
            let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?.clone();
            match arg {
                "--addr" => options.endpoint = Endpoint::Tcp(value),
                "--socket" => options.endpoint = Endpoint::Unix(value.into()),
                "--backend" => options.backend = value,
                "--chunk" => options.chunk = cli::parse_count(arg, &value, 1, cli::MAX_COUNT)?,
                "--checkpoint-every" => {
                    options.checkpoint_every = cli::parse_count(arg, &value, 1, cli::MAX_COUNT)?;
                }
                "--id" => options.id = Some(value),
                "--wait" => {
                    let secs = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("{arg} needs positive seconds, got `{value}`"))?;
                    options.wait = Some(Duration::from_secs_f64(secs));
                }
                other => unreachable!("{other} is listed in VALUE_FLAGS but unhandled"),
            }
        } else {
            match arg {
                "--quick" => options.quick = true,
                "--dse-space" => options.dse_space = true,
                "--verify" => options.verify = true,
                other => return Err(format!("unknown job option `{other}`")),
            }
        }
    }
    match options.action {
        Action::Submit => {}
        _ if options.id.is_none() => return Err("status, cancel and resume need --id".to_string()),
        _ => {}
    }
    if options.verify && options.wait.is_none() {
        return Err("--verify needs --wait (records are checked after completion)".to_string());
    }
    Ok(options)
}

fn print_snapshot(snapshot: &JobSnapshot) {
    let reason = if snapshot.reason.is_empty() {
        String::new()
    } else {
        format!(" reason={:?}", snapshot.reason)
    };
    println!(
        "job {} state={} windows={}/{} scenarios={}/{} retries={} checkpoints={} \
         window={} checkpoint-every={} fingerprint={}{reason}",
        snapshot.id,
        snapshot.state,
        snapshot.windows_completed,
        snapshot.windows_total,
        snapshot.scenarios_completed,
        snapshot.end - snapshot.start,
        snapshot.retries,
        snapshot.checkpoints,
        snapshot.window,
        snapshot.checkpoint_every,
        snapshot.fingerprint,
    );
}

/// Check that a local reference sweep is comparable with the server's job:
/// `server` is the server's backend `name()` and the job's space
/// fingerprint, `local` the same pair for this invocation's flags. On a
/// mismatch the error names both sides and the submit flags that choose
/// them.
fn check_reference(job: &str, server: (&str, &str), local: (&str, &str)) -> Result<(), String> {
    if server == local {
        return Ok(());
    }
    Err(format!(
        "cannot verify job {job}: the server swept backend `{}` over space {}, the local \
         reference would sweep backend `{}` over space {}; repeat the flags the job was \
         submitted with (--backend, --quick, --dse-space)",
        server.0, server.1, local.0, local.1
    ))
}

/// Fetch the job's records with a normal sweep through the shared
/// retry policy and compare them bit-for-bit against a direct local
/// engine sweep — the crash-recovery drill's parity gate.
fn verify_records(
    client: &mut Client,
    space: &ScenarioSpace,
    backend: &dyn EvalBackend,
) -> Result<bool, String> {
    let request = Request::Sweep {
        space: SpaceSpec::Explicit(space.clone()),
        start: 0,
        end: space.len(),
        chunk: 0,
    };
    let policy = RetryPolicy::backoff_ms(1, 250);
    let outcome = client
        .call_with_retry(&request, &policy, space.len() as u64)
        .map_err(|e| format!("verification sweep: {e}"))?;
    if outcome.exhausted {
        return Err("verification sweep: server still busy after the retry budget".to_string());
    }
    let (records, _stats) = mp_serve::client::assemble_sweep(outcome.responses, &(0..space.len()))
        .map_err(|e| format!("verification sweep: {e}"))?;
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let reference = Engine::new(threads).sweep(space, backend, &SweepConfig::default());
    Ok(crate::load_cmd::records_identical(&records, &reference.records))
}

/// Entry point of the `job` subcommand.
pub fn run(args: &[String]) -> ExitCode {
    let options = match parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("usage: {USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match drive(&options) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

fn drive(options: &Options) -> Result<ExitCode, String> {
    let mut client = Client::connect(&options.endpoint)
        .map_err(|e| format!("connect {}: {e}", options.endpoint))?;
    let backend = cli::backend_by_name(&options.backend)?;
    let space = if options.dse_space {
        crate::dse_cmd::experiment_space(options.quick)
    } else {
        crate::load_cmd::load_space(options.quick, &*backend)
    };

    let snapshot = match options.action {
        Action::Submit => client
            .job_submit(&space, None, options.chunk, options.checkpoint_every)
            .map_err(|e| format!("submit: {e}"))?,
        Action::Status => {
            let id = options.id.as_deref().expect("checked in parse");
            client.job_status(id).map_err(|e| format!("status: {e}"))?
        }
        Action::Cancel => {
            let id = options.id.as_deref().expect("checked in parse");
            client.job_cancel(id).map_err(|e| format!("cancel: {e}"))?
        }
        Action::Resume => {
            let id = options.id.as_deref().expect("checked in parse");
            client.job_resume(id).map_err(|e| format!("resume: {e}"))?
        }
    };
    print_snapshot(&snapshot);

    let Some(timeout) = options.wait else { return Ok(ExitCode::SUCCESS) };
    let settled = client.job_wait(&snapshot.id, timeout).map_err(|e| format!("wait: {e}"))?;
    print_snapshot(&settled);
    if settled.state != "completed" {
        return Err(format!("job {} settled as `{}`, not completed", settled.id, settled.state));
    }
    if options.verify {
        let server_backend = client.stats().map_err(|e| format!("stats: {e}"))?.backend;
        let fingerprint = format!("{:016x}", mp_dse::engine::space_fingerprint(&space));
        check_reference(
            &settled.id,
            (&server_backend, &settled.fingerprint),
            (backend.name(), &fingerprint),
        )?;
        if verify_records(&mut client, &space, &*backend)? {
            println!("job {}: records bit-identical to the local reference sweep", settled.id);
        } else {
            return Err(format!(
                "job {}: records differ from the local reference sweep",
                settled.id
            ));
        }
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_covers_actions_flags_and_requirements() {
        let submit = parse(&s(&[
            "submit",
            "--quick",
            "--chunk",
            "4096",
            "--checkpoint-every",
            "4",
            "--wait",
            "30",
            "--verify",
        ]))
        .unwrap();
        assert!(matches!(submit.action, Action::Submit));
        assert!(submit.quick && submit.verify);
        assert_eq!(submit.chunk, 4096);
        assert_eq!(submit.checkpoint_every, 4);
        assert_eq!(submit.wait, Some(Duration::from_secs(30)));

        let status = parse(&s(&["status", "--id", "j00001"])).unwrap();
        assert!(matches!(status.action, Action::Status));
        assert_eq!(status.id.as_deref(), Some("j00001"));

        assert!(parse(&s(&["status"])).is_err(), "status needs --id");
        assert!(parse(&s(&["cancel"])).is_err(), "cancel needs --id");
        assert!(parse(&s(&["resume"])).is_err(), "resume needs --id");
        assert!(parse(&s(&["submit", "--verify"])).is_err(), "--verify needs --wait");
        assert!(parse(&s(&["submit", "--wait", "0"])).is_err());
        assert!(parse(&s(&["submit", "--chunk", "0"])).is_err());
        assert!(parse(&s(&["submit", "--dse-space"])).unwrap().dse_space);
        assert!(parse(&s(&["frobnicate"])).is_err());
        assert!(parse(&s(&[])).is_err());
    }

    #[test]
    fn check_reference_accepts_a_match_and_names_both_sides_of_a_mismatch() {
        let (fingerprint, other) = ("00000000deadbeef", "0123456789abcdef");
        assert_eq!(check_reference("j1", ("cmpsim", fingerprint), ("cmpsim", fingerprint)), Ok(()));
        for local in [("analytic", fingerprint), ("cmpsim", other)] {
            let message = check_reference("j1", ("cmpsim", fingerprint), local).unwrap_err();
            for needle in ["j1", "`cmpsim`", fingerprint, local.0, local.1] {
                assert!(message.contains(needle), "{needle} missing from: {message}");
            }
            for flag in ["--backend", "--quick", "--dse-space"] {
                assert!(message.contains(flag), "{flag} missing from: {message}");
            }
        }
    }
}
