//! Child processes of the benchmark: the `repro` binary built next to
//! `layerbench`, and a `repro serve` child that is always shut down.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mp_serve::prelude::*;

/// The `repro` binary: `run.sh` builds it into the same target directory as
/// `layerbench`, so it sits beside this executable.
pub fn repro_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate layerbench: {e}"))?;
    let repro = exe.with_file_name("repro");
    if repro.is_file() {
        Ok(repro)
    } else {
        Err(format!("{} not found; run benchmark/run.sh, which builds it", repro.display()))
    }
}

/// Where the benchmark writes: traces, `results.json` and the temporary
/// `--out` directories of `dse_oneshot`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A `repro serve` child on a free loopback port: two shards of one engine
/// thread, one event loop, two executors.
pub struct ServeChild {
    child: Child,
    drain: Option<std::thread::JoinHandle<()>>,
    pub endpoint: Endpoint,
}

impl ServeChild {
    pub fn spawn() -> Result<ServeChild, String> {
        let mut child = Command::new(repro_path()?)
            .args(["serve", "--addr", "127.0.0.1:0", "--shards", "2", "--threads", "1"])
            .args(["--loops", "1", "--executors", "2"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("failed to spawn repro serve: {e}"))?;
        let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let address = loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(read) if read > 0 => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("repro serve exited before becoming ready".to_string());
                }
            }
            if let Some(rest) = line.split("listening on tcp://").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        // Keep draining the child's stdout so its shutdown message can never
        // block on a full pipe; the thread ends at the child's EOF.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(read) if read > 0) {
                sink.clear();
            }
        });
        Ok(ServeChild { child, drain: Some(drain), endpoint: Endpoint::Tcp(address) })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint).map_err(|e| format!("connect {}: {e}", self.endpoint))
    }
}

impl Drop for ServeChild {
    /// Ask the server to stop, give it five seconds, then kill it; either
    /// way the child is waited for and the drain thread joined.
    fn drop(&mut self) {
        if let Ok(mut client) = Client::connect(&self.endpoint) {
            let _ = client.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while matches!(self.child.try_wait(), Ok(None)) {
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A directory under [`out_dir`] that is removed when dropped, even if the
/// op that used it failed.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        let path = out_dir().join("tmp").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
