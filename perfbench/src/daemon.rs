//! The daemon under test, run as a child process.
//!
//! The benchmark re-executes its own binary with `--daemon`: the child
//! decodes the inputs file, binds `127.0.0.1:0`, prints the port, builds
//! the `TerContext` and serves with `ServeOptions::default()` until it
//! is killed. Running it in its own process is what makes `kill -9`
//! recovery, peak RSS and the daemon's own CPU time measurable from
//! outside. The child exits when its stdin closes, so a benchmark that
//! dies never leaves a daemon behind.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use ter_ids::TerContext;
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;
use ter_serve::{Client, ServeOptions, Server};

use crate::workload::{decode_context_inputs, Workload};

/// Entry point of the `--daemon` role.
pub fn daemon_main(inputs: &Path, dir: &Path, workload: &Workload) -> Result<(), String> {
    let buf = std::fs::read(inputs).map_err(|e| format!("read {}: {e}", inputs.display()))?;
    let (repo, keywords) = decode_context_inputs(&buf).map_err(|e| format!("inputs: {e}"))?;
    let server = Server::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let port = server.addr().map_err(|e| format!("addr: {e}"))?.port();
    let mut out = std::io::stdout();
    writeln!(out, "PORT {port}")
        .and_then(|_| out.flush())
        .map_err(|e| format!("stdout: {e}"))?;
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    let params = workload.params();
    let ctx = TerContext::build(
        repo,
        keywords,
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        params.fanout,
    );
    // Hand the context build's freed heap pages back before serving.
    // Whether glibc can release them by itself depends on which block
    // ends up at the heap's top, which the seed's data decides: without
    // this, one seed in four keeps ~2.5 MiB more resident for the whole
    // run and peak RSS splits into two modes a quarter apart.
    trim_heap();
    server
        .run(&ctx, params, dir, &ServeOptions::default())
        .map(|_| ())
        .map_err(|e| format!("serve: {e}"))
}

fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers, only releases
    // pages that hold no live allocation, and locks each arena it trims.
    unsafe {
        malloc_trim(0);
    }
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    // Held open: closing stdin tells the child to exit; the stdout pipe
    // stays open so a late write cannot raise SIGPIPE in the child.
    _stdin: ChildStdin,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub spawned: Instant,
}

impl Daemon {
    /// Starts a daemon serving `dir` and waits for its port line.
    pub fn spawn(workload: &str, inputs: &Path, dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let spawned = Instant::now();
        let mut child = Command::new(exe)
            .arg("--daemon")
            .arg("--workload")
            .arg(workload)
            .arg("--inputs")
            .arg(inputs)
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let port = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("PORT ")
                .and_then(|p| p.parse::<u16>().ok()),
            Err(_) => None,
        };
        let mut daemon = Daemon {
            child,
            _stdin: stdin,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned,
        };
        match port {
            Some(p) => {
                daemon.addr.set_port(p);
                Ok(daemon)
            }
            None => Err(format!("daemon did not report a port (got {line:?})")),
        }
    }

    /// Time from spawn until the daemon answers its first request.
    pub fn until_served(&self) -> Result<Duration, String> {
        let mut client = Client::connect_retry(self.addr, Duration::from_secs(60))
            .map_err(|e| format!("connect: {e}"))?;
        client.stats().map_err(|e| format!("first stats: {e}"))?;
        Ok(self.spawned.elapsed())
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))
    }

    /// User + system CPU time of the daemon process so far, milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in clock ticks (100/s).
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(u), Some(s)) => Ok((u + s) as f64 * 10.0),
            _ => Err("unparsable /proc stat".into()),
        }
    }

    /// Peak resident set size (VmHWM), MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let status = self.proc_file("status")?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// `kill -9`, then reap.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}
