//! The `serve` process under test: spawn, readiness, `/metrics` scrapes
//! and `/proc` readings.

use crate::client::Conn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `serve` child with a job directory of its own.
pub struct Server {
    child: Child,
    /// Held open for the server's lifetime: a closed pipe would make the
    /// server's next stdout line fail.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    job_dir: PathBuf,
    /// Spawn to first 200 on `/healthz`.
    pub setup: Duration,
}

impl Server {
    /// Spawns `binary` with its default flags, an ephemeral port and a
    /// fresh `--job-dir`, and waits for the first 200 on `/healthz`.
    pub fn start(binary: &Path, job_dir: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(&job_dir);
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--job-dir"])
            .arg(&job_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        // The server prints its bound address on the first line of stdout
        // and nothing after its route banner, so the pipe never fills.
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(_) => line
                .trim()
                .strip_prefix("listening on http://")
                .and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            job_dir,
            setup: Duration::ZERO,
        };
        if addr.is_none() {
            return Err(format!("server did not announce its address: {line:?}"));
        }
        loop {
            if let Ok(200) = server.get("/healthz").map(|r| r.status) {
                break;
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("server never answered /healthz with 200".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.setup = started.elapsed();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One `GET` on a connection of its own.
    pub fn get(&self, path: &str) -> std::io::Result<crate::client::Response> {
        let mut conn = Conn::open(self.addr)?;
        conn.send(&crate::workload::get_wire(path))?;
        conn.recv()
    }

    /// The `/metrics` exposition, parsed into `(series, value)` pairs.
    pub fn metrics(&self) -> Result<Vec<(String, f64)>, String> {
        let response = self.get("/metrics").map_err(|e| format!("/metrics: {e}"))?;
        let text = String::from_utf8_lossy(&response.body);
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_owned(), value.parse().ok()?))
            })
            .collect())
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".into())
    }

    /// User plus system CPU time the server has used, in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("server stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(utime), Some(stime)) => Ok((utime + stime) * 1000.0 / CLOCK_TICKS_PER_S),
            _ => Err("unreadable server stat".into()),
        }
    }
}

impl Drop for Server {
    /// Stops the server and removes its job directory.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.job_dir);
    }
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// reported 100 on every mainstream architecture for decades.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Sum of every series of a metric family whose name matches `family`
/// exactly and whose labels contain `label` (empty matches any).
pub fn metric_sum(metrics: &[(String, f64)], family: &str, label: &str) -> f64 {
    metrics
        .iter()
        .filter(|(series, _)| {
            let name = series.split('{').next().unwrap_or_default();
            name == family && series.contains(label)
        })
        .map(|(_, v)| v)
        .fold(0.0, |acc, v| acc + v)
}
