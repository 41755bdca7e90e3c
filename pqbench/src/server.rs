//! The `pequod-server` child process: spawn, find its port, read its
//! peak memory, and never leave it behind.

use crate::layers::TIMELINE_JOIN;
use crate::workload::{Spec, SNAPSHOT_EVERY};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to print its `listening on` line. Covers
/// recovery of the durable workload's whole base data.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server. Dropping it kills the process and waits for it, so
/// a panic anywhere in the benchmark leaves no orphan.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `binary` for `spec` on an ephemeral loopback port. Only
    /// flags that define the workload are passed; which serving edge
    /// answers is the server's own default.
    pub fn spawn(
        binary: &Path,
        spec: &Spec,
        data_dir: Option<&Path>,
        log: &Path,
    ) -> io::Result<Server> {
        let mut cmd = Command::new(binary);
        cmd.args(["--listen", "127.0.0.1:0", "--join", TIMELINE_JOIN]);
        cmd.args(["--subtable", "t|:2", "--subtable", "p|:2"]);
        if let Some(mb) = spec.mem_limit_mb {
            cmd.args(["--mem-limit-mb", &mb.to_string()]);
        }
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
            cmd.args([
                "--fsync",
                "never",
                "--snapshot-every",
                &SNAPSHOT_EVERY.to_string(),
            ]);
        }
        // stderr goes to a file, not a pipe: nothing has to keep reading
        // it for the server to make progress, and it is there to look
        // at when a run fails.
        let stderr = std::fs::File::create(log)?;
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        server.addr = server.wait_listening(log)?;
        Ok(server)
    }

    fn wait_listening(&mut self, log: &Path) -> io::Result<SocketAddr> {
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let text = std::fs::read_to_string(log)?;
            // The server writes the line in pieces: only a line that
            // has its newline is whole.
            let addr = text
                .split_inclusive('\n')
                .filter(|line| line.ends_with('\n'))
                .find_map(|line| {
                    line.split_once("listening on ")
                        .map(|(_, addr)| addr.trim())
                });
            if let Some(addr) = addr {
                return addr
                    .parse()
                    .map_err(|e| io::Error::other(format!("bad listen address {addr:?}: {e}")));
            }
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "server exited ({status}) before listening: {text}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(format!(
                    "server did not listen in {START_TIMEOUT:?}: {text}"
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set (`VmHWM`) of the server so far, in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // SIGKILL, then reap. Errors mean the process is already gone.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `parent/run-<pid>`, empty.
    pub fn create(parent: &Path) -> io::Result<WorkDir> {
        let path = parent.join(format!("run-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
