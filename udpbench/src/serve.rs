//! A closed-loop client of the `udp-serve` binary: one goal in flight, each
//! sent as a goal line plus a blank line (which flushes it through the
//! scheduler), and answered by one `goal N: <verdict>` line.

use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How to start `udp-serve` for one workload.
#[derive(Debug, Clone)]
pub struct ServeCmd {
    /// The `udp-serve` executable.
    pub bin: PathBuf,
    /// The schema file.
    pub schema: PathBuf,
    /// Flags after the schema path.
    pub flags: Vec<String>,
}

impl ServeCmd {
    fn command(&self) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.arg(&self.schema)
            .args(&self.flags)
            .stderr(Stdio::null());
        cmd
    }

    /// Start a server with piped stdin and stdout.
    pub fn spawn(&self) -> io::Result<Server> {
        let mut child = self
            .command()
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Server {
            child,
            stdin,
            stdout,
            seq: 0,
        })
    }

    /// The program's set-up time: spawn to exit with empty stdin, so the
    /// server only parses the schema and builds its session.
    pub fn setup_time(&self) -> io::Result<Duration> {
        let started = Instant::now();
        let status = self
            .command()
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()?;
        let took = started.elapsed();
        if !status.success() {
            return Err(io::Error::other(format!("udp-serve exited with {status}")));
        }
        Ok(took)
    }
}

/// A running `udp-serve` process.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    seq: usize,
}

impl Server {
    /// Send one goal and wait for its verdict (the text after `goal N: `).
    pub fn ask(&mut self, line: &str) -> io::Result<String> {
        self.seq += 1;
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("stdin already closed"))?;
        let mut request = String::with_capacity(line.len() + 2);
        request.push_str(line);
        request.push_str("\n\n");
        stdin.write_all(request.as_bytes())?;
        stdin.flush()?;
        let mut response = String::new();
        if self.stdout.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "udp-serve closed its output",
            ));
        }
        let prefix = format!("goal {}: ", self.seq);
        response
            .trim_end()
            .strip_prefix(&prefix)
            .map(str::to_string)
            .ok_or_else(|| {
                io::Error::other(format!("unexpected response `{}`", response.trim_end()))
            })
    }

    /// The server's peak resident set (`VmHWM`), in KiB. Call it from the
    /// thread that spawned the server.
    ///
    /// The server's `/proc` entry is found through this thread's `children`
    /// list, not by the pid `spawn` returned: in a PID namespace whose
    /// `/proc` was not remounted, `/proc/<that pid>` is another process.
    /// (`wait4`'s `ru_maxrss` is no substitute: it also counts the
    /// benchmark's own memory, which the child shared until `exec`.)
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let children = std::fs::read_to_string("/proc/thread-self/children")?;
        for pid in children.split_whitespace() {
            let path = format!("/proc/{pid}/status");
            let status = std::fs::read_to_string(&path)?;
            if own_pid(&status) == Some(self.child.id()) {
                return vm_hwm_kib(&status, &path);
            }
        }
        Err(io::Error::other(format!(
            "udp-serve (pid {}) is not among this thread's children `{}`",
            self.child.id(),
            children.trim()
        )))
    }

    /// Close stdin and wait for the server to exit. (Its exit code only
    /// summarises the verdicts, which the checker has already seen.)
    pub fn close(mut self) -> io::Result<ExitStatus> {
        drop(self.stdin.take());
        self.child.wait()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A server abandoned on an error path must not outlive the run.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A process's pid in its own PID namespace, from its `/proc/<pid>/status`
/// text: the last `NSpid` field, or `Pid` on kernels without `NSpid`. A
/// child in the benchmark's namespace reads the same as `Child::id`.
fn own_pid(status: &str) -> Option<u32> {
    let field = |key: &str| status.lines().find_map(|l| l.strip_prefix(key));
    field("NSpid:")
        .and_then(|v| v.split_whitespace().last())
        .or_else(|| field("Pid:").map(str::trim))
        .and_then(|p| p.parse().ok())
}

/// `VmHWM` from the text of the status file at `path`, in KiB.
fn vm_hwm_kib(status: &str, path: &str) -> io::Result<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {path}")))
}

/// This process's peak resident set (`VmHWM`), in KiB.
pub fn own_peak_rss_kib() -> io::Result<u64> {
    let path = "/proc/self/status";
    vm_hwm_kib(&std::fs::read_to_string(path)?, path)
}

/// Write `text` to `dir/name` and return the path.
pub fn write_file(dir: &Path, name: &str, text: &str) -> io::Result<PathBuf> {
    let path = dir.join(name);
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_pid_prefers_the_innermost_namespace() {
        let nested =
            "Name:\tudp-serve\nPid:\t7255\nPPid:\t7250\nNSpid:\t7255\t11\nVmHWM:\t  5904 kB\n";
        assert_eq!(own_pid(nested), Some(11));
        assert_eq!(vm_hwm_kib(nested, "x").unwrap(), 5904);
        assert_eq!(own_pid("Pid:\t42\n"), Some(42));
        assert!(vm_hwm_kib("Pid:\t42\n", "x").is_err());
    }

    #[test]
    fn a_spawned_child_is_found_and_measured() {
        let cmd = ServeCmd {
            bin: "cat".into(),
            schema: "-".into(),
            flags: Vec::new(),
        };
        let server = cmd.spawn().unwrap();
        assert!(server.peak_rss_kib().unwrap() > 0);
        server.close().unwrap();
    }
}
