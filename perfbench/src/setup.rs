//! Fresh-process set-up measurements and the `stc serve` child.
//!
//! Set-up happens once per process, so one run holds a single in-process
//! sample of it; instead `setup_s` is the median over several fresh `stc`
//! processes, each timed from spawn until its set-up is done.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Times `stc <args>` from spawn to exit, `repeats` times, in seconds.
pub fn time_stc(stc: &Path, args: &[String], repeats: usize) -> Result<Vec<f64>, String> {
    (0..repeats)
        .map(|_| {
            let start = Instant::now();
            let status = Command::new(stc)
                .args(args)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .map_err(|e| format!("cannot run {}: {e}", stc.display()))?;
            let elapsed = start.elapsed().as_secs_f64();
            if status.success() {
                Ok(elapsed)
            } else {
                Err(format!("stc {} failed with {status}", args.join(" ")))
            }
        })
        .collect()
}

/// A running `stc serve --listen` child.  Dropping it kills the child, so
/// no error path leaves a server behind.
pub struct ServeChild {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl ServeChild {
    /// Spawns `stc serve --listen 127.0.0.1:0 <args>` and waits for its
    /// first pong.  Returns the child and the seconds from spawn to pong.
    pub fn start(stc: &Path, args: &[String]) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(stc)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", stc.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut banner = String::new();
        let addr = loop {
            banner.clear();
            if stderr.read_line(&mut banner).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("stc serve exited before listening".into());
            }
            if let Some(rest) = banner.split("listening on ").nth(1) {
                let addr = rest.split(',').next().unwrap_or_default();
                break addr
                    .parse()
                    .map_err(|e| format!("bad listen address '{addr}': {e}"))?;
            }
        };
        // Drain the rest of stderr so the child never blocks on it.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        let server = Self {
            child,
            addr,
            stderr: Some(drain),
        };
        let mut conn = server.connect()?;
        let pong = conn.roundtrip("{\"id\":0,\"ping\":true}")?;
        if !pong.contains("\"pong\":true") {
            return Err(format!("unexpected ping answer: {pong}"));
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    pub fn connect(&self) -> Result<LineConn, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(LineConn {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            stream,
        })
    }

    /// VmHWM of the child in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the server to stop and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        conn.roundtrip("{\"id\":0,\"shutdown\":true}")?;
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => break,
                Some(status) => return Err(format!("stc serve exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("stc serve did not stop within 20 s".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        if let Some(drain) = self.stderr.take() {
            drain
                .join()
                .map_err(|_| "stderr drain panicked".to_string())?;
        }
        Ok(())
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

/// A blocking JSON-lines connection for the untimed requests.
pub struct LineConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineConn {
    pub fn roundtrip(&mut self, request: &str) -> Result<String, String> {
        self.stream
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if line.is_empty() {
            return Err("server closed the connection".into());
        }
        Ok(line.trim_end().to_string())
    }

    pub fn into_stream(self) -> TcpStream {
        self.stream
    }
}

/// VmHWM (peak resident set) from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    Ok(kib / 1024.0)
}
