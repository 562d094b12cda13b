//! Starting, probing and stopping an `sjsel serve` daemon.

use crate::util::{us, vm_hwm_mb};
use crate::Ctx;
use sj_server::Client;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BOOT_TIMEOUT: Duration = Duration::from_secs(120);

pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `sjsel serve ARGS --addr 127.0.0.1:0 --ready-file READY`
    /// and waits for the ready file. Returns the daemon and the time
    /// from spawn to ready file.
    pub fn boot(
        sjsel: &Path,
        args: &[String],
        ready: &Path,
        log: &Path,
    ) -> Result<(Self, Duration), String> {
        let _ = std::fs::remove_file(ready);
        let log = std::fs::File::create(log).map_err(|e| format!("daemon log: {e}"))?;
        let t0 = Instant::now();
        let mut child = Command::new(sjsel)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--ready-file"])
            .arg(ready)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", sjsel.display()))?;
        loop {
            // The daemon writes the whole address line in one call;
            // a complete line means the listener is bound.
            if let Ok(text) = std::fs::read_to_string(ready) {
                if text.ends_with('\n') {
                    let boot = t0.elapsed();
                    let addr = text
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad ready file {text:?}: {e}"))?;
                    return Ok((Self { child, addr }, boot));
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited during boot: {status}"));
            }
            if t0.elapsed() > BOOT_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon did not become ready".to_string());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Boots the daemon `ctx.setups` times and keeps the last one;
    /// returns it with each boot's spawn-to-ready time in seconds.
    /// `args(s)` gives the `serve` arguments of set-up `s`.
    pub fn boot_setups(
        ctx: &Ctx,
        args: impl Fn(usize) -> Vec<String>,
    ) -> Result<(Self, Vec<f64>), String> {
        let mut setups = Vec::new();
        let mut daemon: Option<Self> = None;
        for s in 0..ctx.setups {
            let (d, boot) = Self::boot(
                &ctx.sjsel,
                &args(s),
                &ctx.work.join("ready"),
                &ctx.work.join(format!("daemon-{s}.log")),
            )?;
            setups.push(boot.as_secs_f64());
            if let Some(old) = daemon.replace(d) {
                old.shutdown()?;
            }
        }
        Ok((daemon.ok_or("no set-up ran")?, setups))
    }

    /// Round trips (µs) of `n` pings on a fresh connection.
    pub fn ping_rtts(&self, n: usize) -> Result<Vec<f64>, String> {
        let mut client = Client::connect(self.addr).map_err(|e| e.to_string())?;
        (0..n)
            .map(|_| {
                let t0 = Instant::now();
                client.ping().map_err(|e| e.to_string())?;
                Ok(us(t0.elapsed()))
            })
            .collect()
    }

    /// The daemon's peak resident set so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(self.child.id())
    }

    /// Asks the daemon to stop and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(self.addr)
            .and_then(|mut c| c.shutdown_server())
            .map_err(|e| format!("shutdown request: {e}"));
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(()), true) => Ok(()),
                    (Err(e), _) => Err(e),
                    (Ok(()), false) => Err(format!("daemon exited with {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("daemon did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
