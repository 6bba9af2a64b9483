//! Building and driving the `cfd` binary as a child process.

use crate::Res;
use cfd_suite::model::Json;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::Instant;

/// Builds the repository's `cfd` binary in release mode, offline, and
/// returns the path cargo reports for it. The build shares the caller's
/// `CARGO_TARGET_DIR` (if any) with the benchmark's own build.
pub fn build_cfd(root: &Path) -> Res<PathBuf> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--quiet",
            "--release",
            "--offline",
            "--bin",
            "cfd",
            "--message-format=json",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building cfd failed ({})", out.status).into());
    }
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let Ok(msg) = Json::parse(line) else { continue };
        let is_cfd = msg.get("reason").and_then(Json::as_str) == Some("compiler-artifact")
            && msg
                .get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some("cfd");
        if let (true, Some(exe)) = (is_cfd, msg.get("executable").and_then(Json::as_str)) {
            return Ok(PathBuf::from(exe));
        }
    }
    Err("cargo built no cfd executable".into())
}

/// How a child ended: its exit code and its peak resident set.
pub struct Exit {
    pub code: Option<i32>,
    pub maxrss_kb: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait_rusage(child: &Child) -> std::io::Result<(ExitStatus, u64)> {
    use std::ffi::{c_int, c_long};
    use std::os::unix::process::ExitStatusExt;

    /// `struct rusage` on 64-bit Linux: two `timeval`s of two longs each,
    /// then fourteen longs, the first of which is `ru_maxrss` (KiB).
    #[repr(C)]
    struct RUsage {
        utime: [c_long; 2],
        stime: [c_long; 2],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RUsage) -> c_int;
    }
    let pid = child.id() as c_int;
    let mut status: c_int = 0;
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is a child of this process that nothing has
        // reaped yet (`Proc` calls this at most once per child and never
        // lets std wait on it first); `status` and `ru` are live, writable
        // locals, and `RUsage` has the layout of the C `struct rusage` on
        // 64-bit Linux, which the cfg above restricts this function to.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            return Ok((ExitStatus::from_raw(status), ru.maxrss.max(0) as u64));
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait_rusage(_child: &Child) -> std::io::Result<(ExitStatus, u64)> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "peak-RSS accounting needs wait4(2) on 64-bit Linux",
    ))
}

/// Hands freed heap back to the OS and resets this process's peak-RSS
/// mark to its current RSS. Exec records the mark of the address space it
/// replaces into the child's `ru_maxrss`, and a spawned child starts out
/// in the parent's address space, so without this the benchmark's own
/// peak (from generating inputs) would pose as the child's.
pub fn shrink_self() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's malloc_trim only releases free memory back to
        // the kernel; it takes the allocator's own locks and touches no
        // live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets VmHWM to the current RSS (Linux ≥ 4.0); on failure the
    // reading can only be too high, never too low
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The peak RSS so far (`VmHWM` of its own address space) of a running
/// process, in KiB.
pub fn peak_rss_kb(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// A child process that is killed and reaped if dropped before
/// [`Proc::wait`], so an aborted run leaves nothing behind.
pub struct Proc {
    pub child: Child,
    reaped: bool,
}

impl Proc {
    pub fn spawn(cmd: &mut Command) -> Res<Proc> {
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
        Ok(Proc {
            child,
            reaped: false,
        })
    }

    /// The child's peak RSS so far; the child must still be running.
    pub fn peak_rss_kb(&self) -> Res<u64> {
        Ok(peak_rss_kb(self.child.id())?)
    }

    /// Waits for the child to exit, returning its code and peak RSS.
    pub fn wait(&mut self) -> Res<Exit> {
        let (status, maxrss_kb) = wait_rusage(&self.child)?;
        self.reaped = true;
        Ok(Exit {
            code: status.code(),
            maxrss_kb,
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One finished one-shot command.
pub struct Run {
    pub code: Option<i32>,
    pub stdout: Vec<u8>,
    pub stderr: String,
    /// Wall time from spawn to exit.
    pub secs: f64,
    pub maxrss_kb: u64,
}

/// Runs `cfd <args>` to completion, draining its stdout (then its
/// stderr, which the CLI keeps to a few lines) so it never blocks on a
/// full pipe.
pub fn run_once(cfd: &Path, args: &[&str]) -> Res<Run> {
    shrink_self();
    let t = Instant::now();
    let mut p = Proc::spawn(
        Command::new(cfd)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped()),
    )?;
    let mut stdout = Vec::new();
    let mut stderr = String::new();
    p.child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)?;
    p.child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)?;
    let exit = p.wait()?;
    Ok(Run {
        code: exit.code,
        stdout,
        stderr,
        secs: t.elapsed().as_secs_f64(),
        maxrss_kb: exit.maxrss_kb,
    })
}

/// The failure message for a run that exited with anything but
/// `expected`, or `None`.
pub fn exit_failure(run: &Run, expected: i32) -> Option<String> {
    (run.code != Some(expected)).then(|| {
        format!(
            "exit code {:?} (expected {expected}): {}",
            run.code,
            run.stderr.trim()
        )
    })
}
