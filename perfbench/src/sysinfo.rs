//! Process accounting from the kernel: CPU time from `/proc/<pid>/stat`,
//! the machine's steal share from `/proc/stat`, and peak RSS from the
//! `rusage` a child leaves when it is reaped with `wait4`.

use std::process::Child;

/// Clock ticks per second of `/proc` CPU times (USER_HZ on Linux).
const TICKS_PER_S: f64 = 100.0;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    _sec: i64,
    _usec: i64,
}

/// `struct rusage` as the 64-bit Linux ABI lays it out; only the peak
/// RSS is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    _utime: Timeval,
    _stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

pub const SIGTERM: i32 = 15;
pub const SIGKILL: i32 = 9;

/// What a reaped child left behind.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Whether it exited normally with status 0.
    pub success: bool,
    /// Peak resident set (VmHWM), KB.
    pub peak_rss_kb: i64,
}

/// Reap `child` with `wait4`, keeping its resource usage. The `Child`
/// must not be waited on again afterwards.
pub fn reap(child: &Child) -> std::io::Result<Exit> {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: plain syscall on our own child with valid out-pointers.
        let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
        if r >= 0 {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(Exit {
        // WIFEXITED && WEXITSTATUS == 0
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        peak_rss_kb: ru.maxrss_kb,
    })
}

/// Send `sig` to process `pid`.
pub fn signal(pid: u32, sig: i32) -> std::io::Result<()> {
    // SAFETY: plain syscall.
    if unsafe { kill(pid as i32, sig) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// A child that is killed and reaped if it was not reaped when the guard
/// drops (an early return or a panic never leaves it behind).
pub struct Reaper {
    pub child: Child,
    reaped: bool,
}

impl Reaper {
    pub fn new(child: Child) -> Reaper {
        Reaper {
            child,
            reaped: false,
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn wait(&mut self) -> std::io::Result<Exit> {
        self.reaped = true;
        reap(&self.child)
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = signal(self.pid(), SIGKILL);
            let _ = reap(&self.child);
        }
    }
}

fn stat_fields(path: &str) -> Option<Vec<String>> {
    let s = std::fs::read_to_string(path).ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &s[s.rfind(')')? + 2..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// User + system CPU of a live process, ms.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    stat_cpu_ms(&format!("/proc/{pid}/stat"))
}

/// User + system CPU of a live process's main thread, ms.
pub fn main_thread_cpu_ms(pid: u32) -> Option<f64> {
    stat_cpu_ms(&format!("/proc/{pid}/task/{pid}/stat"))
}

fn stat_cpu_ms(path: &str) -> Option<f64> {
    let f = stat_fields(path)?;
    // Fields 14 and 15 of stat(5); the slice starts at field 3.
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks * 1e3 / TICKS_PER_S)
}

/// Cumulative machine CPU counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub total: u64,
    pub steal: u64,
}

pub fn cpu_times() -> CpuTimes {
    let Ok(s) = std::fs::read_to_string("/proc/stat") else {
        return CpuTimes::default();
    };
    let v: Vec<u64> = s
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    CpuTimes {
        total: v.iter().sum(),
        steal: v.get(7).copied().unwrap_or(0),
    }
}

/// Share of machine CPU time stolen by the hypervisor between two
/// samples.
pub fn steal_share(a: CpuTimes, b: CpuTimes) -> f64 {
    let total = b.total.saturating_sub(a.total);
    if total == 0 {
        0.0
    } else {
        b.steal.saturating_sub(a.steal) as f64 / total as f64
    }
}
