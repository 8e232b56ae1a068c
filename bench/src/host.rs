//! What the benchmark reads from the host: process CPU time and memory
//! from `/proc/self`, and the provenance stamped on every output.

use std::ffi::{c_int, c_long};
use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// Process-wide CPU seconds consumed so far (user + system, every thread,
/// exited ones included) at nanosecond resolution. `/proc/self/stat`
/// counts the same time in 10 ms ticks, too coarse for the simulator's
/// 0.2 s runs; it stays the source of the user / system split.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and `clock_gettime` writes only through
    // that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The user / system split of the process's CPU time (all threads, exited
/// ones included) from `/proc/self/stat`, in seconds, 10 ms grain.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSplit {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuSplit {
    pub fn now() -> CpuSplit {
        let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        // The command name (field 2) may contain spaces; fields are
        // position-stable only after its closing parenthesis.
        let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
        let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
        // `rest` starts at field 3 (state), so utime (14) and stime (15)
        // sit at offsets 11 and 12.
        let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
        let hz = clk_tck();
        CpuSplit {
            user_s: ticks(11) / hz,
            sys_s: ticks(12) / hz,
        }
    }

    pub fn since(self, earlier: CpuSplit) -> CpuSplit {
        CpuSplit {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Kernel clock ticks per second. `run.sh` passes `getconf CLK_TCK`;
/// Linux has answered 100 on every architecture for two decades.
fn clk_tck() -> f64 {
    std::env::var("BENCH_CLK_TCK")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(100.0)
}

/// A `Vm*` line of `/proc/self/status`, in kB (`VmHWM` = peak resident
/// set, `VmRSS` = current).
pub fn vm_kb(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"))
}

/// Host and build facts recorded in every output.
pub struct Provenance {
    pub available_parallelism: usize,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

impl Provenance {
    /// `rustc -V` and the git commit come from `run.sh` through the
    /// environment (the binary starts no processes of its own).
    pub fn collect() -> Provenance {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Provenance {
            available_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            rustc: env("BENCH_RUSTC"),
            commit: env("BENCH_COMMIT"),
        }
    }

    /// Two fixed workers need two cores; with fewer the `serve-*` numbers
    /// describe time-slicing, not the runtime.
    pub fn degraded_host(&self) -> bool {
        self.available_parallelism < 2
    }
}
