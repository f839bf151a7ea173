//! Host facts and process accounting read from `/proc` (Linux): core
//! count, CPU model, peak resident set, process CPU time, and the steal
//! share of a run. Everything degrades to `None` where `/proc` is absent,
//! except the peak RSS, which is an end-to-end metric and therefore an
//! error when it cannot be read.

use std::time::Instant;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// This process's peak resident set (`VmHWM`), KiB.
pub fn vm_hwm_kib() -> Result<u64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&text).ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// CPU seconds (user + system, all threads) this process has consumed.
#[cfg(target_os = "linux")]
pub fn process_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target this benchmark builds for), and
    // `clock_gettime` writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has consumed (unavailable off Linux).
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_secs() -> f64 {
    0.0
}

/// CPUs this process may run on, in ascending order (empty off Linux or when
/// the affinity mask cannot be read).
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte length passed,
    // which is all `sched_getaffinity` writes to.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Binds the calling thread to one CPU. Returns whether the kernel accepted
/// the mask.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= CPU_SET_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the byte length passed;
    // pid 0 addresses the calling thread only.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpu: usize) -> bool {
    false
}

/// `cpu_set_t` is 1024 bits in glibc and musl.
#[cfg(target_os = "linux")]
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Aggregate `cpu` line of `/proc/stat`: (all jiffies, steal jiffies).
fn proc_stat_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    parse_proc_stat(&text)
}

fn parse_proc_stat(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so the total stops at steal.
    let total: u64 = fields.iter().take(8).sum();
    Some((total, *fields.get(7)?))
}

/// Measures the hypervisor steal share between construction and
/// [`StealMeter::pct`].
pub struct StealMeter {
    start: Option<(u64, u64)>,
    t0: Instant,
}

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter {
            start: proc_stat_jiffies(),
            t0: Instant::now(),
        }
    }

    /// Steal jiffies / all jiffies since `start`, percent (0 when
    /// `/proc/stat` is unreadable or no jiffy has elapsed).
    pub fn pct(&self) -> f64 {
        match (self.start, proc_stat_jiffies()) {
            (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }

    pub fn elapsed_secs(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

/// The git commit of the working tree, when the tree is a git checkout and
/// `git` is on the path (the acceptance driver runs from an export that is
/// neither).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat_lines() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51234));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        let stat = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_proc_stat(stat), Some((1000, 35)));
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_secs();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i) * 3);
        }
        std::hint::black_box(x);
        assert!(process_cpu_secs() >= t0);
    }
}
