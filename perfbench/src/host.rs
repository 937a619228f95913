//! Host readings: the calling thread's scheduler statistics, machine
//! load and the process's peak memory. They tell a run that was
//! descheduled on a shared machine apart from a slow program.

use std::fs;

/// One reading of `/proc/thread-self/schedstat`: time on a CPU, time
/// runnable but waiting for one, and timeslices run. The kernel folds
/// the running slice in at scheduler events, so a reading can trail the
/// true on-CPU time by up to one scheduler tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub on_cpu_ns: u64,
    pub wait_ns: u64,
    pub slices: u64,
}

impl SchedStat {
    /// Read the calling thread's counters (all zero where the kernel
    /// does not provide them).
    pub fn now() -> SchedStat {
        let text = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        SchedStat {
            on_cpu_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
            slices: fields.next().unwrap_or(0),
        }
    }

    /// The counters accumulated since `earlier`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// glibc's `cpu_set_t`: a bit per CPU, 1024 CPUs.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Bind the calling thread, and every thread it starts afterwards, to
/// the CPU it runs on now, and return that CPU; `None` if the kernel
/// refuses. Calibration passes and iterations then run on the same
/// CPU, whichever other tenants load the other one, and the engines'
/// one worker thread never runs beside the thread that waits for it.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and only reads the
    // calling thread's state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut set = CpuSet { bits: [0; 16] };
    *set.bits.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid cpu_set_t of the size passed, alive for
    // the duration of the call; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    (rc == 0).then_some(cpu)
}

/// Linux's clock id for CPU time used by every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time used so far by all threads of this process, including
/// threads that have exited, in ns. The engines run their one worker on
/// a thread of its own, so the calling thread's schedstat misses it.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; on 64-bit Linux `time_t` and `long` are both 64 bits, which
    // is the layout `Timespec` declares.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    (ts.tv_sec as u64) * 1_000_000_000 + ts.tv_nsec as u64
}

/// The three load averages from `/proc/loadavg`, as printed there.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .unwrap_or_default()
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ")
}

/// The one-minute load average (0 when unreadable).
pub fn loadavg_1m() -> f64 {
    loadavg()
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(0.0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of the process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
