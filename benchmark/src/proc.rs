//! Process accounting from `/proc` (Linux): CPU time and peak resident
//! set, plus the machine stamp printed with every result.

use fastvg_wire::Json;
use std::time::Duration;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100
/// on every Linux architecture the benchmark targets).
const USER_HZ: u64 = 100;

/// User plus system CPU time of the whole process so far, all threads
/// included (exited ones too). Zero when `/proc` is unreadable.
pub fn cpu_time() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 here.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 1000 / USER_HZ)
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so
/// the next [`peak_rss_kib`] covers only what follows. A no-op where
/// `/proc/self/clear_refs` is not writable; the peak then covers the
/// process lifetime.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in KiB; 0 when unavailable.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and build a result was measured on.
pub fn stamp() -> Json {
    Json::object()
        .field(
            "nproc",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
        .field("cpu", cpu_model())
        .field("rustc", env!("FASTVG_BENCH_RUSTC"))
        .field("git", env!("FASTVG_BENCH_GIT"))
        .field("profile", env!("FASTVG_BENCH_PROFILE"))
        .build()
}

/// A CPU set as `sched_setaffinity(2)` takes it: 1024 bits.
pub type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on; `None` if the kernel refuses.
pub fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // it outlives the call; the kernel writes at most that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// The set holding only the lowest CPU of `set`.
pub fn first_cpu(set: &CpuSet) -> CpuSet {
    let mut one: CpuSet = [0; 16];
    if let Some((i, word)) = set.iter().enumerate().find(|(_, w)| **w != 0) {
        one[i] = 1 << word.trailing_zeros();
    }
    one
}

/// Moves every thread of the process onto `set`. Threads spawned later
/// inherit their creator's set, so the whole process stays there.
/// Returns whether every thread moved (one that exits meanwhile does
/// not).
pub fn set_affinity(set: &CpuSet) -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut all = true;
    for task in tasks.flatten() {
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<i32>().ok())
        else {
            continue;
        };
        // SAFETY: `set` is an initialized CPU set of exactly the size
        // passed, and it outlives the call; the kernel only reads it.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(set), set.as_ptr()) };
        all &= rc == 0;
    }
    all
}
