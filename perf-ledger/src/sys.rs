//! The few operating-system facts a wall-clock ledger needs: CPU pinning,
//! the process CPU clock, peak resident memory, and the machine facts that
//! go into every run document. Linux calls are declared `extern "C"`
//! against the C library `std` already links; elsewhere they degrade to
//! "unknown" and the run carries on.

/// The allowed-CPU mask as 64-bit words (room for 1024 CPUs).
type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
mod ffi {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// The CPUs this thread may run on, ascending. Empty when the kernel will
/// not say (or off Linux).
pub fn allowed_cpu_list() -> Vec<usize> {
    #[allow(unused_mut)]
    let mut mask: CpuMask = [0; 16];
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc =
            unsafe { ffi::sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
    }
    (0..mask.len() * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restrict the calling thread to `cpu`. Threads spawned afterwards inherit
/// the mask, so pinning `main` before anything is spawned pins the whole
/// process. `false` when the kernel refuses (or off Linux): the caller goes
/// on unpinned and says so.
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut one: CpuMask = [0; 16];
    if cpu >= one.len() * 64 {
        return false;
    }
    one[cpu / 64] = 1u64 << (cpu % 64);
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `one` is a live buffer of exactly the byte length passed;
        // pid 0 names the calling thread.
        let rc = unsafe { ffi::sched_setaffinity(0, std::mem::size_of::<CpuMask>(), one.as_ptr()) };
        rc == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Where this process runs, decided once by [`pin_process`].
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    /// CPUs the process was allowed on before it pinned itself.
    pub nproc: usize,
    /// The one CPU everything the program spawns runs on; `None` when the
    /// kernel refused and the run goes on unpinned.
    pub pinned_cpu: Option<usize>,
    /// A different allowed CPU for the clock sampler; `None` on a one-CPU
    /// machine, where the sampler has to share the program's.
    pub clock_cpu: Option<usize>,
}

/// Pin the calling thread — call it first thing in `main`, so every thread
/// spawned later inherits the mask — to the lowest CPU it is allowed on,
/// and set the highest other one aside for the clock sampler.
pub fn pin_process() -> Machine {
    let cpus = allowed_cpu_list();
    let nproc = match cpus.len() {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let pinned_cpu = cpus.first().copied().filter(|&c| pin_current_thread(c));
    let clock_cpu = cpus.last().copied().filter(|c| Some(*c) != cpus.first().copied());
    Machine { nproc, pinned_cpu, clock_cpu }
}

/// CPU time consumed by every thread of this process so far, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). 0 where the clock is unavailable.
pub fn process_cpu_s() -> f64 {
    #[cfg(target_os = "linux")]
    {
        let mut ts = ffi::Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a live, writable timespec.
        let rc = unsafe { ffi::clock_gettime(ffi::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
        }
    }
    0.0
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The SIMD tier the program's GEMM dispatch will pick on this machine
/// (mirrors the probe in `adcnn_tensor::gemm`).
pub fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        return "avx2+fma";
    }
    "scalar"
}

/// The checked-out commit, read from `.git` by hand (no child process).
/// The driver's checkouts are not git repositories: there it is "unknown".
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let full = match head.strip_prefix("ref: ") {
        None => Some(head.clone()),
        Some(name) => read(&format!(".git/{name}")).or_else(|| {
            let packed = read(".git/packed-refs")?;
            packed.lines().find_map(|l| l.strip_suffix(name).map(|sha| sha.trim().to_string()))
        }),
    };
    match full {
        Some(sha) if sha.len() >= 7 => sha[..7].to_string(),
        _ => "unknown".into(),
    }
}
