//! Small helpers shared by the workloads: seeded randomness, order
//! statistics, process resource usage and the run-environment record.

use std::time::Instant;

use serde_json::Value;

/// SplitMix64: the benchmark's only source of randomness, so every input
/// is a pure function of `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a over a byte string: a cheap fingerprint for bit-identity checks.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Folds the exact bit patterns of `values` into a fingerprint.
pub fn fnv_f64(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv(&bytes)
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Process CPU time and context switches (`getrusage(RUSAGE_SELF)`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches: a thread blocking to hand work on.
    pub ctx_switches: u64,
}

impl Usage {
    /// The current totals for this process.
    pub fn now() -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` matches the x86-64/aarch64 Linux `struct rusage`
        // layout and outlives the call.
        if unsafe { getrusage(0, &mut raw) } != 0 {
            return Usage::default();
        }
        let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: tv(&raw.utime),
            sys_s: tv(&raw.stime),
            // ru_nvcsw is the second-to-last long.
            ctx_switches: raw.longs[12] as u64,
        }
    }

    /// The usage accrued since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// Machine-wide steal time in clock ticks (`/proc/stat`, `cpu` line).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The one-minute load average (`/proc/loadavg`).
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// The checked-out commit, read from `.git` without running git; `none`
/// outside a git checkout.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used so far, ns.
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid out-pointer for the call.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPU ids this thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: the mask buffer is 1024 bits, the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] & (1u64 << (c % 64)) != 0)
        .collect()
}

/// Restricts the calling thread, and the threads it spawns afterwards, to
/// `cpus`. Returns whether the kernel accepted it.
pub fn set_cpus(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        mask[cpu % 1024 / 64] |= 1u64 << (cpu % 64);
    }
    // SAFETY: the mask buffer is 1024 bits, the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins the calling thread, and the threads it spawns afterwards, to
/// `cpu`. Returns whether the kernel accepted it.
pub fn pin_to(cpu: usize) -> bool {
    set_cpus(&[cpu])
}

/// Keeps the calling thread, and every thread it spawns meanwhile, on one
/// CPU; dropping it gives the calling thread back the CPUs it had.
///
/// `replay-plan` runs this way so it is not moved between CPUs mid-run,
/// and `paper-sim` for its `*.one_cpu` details. Between the CPUs of a
/// virtual machine, waking a thread sends an interrupt to a CPU that may
/// have halted and handed its core back to the host; on one CPU a
/// hand-off is a plain context switch.
pub struct OneCpu {
    cpus: Vec<usize>,
}

impl OneCpu {
    /// Pins the calling thread to the last CPU it may run on.
    pub fn pin() -> OneCpu {
        let cpus = allowed_cpus();
        if let Some(&cpu) = cpus.last() {
            pin_to(cpu);
        }
        OneCpu { cpus }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if !self.cpus.is_empty() {
            set_cpus(&self.cpus);
        }
    }
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Keeps CPUs from going idle while latency is measured.
///
/// A virtual machine's idle CPU halts and hands its physical core back to
/// the host; waking it again costs a host scheduling decision, which on a
/// shared host adds milliseconds of noise to every request that has to
/// wake a sleeping thread. A spinner runs one `SCHED_IDLE` busy loop per
/// CPU: any runnable thread preempts it at once, but the CPU never halts.
/// Dropping the spinner stops its threads.
pub struct Spinner {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Spinner {
    /// Starts one idle-priority spinning thread on each of `cpus`.
    pub fn start(cpus: &[usize]) -> Spinner {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    pin_to(cpu);
                    const SCHED_IDLE: i32 = 5;
                    let param = 0i32;
                    // SAFETY: `param` is a valid sched_param (one int) for
                    // the call; pid 0 is the calling thread.
                    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
                    let mut spins = 0u32;
                    loop {
                        std::hint::spin_loop();
                        spins = spins.wrapping_add(1);
                        if spins.is_multiple_of(4096) && stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                })
            })
            .collect();
        Spinner { stop, threads }
    }
}

impl Drop for Spinner {
    /// Stops the spinners and waits for them.
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Where the serving benchmarks place their threads: servers on one CPU,
/// the load generator on another, so a run does not depend on how the
/// scheduler happened to mix them. `None` on a single-CPU machine.
pub fn split_cpus() -> Option<(usize, usize)> {
    let cpus = allowed_cpus();
    match cpus.as_slice() {
        [first, .., last] => Some((*last, *first)),
        _ => None,
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(8, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn usage_moves_forward() {
        let a = Usage::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let d = Usage::now().since(&a);
        assert!(d.user_s + d.sys_s >= 0.0);
    }
}
