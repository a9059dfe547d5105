//! What the harness reads from the host: the process CPU clock, the
//! `/proc` counters behind the `proc.*` metrics, and CPU pinning for
//! the depth-1 workloads.
//!
//! This is the only module with `unsafe`: two libc calls std has no
//! safe wrapper for.
//!
//! Three clocks of the same kernel accounting are read here, each
//! through its own interface, so that the traced budget adds up
//! measurements and not differences: the process CPU clock (every
//! thread, exited ones included), the calling thread's CPU clock, and
//! the on-CPU time of each other live thread from its `schedstat`.

use std::fs;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call, and both CPU-time clocks are ones every Linux kernel
    // since 2.6.12 supports; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU seconds (user + system, all threads, exited ones included)
/// this process has consumed. Nanosecond resolution, unlike the 10 ms
/// ticks in `/proc/self/stat` — `proc.cpu_us_per_op` is the total the
/// CPU budgets split and is summed over windows as short as 30 ms.
pub fn process_cpu_secs() -> f64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID) as f64 * 1e-9
}

/// CPU nanoseconds (user + system) the calling thread has consumed.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Pins the calling thread (and every thread it spawns afterwards) to
/// one CPU: the highest-numbered CPU the process may run on. Returns
/// the CPU, after checking in `/proc` that the kernel applied it.
///
/// Depth-1 closed loops over loopback otherwise measure the
/// hypervisor's cross-CPU wake-up cost (README, "Prototype evidence"),
/// so an unpinned run is an error, never a silent fallback.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let allowed = allowed_cpus()?;
    let cpu = *allowed
        .last()
        .ok_or("Cpus_allowed_list names no CPU to pin to")?;
    if cpu >= 1024 {
        return Err(format!("CPU {cpu} is beyond the 1024-bit affinity mask"));
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `mask` is 128 readable bytes and exactly that length is
    // passed; pid 0 addresses the calling thread; the kernel only
    // reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity to CPU {cpu} failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    match allowed_cpus()?.as_slice() {
        [only] if *only == cpu => Ok(cpu),
        other => Err(format!(
            "pinning to CPU {cpu} did not take: Cpus_allowed_list is {other:?}"
        )),
    }
}

/// CPUs the calling thread may run on.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let status = fs::read_to_string("/proc/thread-self/status")
        .map_err(|e| format!("/proc/thread-self/status: {e}"))?;
    let list = status_field(&status, "Cpus_allowed_list")
        .ok_or("no Cpus_allowed_list in /proc/thread-self/status")?;
    parse_cpu_list(list)
}

/// Parses a kernel CPU list such as `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Result<Vec<usize>, String> {
    let bad = || format!("malformed CPU list {list:?}");
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let lo: usize = lo.parse().map_err(|_| bad())?;
        let hi: usize = hi.parse().map_err(|_| bad())?;
        if hi < lo || hi - lo > 4096 {
            return Err(bad());
        }
        cpus.extend(lo..=hi);
    }
    Ok(cpus)
}

/// The value of `key:` in a `/proc/<pid>/status` document.
pub fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k == key).then_some(v.trim())
    })
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), in MiB.
pub fn status_kb_as_mb(status: &str, key: &str) -> Option<f64> {
    let kb: f64 = status_field(status, key)?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// `(utime, stime, num_threads)` from a `/proc/<pid>/stat` line, times
/// in clock ticks. The command name may contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat(stat: &str) -> Option<(u64, u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime 15,
    // num_threads 20.
    Some((
        f.get(11)?.parse().ok()?,
        f.get(12)?.parse().ok()?,
        f.get(17)?.parse().ok()?,
    ))
}

/// `(voluntary, involuntary)` context switches from one task's status.
pub fn parse_ctx_switches(status: &str) -> Option<(u64, u64)> {
    Some((
        status_field(status, "voluntary_ctxt_switches")?
            .parse()
            .ok()?,
        status_field(status, "nonvoluntary_ctxt_switches")?
            .parse()
            .ok()?,
    ))
}

/// Linux reports `/proc` CPU times in 100 Hz ticks on every
/// architecture this repo builds for (`USER_HZ`).
const TICK_SECS: f64 = 0.01;

/// On-CPU nanoseconds of one task: the first field of its `schedstat`.
pub fn parse_schedstat(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// One reading of the process-wide counters behind `proc.*`, and of
/// the CPU split between the calling thread and every other thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSnap {
    pub user_s: f64,
    pub sys_s: f64,
    pub voluntary_ctx: u64,
    pub involuntary_ctx: u64,
    pub threads: u64,
    /// CPU the calling thread (the load generator) has consumed.
    pub own_cpu_s: f64,
    /// On-CPU time of every other live thread (the server's), summed.
    pub others_cpu_s: f64,
}

impl ProcSnap {
    /// Reads the counters now. Context switches and other threads'
    /// CPU are summed over live threads, so deltas are only meaningful
    /// across an interval in which no thread exits — the harness
    /// samples around timed windows, during which the server is up
    /// throughout. (What a thread born and gone inside a window burns
    /// is in the process clock only: the budget's unattributed rest.)
    pub fn take() -> Result<ProcSnap, String> {
        let stat = fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
        let (ut, st, threads) = parse_stat(&stat).ok_or("unparseable /proc/self/stat")?;
        let own = fs::read_link("/proc/thread-self").map_err(|e| e.to_string())?;
        let mut snap = ProcSnap {
            user_s: ut as f64 * TICK_SECS,
            sys_s: st as f64 * TICK_SECS,
            threads,
            own_cpu_s: thread_cpu_ns() as f64 * 1e-9,
            ..ProcSnap::default()
        };
        for entry in fs::read_dir("/proc/self/task").map_err(|e| e.to_string())? {
            let task = entry.map_err(|e| e.to_string())?.path();
            // A thread can exit between readdir and read; skip it.
            let Ok(status) = fs::read_to_string(task.join("status")) else {
                continue;
            };
            if let Some((v, i)) = parse_ctx_switches(&status) {
                snap.voluntary_ctx += v;
                snap.involuntary_ctx += i;
            }
            if task.file_name() != own.file_name() {
                let ns = fs::read_to_string(task.join("schedstat"))
                    .ok()
                    .and_then(|s| parse_schedstat(&s));
                snap.others_cpu_s += ns.unwrap_or(0) as f64 * 1e-9;
            }
        }
        Ok(snap)
    }

    /// Adds the change from `from` to `to` into `self` (thread count
    /// keeps the maximum seen).
    pub fn add_delta(&mut self, from: &ProcSnap, to: &ProcSnap) {
        self.user_s += to.user_s - from.user_s;
        self.sys_s += to.sys_s - from.sys_s;
        self.voluntary_ctx += to.voluntary_ctx.saturating_sub(from.voluntary_ctx);
        self.involuntary_ctx += to.involuntary_ctx.saturating_sub(from.involuntary_ctx);
        self.threads = self.threads.max(to.threads);
        self.own_cpu_s += to.own_cpu_s - from.own_cpu_s;
        self.others_cpu_s += (to.others_cpu_s - from.others_cpu_s).max(0.0);
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status_kb_as_mb(&status, "VmHWM").ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Kernel release string, a run label.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured on the development VM (kernel 6.18), trimmed to the
    // fields the parsers touch plus their neighbours.
    const STATUS: &str = "Name:\ttlc-ledger\nState:\tR (running)\nTgid:\t11669\n\
VmPeak:\t    2640 kB\nVmHWM:\t  135104 kB\nVmRSS:\t    1424 kB\nThreads:\t4\n\
Cpus_allowed:\t3\nCpus_allowed_list:\t0-1\nMems_allowed_list:\t0\n\
voluntary_ctxt_switches:\t1234\nnonvoluntary_ctxt_switches:\t56\n";

    const STAT: &str = "11668 (tlc ledger) x) R 11664 11668 11664 0 -1 4194304 81 0 0 0 \
731 42 0 0 20 0 5 0 256125 2703360 309 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn status_fields_parse_from_fixture() {
        assert_eq!(status_field(STATUS, "Cpus_allowed_list"), Some("0-1"));
        assert_eq!(status_field(STATUS, "Cpus_allowed"), Some("3"));
        assert_eq!(status_field(STATUS, "Nope"), None);
        assert_eq!(status_kb_as_mb(STATUS, "VmHWM"), Some(135104.0 / 1024.0));
        assert_eq!(status_kb_as_mb(STATUS, "Threads"), None);
        assert_eq!(parse_ctx_switches(STATUS), Some((1234, 56)));
    }

    #[test]
    fn stat_survives_spaces_and_parens_in_comm() {
        assert_eq!(parse_stat(STAT), Some((731, 42, 5)));
        assert_eq!(parse_stat("1 (x) R 2"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn schedstat_first_field_is_on_cpu_time() {
        // Captured from /proc/self/task/<tid>/schedstat: on-CPU ns,
        // run-queue wait ns, time slices.
        assert_eq!(parse_schedstat("5153209 115845 37\n"), Some(5_153_209));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("0-1"), Ok(vec![0, 1]));
        assert_eq!(
            parse_cpu_list("0-2,8,10-11\n"),
            Ok(vec![0, 1, 2, 8, 10, 11])
        );
        assert_eq!(parse_cpu_list("5"), Ok(vec![5]));
        assert_eq!(parse_cpu_list(""), Ok(vec![]));
        assert!(parse_cpu_list("3-1").is_err());
        assert!(parse_cpu_list("a").is_err());
    }

    #[test]
    fn live_readings_are_sane() {
        let a = process_cpu_secs();
        let snap = ProcSnap::take().expect("proc snapshot");
        assert!(snap.threads >= 1);
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(process_cpu_secs() >= a);
        assert!(!allowed_cpus().expect("cpu list").is_empty());

        // A thread that burned 20 ms and is still alive (held on a
        // channel, so descheduled and accounted) shows in the other
        // threads' total and not in this thread's clock.
        let (burned_tx, burned_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let burner = std::thread::spawn(move || {
            let t = thread_cpu_ns();
            while thread_cpu_ns() - t < 20_000_000 {
                std::hint::black_box(0u64);
            }
            burned_tx.send(()).expect("main thread waits");
            let _ = release_rx.recv();
        });
        burned_rx.recv().expect("burner reports");
        let after = ProcSnap::take().expect("proc snapshot");
        drop(release_tx);
        burner.join().expect("burner");
        assert!(after.others_cpu_s - snap.others_cpu_s >= 0.02);
        assert!(after.own_cpu_s - snap.own_cpu_s < 0.02);
        assert!(process_cpu_secs() - a >= 0.02);
    }

    #[test]
    fn deltas_accumulate() {
        let from = ProcSnap {
            user_s: 1.0,
            sys_s: 0.5,
            voluntary_ctx: 10,
            involuntary_ctx: 2,
            threads: 3,
            own_cpu_s: 0.25,
            others_cpu_s: 2.0,
        };
        let to = ProcSnap {
            user_s: 1.5,
            sys_s: 0.75,
            voluntary_ctx: 25,
            involuntary_ctx: 2,
            threads: 6,
            own_cpu_s: 0.5,
            others_cpu_s: 2.75,
        };
        let mut acc = ProcSnap::default();
        acc.add_delta(&from, &to);
        acc.add_delta(&from, &to);
        assert_eq!(acc.user_s, 1.0);
        assert_eq!(acc.sys_s, 0.5);
        assert_eq!(acc.voluntary_ctx, 30);
        assert_eq!(acc.involuntary_ctx, 0);
        assert_eq!(acc.threads, 6);
        assert_eq!(acc.own_cpu_s, 0.5);
        assert_eq!(acc.others_cpu_s, 1.5);
    }
}
