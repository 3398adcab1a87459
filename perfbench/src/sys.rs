//! What the benchmark reads about its own process and machine: resident
//! memory, per-thread CPU time, host steal, CPU model and the source
//! revision. Everything comes from `/proc`, the C library and the
//! checkout; nothing is spawned.

use std::path::Path;
use std::time::{Duration, Instant};

/// Resident set size of this process in MiB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A thread's CPU-time clock. CPU time counts only what the thread ran:
/// host steal, and time spent blocked or waiting to run, are not in it.
#[derive(Debug, Clone, Copy)]
pub struct ThreadClock(i32);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID`: the calling thread's CPU-time clock.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

impl ThreadClock {
    /// The calling thread's clock.
    pub fn current() -> Self {
        ThreadClock(CLOCK_THREAD_CPUTIME_ID)
    }

    /// The clock of the live thread of this process named `name`. A new
    /// thread names itself once it runs, so this waits up to two seconds
    /// for the name to appear.
    pub fn named(name: &str) -> Option<Self> {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if let Some(tid) = thread_id(name) {
                // Linux encodes a thread's CPUCLOCK_SCHED clock as the
                // inverted thread id shifted left by 3, with the per-thread
                // bit (4) and the clock type (2) below it, as glibc's
                // pthread_getcpuclockid builds it.
                return Some(ThreadClock((!tid << 3) | 4 | 2));
            }
            if Instant::now() > deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// CPU time the thread has run so far.
    pub fn now(self) -> Duration {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `timespec` through `tp`, which
        // points at a live, writable `Timespec` laid out as the C struct on
        // 64-bit Linux; it reads nothing else of ours.
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        assert_eq!(rc, 0, "a thread CPU clock of this process reads");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }
}

/// The id of the live thread of this process named `name`.
fn thread_id(name: &str) -> Option<i32> {
    std::fs::read_dir("/proc/self/task")
        .ok()?
        .flatten()
        .find(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end() == name)
        })?
        .file_name()
        .to_str()?
        .parse()
        .ok()
}

/// Returns the allocator's free memory to the system, so that a reading
/// of RSS counts live memory rather than what earlier set-ups freed.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` only releases free heap pages; it touches no
    // memory the program holds and takes no pointer.
    unsafe {
        malloc_trim(0);
    }
}

/// Host steal ticks accrued by every CPU of this guest so far.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The revision checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(sha) = read(reference) {
        return sha.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
