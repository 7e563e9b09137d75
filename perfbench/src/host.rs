//! Host-clock facts about this process and the machine it runs on.

use std::time::Duration;

/// `struct timeval` of 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs of which
/// the first is the peak resident set in KiB.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `Rusage` whose layout matches the
    // kernel's `struct rusage` on 64-bit Linux, and RUSAGE_SELF is a valid
    // `who`; getrusage writes only inside that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    usage
}

fn timeval(t: Timeval) -> Duration {
    Duration::from_secs(t.sec.max(0) as u64) + Duration::from_micros(t.usec.max(0) as u64)
}

/// User plus system CPU time of the whole process (every thread, live or
/// exited) so far.
pub fn cpu_time() -> Duration {
    let u = rusage();
    timeval(u.utime) + timeval(u.stime)
}

/// Peak resident set of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage().maxrss_kib as f64 / 1024.0
}

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
