//! Process CPU time and peak resident memory, from `getrusage(2)`.

use std::time::Duration;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_s: i64,
    utime_us: i64,
    stime_s: i64,
    stime_us: i64,
    maxrss_kib: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn usage() -> RUsage {
    let mut u = RUsage::default();
    // SAFETY: `u` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux, which `getrusage` fills in.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u
}

/// User plus system CPU time of every thread of this process so far.
pub fn cpu_time() -> Duration {
    let u = usage();
    let us = (u.utime_s + u.stime_s) * 1_000_000 + u.utime_us + u.stime_us;
    Duration::from_micros(us as u64)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    usage().maxrss_kib as f64 / 1024.0
}
