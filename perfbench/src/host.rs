//! Host facts the standard library does not expose: process CPU time and
//! peak resident memory (both read the Linux way).

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU time and peak RSS through 64-bit Linux interfaces");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, including
/// threads that have already exited.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, checked by the `compile_error!` gate above), and
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident memory of this process so far, in KiB, without the pages
/// of mapped files (`VmHWM - RssFile`). File-backed pages of the binary and
/// shared libraries count toward `VmHWM` only as far as the kernel maps them
/// from the page cache, which depends on the machine's state, not on this
/// program: with them included, the same binary read 15.7 or 17.0 MiB half
/// an hour apart on a 2-vCPU VM.
pub fn peak_rss_kib() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let field = |name: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
            .unwrap_or_else(|| panic!("/proc/self/status has no {name} line"))
    };
    field("VmHWM:") - field("RssFile:")
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
