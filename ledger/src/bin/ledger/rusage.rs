//! `wait4(2)` shim: reap a child and read its resource usage in one call.
//!
//! `std::process::Child::wait` discards the kernel's `rusage`, and the
//! container has no `libc` crate, so this file declares the one foreign
//! function and the one struct the ledger needs. It is the only unsafe code
//! in the package. Linux on a 64-bit target only: `ru_maxrss` is in
//! kilobytes there, and `long` is 64 bits wide.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("ledger's wait4 shim assumes 64-bit Linux (struct rusage layout, ru_maxrss in kB)");

use std::io;
use std::process::Child;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` from `<sys/resource.h>`: two `timeval`s and 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a child ended and what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exit {
    /// Exit code, or `None` if a signal ended it.
    pub code: Option<i32>,
    /// User plus system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Peak resident set in kilobytes. Never below the parent's own
    /// resident set when it spawned the child: the kernel carries the
    /// high-water mark across `exec`.
    pub max_rss_kb: u64,
}

/// Wait for `child` to end. Consumes the handle: the process is reaped
/// here, so `Child::wait` must not be called afterwards.
pub fn wait_with_usage(child: Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, correctly laid
        // out values for the duration of the call; `pid` names a child of
        // this process that has not been waited for (we own its `Child`).
        let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if got == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    drop(child);
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    let exited = status & 0x7f == 0;
    Ok(Exit {
        code: exited.then_some((status >> 8) & 0xff),
        cpu_s: secs(&usage.ru_utime) + secs(&usage.ru_stime),
        max_rss_kb: u64::try_from(usage.ru_maxrss).unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    #[test]
    fn reports_exit_code_and_nonzero_usage() {
        let child = Command::new("sh").args(["-c", "exit 7"]).spawn().unwrap();
        let exit = wait_with_usage(child).unwrap();
        assert_eq!(exit.code, Some(7));
        assert!(exit.max_rss_kb > 0);
        assert!(exit.cpu_s >= 0.0);
    }

    #[test]
    fn a_signalled_child_has_no_exit_code() {
        let child = Command::new("sh")
            .args(["-c", "kill -9 $$"])
            .spawn()
            .unwrap();
        assert_eq!(wait_with_usage(child).unwrap().code, None);
    }
}
