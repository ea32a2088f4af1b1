//! The C library calls the server makes directly, each behind a safe
//! function. This is the one module of the crate allowed `unsafe`.
//!
//! The workspace vendors every external crate, so no `libc` is available;
//! std already links the platform C library, which makes these
//! `extern "C"` declarations resolve at link time. The constants and
//! layouts are Linux's, the one platform the crate builds for.

use std::io;
use std::os::fd::{FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::Duration;

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLONESHOT: u32 = 1 << 30;
const EPOLL_CLOEXEC: c_int = 0o2000000;

pub const POLLIN: c_short = 0x001;

/// The `accept(2)` errors that leave the pending connection in the
/// backlog, out of descriptors or memory: `ENOMEM`, `ENFILE`, `EMFILE`,
/// `ENOBUFS`.
pub const ACCEPT_EXHAUSTED: [i32; 4] = [12, 23, 24, 105];

const O_NONBLOCK: c_int = 0o4000;
const O_CLOEXEC: c_int = 0o2000000;

/// `struct epoll_event`; the kernel ABI packs it on x86-64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

/// `struct pollfd`.
#[repr(C)]
pub struct PollFd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    fn sendfile(out_fd: c_int, in_fd: c_int, offset: *mut i64, count: usize) -> isize;
}

/// A negative return from a C call as the `errno` error it stands for.
fn check(rc: isize) -> io::Result<usize> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc as usize)
    }
}

/// A wait restarted, with its whole timeout, until it returns for a reason
/// other than a signal.
fn retrying(mut wait: impl FnMut() -> c_int) -> io::Result<usize> {
    loop {
        match check(wait() as isize) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            done => return done,
        }
    }
}

/// Milliseconds for `poll(2)` and `epoll_wait(2)`, rounded up so a wait
/// never ends before its deadline; `None` waits indefinitely.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as c_int,
    }
}

/// A new close-on-exec epoll instance.
pub fn epoll_create() -> io::Result<OwnedFd> {
    // SAFETY: no pointers are passed.
    let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) } as isize)?;
    // SAFETY: `fd` was just opened and nothing else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}

/// `epoll_ctl(2)`: `op` `fd` in `epfd` for `events`, reported as `token`.
pub fn epoll_modify(epfd: RawFd, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut ev = EpollEvent {
        events,
        data: token,
    };
    // SAFETY: `ev` is a live local the kernel only reads.
    check(unsafe { epoll_ctl(epfd, op, fd, &mut ev) } as isize).map(drop)
}

/// `epoll_wait(2)` into `events`, restarted after a signal; the number
/// filled.
pub fn epoll_wait_into(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout: Option<Duration>,
) -> io::Result<usize> {
    let max = events.len().min(c_int::MAX as usize) as c_int;
    let ms = timeout_ms(timeout);
    // SAFETY: the kernel writes at most `max` entries, all inside `events`.
    retrying(|| unsafe { epoll_wait(epfd, events.as_mut_ptr(), max, ms) })
}

/// `poll(2)` over `fds`, restarted after a signal; the number with events.
pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = timeout_ms(timeout);
    // SAFETY: the kernel reads and writes the `fds.len()` entries of `fds`.
    retrying(|| unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) })
}

/// A pipe whose ends are non-blocking and close-on-exec: `(read, write)`.
pub fn pipe() -> io::Result<(OwnedFd, OwnedFd)> {
    let mut fds = [0 as c_int; 2];
    // SAFETY: `pipe2` writes exactly two ints into the array passed.
    check(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } as isize)?;
    // SAFETY: both fds were just opened and nothing else owns them.
    Ok(unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) })
}

/// `sendfile(2)` from `file_fd` at `*offset` into `sock_fd`; the kernel
/// advances `*offset` by the bytes sent.
pub fn send_file(
    sock_fd: RawFd,
    file_fd: RawFd,
    offset: &mut i64,
    count: usize,
) -> io::Result<usize> {
    // SAFETY: `offset` is a live `i64` the kernel reads and updates.
    check(unsafe { sendfile(sock_fd, file_fd, offset, count) })
}
