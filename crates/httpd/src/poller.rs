//! Readiness polling over raw file descriptors — the event layer under the
//! parked-connection scheduler.
//!
//! The paper's PClarens rode on Apache's process-per-connection model; its
//! Figure 4 tops out at tens of clients because every live connection owns
//! a whole process (here: a worker thread) even while idle between
//! keep-alive requests. This module is the piece that breaks that coupling:
//! a thin, dependency-free readiness facade the server uses to *park* idle
//! connections off the worker pool and wake them only when bytes arrive.
//!
//! Three parts:
//!
//! * [`Poller`] — epoll on Linux, a `poll(2)`-rebuild backend on other
//!   Unixes; elsewhere `Poller::new` fails with `Unsupported`, and so does
//!   `HttpServer::bind`, since this is the only scheduler there is.
//!   Connection sockets are registered **one-shot**: after a readiness
//!   event fires the fd stays registered but disarmed, so a worker can own
//!   the socket with no risk of concurrent events, and re-parking is a
//!   cheap re-arm.
//! * A self-pipe **waker**: `wake()` is async-signal-safe-ish (one `write`
//!   on a non-blocking pipe) and may be called from any thread — this is
//!   what makes shutdown deterministic under zero traffic, replacing the
//!   old connect-to-yourself hack.
//! * [`DeadlineWheel`] — a hashed timing wheel for keep-alive idle
//!   deadlines. Insert/advance are O(1) amortized; entries are *candidates*
//!   (a re-dispatched connection leaves a stale entry behind), so the owner
//!   validates each expiry against its live table before closing anything.
//!
//! Everything here speaks raw `RawFd`s and `u64` tokens; connection state
//! stays in `crate::conn`, and only the poller thread mutates
//! registrations, so no interest-list locking is needed on the hot path.

#![allow(dead_code)] // the backends keep the same surface

use std::time::{Duration, Instant};

#[cfg(unix)]
pub use std::os::unix::io::RawFd;
#[cfg(not(unix))]
pub type RawFd = i32;

/// Token reserved for the internal wake pipe. Connection tokens are
/// allocated from 0 upward, so the reservation never collides.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// One readiness event: the token the fd was registered with, plus whether
/// the peer hung up (the owner still reads to EOF either way).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Registration token (`WAKE_TOKEN` events are consumed internally).
    pub token: u64,
    /// Peer closed its end (EPOLLRDHUP/EPOLLHUP/POLLERR family).
    pub hangup: bool,
}

// ---------------------------------------------------------------------------
// Raw syscall bindings. The workspace vendors every external crate, so no
// `libc` is available; std already links the platform C library, which
// makes these `extern "C"` declarations resolve at link time.
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    }

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: c_int = 0x0004;

    pub(super) fn set_nonblocking(fd: RawFd) -> io::Result<()> {
        unsafe {
            let flags = fcntl(fd, F_GETFL);
            if flags < 0 {
                return Err(io::Error::last_os_error());
            }
            if fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(())
    }

    pub(super) fn make_pipe() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0 as c_int; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        // Both ends non-blocking: `wake()` never stalls on a full pipe, and
        // draining never stalls on an empty one.
        set_nonblocking(fds[0])?;
        set_nonblocking(fds[1])?;
        Ok((fds[0], fds[1]))
    }

    pub(super) fn close_fd(fd: RawFd) {
        unsafe {
            close(fd);
        }
    }

    pub(super) fn pipe_write_byte(fd: RawFd) {
        let byte = 1u8;
        // EAGAIN means the pipe already holds unconsumed wake bytes, which
        // is exactly as good as writing another.
        unsafe {
            let _ = write(fd, &byte, 1);
        }
    }

    pub(super) fn pipe_drain(fd: RawFd) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
            if n < (buf.len() as isize) {
                return; // drained (or EAGAIN/EOF)
            }
        }
    }

    fn timeout_ms(timeout: Option<Duration>) -> c_int {
        match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as c_int,
        }
    }

    /// Block until `fd` is writable (used by the parked path's response
    /// writer when the socket's send buffer fills).
    pub fn wait_writable(fd: RawFd, timeout: Duration) -> io::Result<()> {
        let mut pfd = PollFd {
            fd,
            events: POLLOUT,
            revents: 0,
        };
        loop {
            let rc = unsafe { poll(&mut pfd, 1, timeout_ms(Some(timeout))) };
            if rc > 0 {
                return Ok(());
            }
            if rc == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "socket not writable before timeout",
                ));
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// `poll(2)` over a token-tagged interest set (non-Linux backend).
    /// The third tuple field selects write interest (a parked writer)
    /// instead of the default read interest.
    pub(super) fn poll_set(
        interest: &[(RawFd, u64, bool)],
        timeout: Option<Duration>,
        out: &mut Vec<super::Event>,
    ) -> io::Result<()> {
        let mut fds: Vec<PollFd> = interest
            .iter()
            .map(|&(fd, _, writable)| PollFd {
                fd,
                events: if writable { POLLOUT } else { POLLIN },
                revents: 0,
            })
            .collect();
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms(timeout)) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for (pfd, &(_, token, _)) in fds.iter().zip(interest.iter()) {
            if pfd.revents != 0 {
                out.push(super::Event {
                    token,
                    hangup: pfd.revents & (POLLHUP | POLLERR) != 0,
                });
            }
        }
        Ok(())
    }
}

#[cfg(unix)]
pub use sys::wait_writable;

// ---------------------------------------------------------------------------
// Linux backend: epoll with one-shot connection registrations.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod backend {
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    use super::sys;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLONESHOT: u32 = 1 << 30;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    // The kernel ABI packs epoll_event on x86-64 (and x32) only.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    /// epoll-backed readiness source with a self-pipe waker.
    pub struct Poller {
        epfd: RawFd,
        wake_read: RawFd,
        wake_write: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let (wake_read, wake_write) = match sys::make_pipe() {
                Ok(pair) => pair,
                Err(e) => {
                    sys::close_fd(epfd);
                    return Err(e);
                }
            };
            let poller = Poller {
                epfd,
                wake_read,
                wake_write,
            };
            // The wake pipe is level-triggered and persistent.
            poller.ctl(EPOLL_CTL_ADD, wake_read, EPOLLIN, super::WAKE_TOKEN)?;
            Ok(poller)
        }

        fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Register `fd` for readability. `oneshot` registrations disarm
        /// after the first event and must be [`Poller::rearm`]ed.
        pub fn add(&self, fd: RawFd, token: u64, oneshot: bool) -> io::Result<()> {
            let mut events = EPOLLIN | EPOLLRDHUP;
            if oneshot {
                events |= EPOLLONESHOT;
            }
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Re-arm a one-shot registration after the owner handled its event.
        pub fn rearm(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_MOD,
                fd,
                EPOLLIN | EPOLLRDHUP | EPOLLONESHOT,
                token,
            )
        }

        /// Register `fd` for writability (one-shot): a connection parked
        /// mid-response after `EWOULDBLOCK`, waiting for the socket's send
        /// buffer to drain.
        pub fn add_writable(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_ADD,
                fd,
                EPOLLOUT | EPOLLRDHUP | EPOLLONESHOT,
                token,
            )
        }

        /// Flip an existing registration to one-shot write interest.
        pub fn rearm_writable(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_MOD,
                fd,
                EPOLLOUT | EPOLLRDHUP | EPOLLONESHOT,
                token,
            )
        }

        /// Drop a registration (closing the fd also does this implicitly).
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Wake a blocked [`Poller::wait`] from any thread.
        pub fn wake(&self) {
            sys::pipe_write_byte(self.wake_write);
        }

        /// Wait for events (`None` = indefinitely). Wake-pipe events are
        /// drained and not reported; callers re-check their own state after
        /// every return.
        pub fn wait(
            &self,
            timeout: Option<Duration>,
            out: &mut Vec<super::Event>,
        ) -> io::Result<()> {
            const MAX_EVENTS: usize = 64;
            let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as c_int,
            };
            let n = loop {
                let rc = unsafe {
                    epoll_wait(
                        self.epfd,
                        events.as_mut_ptr(),
                        MAX_EVENTS as c_int,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in events.iter().take(n) {
                let token = ev.data;
                let bits = ev.events;
                if token == super::WAKE_TOKEN {
                    sys::pipe_drain(self.wake_read);
                    continue;
                }
                out.push(super::Event {
                    token,
                    hangup: bits & (EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            sys::close_fd(self.epfd);
            sys::close_fd(self.wake_read);
            sys::close_fd(self.wake_write);
        }
    }
}

// ---------------------------------------------------------------------------
// Portable Unix backend: rebuild a poll(2) set per wait. O(n) per call but
// n is the parked-connection count, and non-Linux hosts are the dev-laptop
// case, not the deployment case.
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod backend {
    use std::io;
    use std::os::unix::io::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    use super::sys;

    struct Registration {
        fd: RawFd,
        token: u64,
        armed: bool,
        oneshot: bool,
        writable: bool,
    }

    pub struct Poller {
        interest: Mutex<Vec<Registration>>,
        wake_read: RawFd,
        wake_write: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let (wake_read, wake_write) = sys::make_pipe()?;
            Ok(Poller {
                interest: Mutex::new(Vec::new()),
                wake_read,
                wake_write,
            })
        }

        pub fn add(&self, fd: RawFd, token: u64, oneshot: bool) -> io::Result<()> {
            self.interest.lock().unwrap().push(Registration {
                fd,
                token,
                armed: true,
                oneshot,
                writable: false,
            });
            Ok(())
        }

        pub fn rearm(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.rearm_with(fd, token, false)
        }

        pub fn add_writable(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.interest.lock().unwrap().push(Registration {
                fd,
                token,
                armed: true,
                oneshot: true,
                writable: true,
            });
            Ok(())
        }

        pub fn rearm_writable(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.rearm_with(fd, token, true)
        }

        fn rearm_with(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            let mut interest = self.interest.lock().unwrap();
            match interest.iter_mut().find(|r| r.fd == fd) {
                Some(r) => {
                    r.token = token;
                    r.armed = true;
                    r.writable = writable;
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.interest.lock().unwrap().retain(|r| r.fd != fd);
            Ok(())
        }

        pub fn wake(&self) {
            sys::pipe_write_byte(self.wake_write);
        }

        pub fn wait(
            &self,
            timeout: Option<Duration>,
            out: &mut Vec<super::Event>,
        ) -> io::Result<()> {
            let mut set: Vec<(RawFd, u64, bool)> = vec![(self.wake_read, super::WAKE_TOKEN, false)];
            set.extend(
                self.interest
                    .lock()
                    .unwrap()
                    .iter()
                    .filter(|r| r.armed)
                    .map(|r| (r.fd, r.token, r.writable)),
            );
            let mut raw = Vec::new();
            sys::poll_set(&set, timeout, &mut raw)?;
            let mut interest = self.interest.lock().unwrap();
            for event in raw {
                if event.token == super::WAKE_TOKEN {
                    sys::pipe_drain(self.wake_read);
                    continue;
                }
                if let Some(r) = interest.iter_mut().find(|r| r.token == event.token) {
                    if r.oneshot {
                        r.armed = false;
                    }
                }
                out.push(event);
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            sys::close_fd(self.wake_read);
            sys::close_fd(self.wake_write);
        }
    }
}

// ---------------------------------------------------------------------------
// No backend off Unix. The type has no values, so `new` can only fail and
// the compiler checks that nothing else is ever reached.
// ---------------------------------------------------------------------------

#[cfg(not(unix))]
mod backend {
    use std::io;
    use std::time::Duration;

    use super::RawFd;

    pub enum Poller {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the connection scheduler needs a Unix readiness backend (epoll or poll)",
            ))
        }

        pub fn add(&self, _fd: RawFd, _token: u64, _oneshot: bool) -> io::Result<()> {
            match *self {}
        }

        pub fn rearm(&self, _fd: RawFd, _token: u64) -> io::Result<()> {
            match *self {}
        }

        pub fn add_writable(&self, _fd: RawFd, _token: u64) -> io::Result<()> {
            match *self {}
        }

        pub fn rearm_writable(&self, _fd: RawFd, _token: u64) -> io::Result<()> {
            match *self {}
        }

        pub fn wake(&self) {
            match *self {}
        }

        pub fn wait(
            &self,
            _timeout: Option<Duration>,
            _out: &mut Vec<super::Event>,
        ) -> io::Result<()> {
            match *self {}
        }
    }
}

pub use backend::Poller;

// ---------------------------------------------------------------------------
// Deadline wheel.
// ---------------------------------------------------------------------------

/// A hashed timing wheel for keep-alive idle deadlines.
///
/// All deadlines share one horizon (the server's `read_timeout`), so the
/// wheel covers a single rotation: `slots × tick > horizon`. Entries are
/// `(token, seq)` *candidates* — a connection that was re-dispatched before
/// its deadline leaves its entry behind, and the owner must validate the
/// sequence number (and the actual deadline) against its parked table
/// before expiring anything. This keeps insert O(1) with no deletion
/// bookkeeping on the wake path.
pub struct DeadlineWheel {
    slots: Vec<Vec<(u64, u64)>>,
    tick: Duration,
    last: Instant,
    cursor: usize,
}

impl DeadlineWheel {
    /// Build a wheel whose rotation covers `horizon` (plus slack). The tick
    /// is `horizon / 32` clamped to [5 ms, 500 ms], so a 200 ms test
    /// timeout expires within ~6 ms of schedule and a 30 s production
    /// timeout costs one wakeup per 500 ms (when anything is parked).
    pub fn new(horizon: Duration) -> DeadlineWheel {
        let tick = (horizon / 32)
            .max(Duration::from_millis(5))
            .min(Duration::from_millis(500));
        let slots = (horizon.as_nanos() / tick.as_nanos().max(1)) as usize + 2;
        DeadlineWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick,
            last: Instant::now(),
            cursor: 0,
        }
    }

    /// Tick granularity (tests).
    pub fn tick(&self) -> Duration {
        self.tick
    }

    /// Schedule a candidate expiry for `(token, seq)` at `deadline`.
    pub fn insert(&mut self, token: u64, seq: u64, deadline: Instant) {
        let ahead = deadline.saturating_duration_since(self.last);
        let ticks = ((ahead.as_nanos() / self.tick.as_nanos().max(1)) as usize + 1)
            .min(self.slots.len() - 1);
        let slot = (self.cursor + ticks) % self.slots.len();
        self.slots[slot].push((token, seq));
    }

    /// Advance the wheel to `now`, draining every passed slot's candidates
    /// into `due`. Bounded by one full rotation per call.
    pub fn advance(&mut self, now: Instant, due: &mut Vec<(u64, u64)>) {
        let mut steps = 0;
        while now.saturating_duration_since(self.last) >= self.tick {
            self.last += self.tick;
            self.cursor = (self.cursor + 1) % self.slots.len();
            due.append(&mut self.slots[self.cursor]);
            steps += 1;
            if steps >= self.slots.len() {
                // Lapped (the poller thread stalled for a whole rotation):
                // everything is due; resynchronize the time base.
                self.last = now;
                for slot in &mut self.slots {
                    due.append(slot);
                }
                return;
            }
        }
    }

    /// Time until the next tick boundary (poll timeout when parked
    /// connections exist). Never zero, so a busy loop cannot form.
    pub fn next_tick_in(&self, now: Instant) -> Duration {
        self.tick
            .saturating_sub(now.saturating_duration_since(self.last))
            .max(Duration::from_millis(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_expires_after_horizon() {
        let mut wheel = DeadlineWheel::new(Duration::from_millis(200));
        let now = Instant::now();
        wheel.insert(7, 1, now + Duration::from_millis(200));
        let mut due = Vec::new();
        // Just before the deadline: nothing due.
        wheel.advance(now + Duration::from_millis(150), &mut due);
        assert!(due.is_empty(), "expired {due:?} before the deadline");
        // Well past: the candidate surfaces.
        wheel.advance(now + Duration::from_millis(400), &mut due);
        assert_eq!(due, vec![(7, 1)]);
    }

    #[test]
    fn wheel_keeps_candidates_distinct_by_seq() {
        let mut wheel = DeadlineWheel::new(Duration::from_millis(100));
        let now = Instant::now();
        wheel.insert(1, 1, now + Duration::from_millis(50));
        wheel.insert(1, 2, now + Duration::from_millis(50));
        let mut due = Vec::new();
        wheel.advance(now + Duration::from_millis(200), &mut due);
        due.sort_unstable();
        assert_eq!(due, vec![(1, 1), (1, 2)]);
    }

    #[test]
    fn wheel_survives_a_lap() {
        let mut wheel = DeadlineWheel::new(Duration::from_millis(100));
        let now = Instant::now();
        wheel.insert(9, 3, now + Duration::from_millis(80));
        let mut due = Vec::new();
        // Stall for many rotations; the entry must still surface exactly once.
        wheel.advance(now + Duration::from_secs(10), &mut due);
        assert_eq!(due, vec![(9, 3)]);
        due.clear();
        wheel.advance(now + Duration::from_secs(20), &mut due);
        assert!(due.is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn poller_wake_and_readiness() {
        use std::io::Write as _;
        use std::os::unix::io::AsRawFd;

        let poller = Poller::new().expect("poller");
        let mut events = Vec::new();

        // A wake from another thread interrupts an indefinite wait.
        let waker = std::sync::Arc::new(poller);
        let w = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake();
        });
        waker.wait(None, &mut events).expect("wait");
        handle.join().unwrap();
        assert!(events.is_empty(), "wake events are internal: {events:?}");

        // A registered socket reports readability once (one-shot), then
        // stays silent until re-armed.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        waker
            .add(server_side.as_raw_fd(), 42, true)
            .expect("register");
        client.write_all(b"ping").unwrap();
        events.clear();
        waker
            .wait(Some(Duration::from_secs(2)), &mut events)
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        events.clear();
        waker
            .wait(Some(Duration::from_millis(50)), &mut events)
            .expect("wait");
        assert!(events.is_empty(), "one-shot fd fired twice: {events:?}");
        waker.rearm(server_side.as_raw_fd(), 42).expect("rearm");
        events.clear();
        waker
            .wait(Some(Duration::from_secs(2)), &mut events)
            .expect("wait");
        assert_eq!(events.len(), 1, "re-armed fd must fire again");
    }

    #[cfg(unix)]
    #[test]
    fn write_interest_fires_only_when_buffer_drains() {
        use std::io::{Read as _, Write as _};
        use std::os::unix::io::AsRawFd;

        let poller = Poller::new().expect("poller");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        // Stuff the send buffer until the kernel pushes back.
        let chunk = [0u8; 64 * 1024];
        let mut queued = 0usize;
        loop {
            match (&server_side).write(&chunk) {
                Ok(n) => queued += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("fill: {e}"),
            }
        }
        poller
            .add_writable(server_side.as_raw_fd(), 7)
            .expect("add_writable");
        let mut events = Vec::new();
        poller
            .wait(Some(Duration::from_millis(100)), &mut events)
            .expect("wait");
        assert!(
            events.is_empty(),
            "writable fired on a full buffer: {events:?}"
        );

        // Drain from the client side; write readiness must now surface.
        let mut rest = vec![0u8; queued];
        client.read_exact(&mut rest).unwrap();
        poller
            .wait(Some(Duration::from_secs(5)), &mut events)
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
    }
}
