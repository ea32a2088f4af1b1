//! Readiness polling over raw file descriptors: the I/O under the event
//! loop's step machine (`crate::event_loop`), which decides and keeps every
//! deadline; its driver (`server::run_loop`) makes these calls.
//!
//! The paper's PClarens rode on Apache's process-per-connection model; its
//! Figure 4 tops out at tens of clients because every live connection owns
//! a whole process (here: a worker thread) even while idle between
//! keep-alive requests. This module is the piece that breaks that coupling:
//!
//! * [`Poller`] — epoll, the one backend. The server's one instance watches
//!   its listener (level-triggered) and every parked connection socket,
//!   armed **one-shot**: after its event fires the fd stays registered but
//!   disarmed, so a worker owns the socket with no risk of concurrent
//!   events, and re-parking is a cheap re-arm.
//! * A self-pipe **waker** any thread may call (one `write` on a
//!   non-blocking pipe): parks and shutdown wake the loop with it, and each
//!   worker sleeps on its own in a two-fd `poll` (`wait_readable`) beside
//!   the socket it kept, outside the epoll set.
//!
//! Only the loop's thread changes registrations, so no interest-list
//! locking is needed. The system calls sit behind safe functions in
//! `crate::sys`.

use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::os::fd::{AsRawFd, OwnedFd};
use std::time::Duration;

pub use std::os::fd::RawFd;

use crate::sys::{self, EpollEvent, PollFd};

/// Token reserved for the internal wake pipe. Connection tokens are
/// allocated from 0 upward, so the reservation never collides.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// A self-pipe: [`WakePipe::wake`] from any thread leaves its read end
/// readable until its owner calls [`WakePipe::drain`]. Both ends are
/// non-blocking — `wake()` never stalls on a full pipe, and draining never
/// stalls on an empty one — and close-on-exec.
pub(crate) struct WakePipe {
    read: File,
    write: File,
}

impl WakePipe {
    pub(crate) fn new() -> io::Result<WakePipe> {
        let (read, write) = sys::pipe()?;
        Ok(WakePipe {
            read: read.into(),
            write: write.into(),
        })
    }

    /// The end to wait on.
    fn fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    pub(crate) fn wake(&self) {
        // EAGAIN means the pipe already holds unconsumed wake bytes, which
        // is exactly as good as writing another.
        let _ = (&self.write).write(&[1]);
    }

    fn drain(&self) {
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.read).read(&mut buf) {
            if n < buf.len() {
                return; // drained (or EOF)
            }
        }
    }
}

/// Block until `sock` is readable or hung up, `pipe` is woken, or
/// `timeout` passes; `Ok(true)` when the socket is ready. `sock` may be
/// `None` (wait on the pipe alone). A woken pipe is drained.
pub(crate) fn wait_readable(
    sock: Option<RawFd>,
    pipe: &WakePipe,
    timeout: Option<Duration>,
) -> io::Result<bool> {
    // A negative fd is ignored by `poll`.
    let mut fds = [sock.unwrap_or(-1), pipe.fd()].map(|fd| PollFd {
        fd,
        events: sys::POLLIN,
        revents: 0,
    });
    sys::poll_fds(&mut fds, timeout)?;
    if fds[1].revents != 0 {
        pipe.drain();
    }
    Ok(fds[0].revents != 0)
}

/// epoll-backed readiness source with a self-pipe waker.
pub struct Poller {
    epfd: OwnedFd,
    waker: WakePipe,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let poller = Poller {
            epfd: sys::epoll_create()?,
            waker: WakePipe::new()?,
        };
        // The wake pipe is level-triggered and persistent.
        poller.ctl(
            sys::EPOLL_CTL_ADD,
            poller.waker.fd(),
            sys::EPOLLIN,
            WAKE_TOKEN,
        )?;
        Ok(poller)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        sys::epoll_modify(self.epfd.as_raw_fd(), op, fd, events, token)
    }

    /// Register `fd` for readability, level-triggered: the listener.
    pub fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, token)
    }

    /// Arm `fd` one-shot for readability or, for a `writer` (a response
    /// parked mid-write after `EWOULDBLOCK`), writability: added the first
    /// time, re-armed once `registered`. After its event fires the fd stays
    /// registered but disarmed until armed again.
    pub fn arm(&self, fd: RawFd, token: u64, writer: bool, registered: bool) -> io::Result<()> {
        let interest = if writer { sys::EPOLLOUT } else { sys::EPOLLIN };
        let events = interest | sys::EPOLLRDHUP | sys::EPOLLONESHOT;
        let op = if registered {
            sys::EPOLL_CTL_MOD
        } else {
            sys::EPOLL_CTL_ADD
        };
        self.ctl(op, fd, events, token)
    }

    /// Drop a registration, if there is one (closing the fd also does
    /// this implicitly).
    pub fn delete(&self, fd: RawFd) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wake a blocked [`Poller::wait`] from any thread.
    pub fn wake(&self) {
        self.waker.wake();
    }

    /// Wait for events and put the tokens of the ready fds in `out`
    /// (`None` = indefinitely; a timeout is never cut short). Wake-pipe
    /// events are drained and not reported; callers re-check their own
    /// state after every return. A wait that fails still lasts its
    /// timeout, on the wake pipe alone, so a caller that retries does not
    /// spin; with no timeout it returns at once.
    pub fn wait(&self, timeout: Option<Duration>, out: &mut Vec<u64>) -> io::Result<()> {
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        out.clear();
        let n = sys::epoll_wait_into(self.epfd.as_raw_fd(), &mut events, timeout).inspect_err(
            |_| {
                if timeout.is_some() {
                    let _ = wait_readable(None, &self.waker, timeout);
                }
            },
        )?;
        for ev in &events[..n] {
            match ev.data {
                WAKE_TOKEN => self.waker.drain(),
                token => out.push(token),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

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
            .arm(server_side.as_raw_fd(), 42, false, false)
            .expect("register");
        client.write_all(b"ping").unwrap();
        waker
            .wait(Some(Duration::from_secs(2)), &mut events)
            .expect("wait");
        assert_eq!(events, [42]);
        waker
            .wait(Some(Duration::from_millis(50)), &mut events)
            .expect("wait");
        assert!(events.is_empty(), "one-shot fd fired twice: {events:?}");
        waker
            .arm(server_side.as_raw_fd(), 42, false, true)
            .expect("rearm");
        waker
            .wait(Some(Duration::from_secs(2)), &mut events)
            .expect("wait");
        assert_eq!(events.len(), 1, "re-armed fd must fire again");
    }

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
            .arm(server_side.as_raw_fd(), 7, true, false)
            .expect("arm writable");
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
        assert_eq!(events, [7]);
    }

    #[test]
    fn wait_never_ends_before_its_timeout() {
        // epoll counts whole milliseconds: 1.5 ms must become 2, not 1,
        // or the poller wakes before the first deadline and finds nothing due.
        let poller = Poller::new().expect("poller");
        let mut events = Vec::new();
        let timeout = Duration::from_micros(1500);
        for _ in 0..5 {
            let start = Instant::now();
            poller.wait(Some(timeout), &mut events).expect("wait");
            let waited = start.elapsed();
            assert!(waited >= timeout, "returned after {waited:?}");
        }
        assert!(events.is_empty());
    }

    #[test]
    fn wake_pipes_are_not_inherited() {
        // A child spawned beside a live poller must not hold its wake pipe
        // open. `ls -l` shows each fd's target, and a pipe's target names
        // its inode, so a fd number reused in the child cannot fool this.
        let poller = Poller::new().expect("poller");
        let ends = [
            poller.waker.read.as_raw_fd(),
            poller.waker.write.as_raw_fd(),
        ]
        .map(|fd| std::fs::read_link(format!("/proc/self/fd/{fd}")).expect("fd link"));
        let out = std::process::Command::new("sh")
            .args(["-c", "ls -l /proc/self/fd"])
            .output()
            .expect("spawn sh");
        assert!(out.status.success());
        let listing = String::from_utf8_lossy(&out.stdout);
        for end in ends {
            let end = end.to_string_lossy();
            assert!(end.starts_with("pipe:"), "not a pipe: {end}");
            assert!(!listing.contains(&*end), "{end} leaked into\n{listing}");
        }
    }
}
