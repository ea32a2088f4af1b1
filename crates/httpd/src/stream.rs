//! The byte stream under every connection, server and client side: a TCP
//! socket, or one end of a Unix socketpair (`UnixStream::pair`).
//!
//! A socketpair is the kernel's own in-memory duplex. It answers
//! `EWOULDBLOCK`, `writev` and `sendfile(2)` as a TCP socket does, so the
//! server's connection code runs over it unchanged and no readiness is
//! modelled. A [`Pipe`](crate::Pipe) serves that way, with no port: the
//! client end of each pair holds the server's end as a connection and
//! drives it on the client's own thread whenever a read or write would
//! block, or on flush.

use std::fs::File;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use crate::server::Pump;
use crate::sys;

/// One connection's bytes.
pub struct Stream {
    sock: Sock,
    /// On the client end of a pipe: the server's end, which this end
    /// drives.
    pub(crate) pump: Option<Box<Pump>>,
}

enum Sock {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// `$body` with `$s` bound to the socket, whichever kind it is.
macro_rules! each {
    ($sock:expr, $s:ident => $body:expr) => {
        match $sock {
            Sock::Tcp($s) => $body,
            Sock::Unix($s) => $body,
        }
    };
}

/// A TCP socket, with Nagle's delay off.
impl From<TcpStream> for Stream {
    fn from(sock: TcpStream) -> Stream {
        sock.set_nodelay(true).ok();
        Stream {
            sock: Sock::Tcp(sock),
            pump: None,
        }
    }
}

impl Stream {
    /// Connect to `addr` over TCP. The addresses it resolves to share
    /// `timeout`, which then bounds every read and write.
    pub(crate) fn connect(addr: &str, timeout: Duration) -> io::Result<Stream> {
        let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
        let each = timeout / addrs.len().max(1) as u32;
        let mut result = Err(io::Error::other(format!("{addr} resolves to no address")));
        for addr in &addrs {
            result = TcpStream::connect_timeout(addr, each);
            if result.is_ok() {
                break;
            }
        }
        let stream = Stream::from(result?);
        stream.set_timeout(timeout);
        Ok(stream)
    }

    /// Two connected non-blocking ends of a socketpair.
    pub(crate) fn pair() -> io::Result<(Stream, Stream)> {
        let (client, server) = UnixStream::pair()?;
        client.set_nonblocking(true)?;
        server.set_nonblocking(true)?;
        let end = |sock| Stream {
            sock: Sock::Unix(sock),
            pump: None,
        };
        Ok((end(client), end(server)))
    }

    /// Bound each blocking read and write by `timeout`. A pipe's client end
    /// never blocks: it answers `TimedOut` once its server has nothing to
    /// say.
    pub(crate) fn set_timeout(&self, timeout: Duration) {
        if let Sock::Tcp(sock) = &self.sock {
            sock.set_read_timeout(Some(timeout)).ok();
            sock.set_write_timeout(Some(timeout)).ok();
        }
    }

    /// Is this idle keep-alive stream still usable? Between exchanges the
    /// peer owes nothing, so anything readable, bytes or EOF, means it
    /// closed the connection (or broke framing); only "would block" is
    /// healthy. A byte read here is lost with the connection it ends.
    pub(crate) fn idle_and_open(&self) -> bool {
        let blocking = self.pump.is_none();
        each!(&self.sock, s => {
            let quiet = s.set_nonblocking(true).is_ok()
                && matches!((&*s).read(&mut [0]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
            s.set_nonblocking(!blocking).is_ok() && quiet
        })
    }

    /// `sendfile(2)`: up to `count` bytes of `file` from `*at`, which
    /// advances by the bytes sent; the file's own cursor never moves, so a
    /// parked writer resumes where it stopped. `Ok(0)` is end of file,
    /// `WouldBlock` a full socket, and `Unsupported` a file the kernel
    /// cannot splice (EINVAL/ENOSYS): copy it instead.
    pub(crate) fn send_file(&self, file: &File, at: &mut u64, count: usize) -> io::Result<usize> {
        let mut offset = *at as i64;
        let sent = sys::send_file(self.as_raw_fd(), file.as_raw_fd(), &mut offset, count);
        *at = offset as u64;
        match sent {
            // EINVAL, ENOSYS
            Err(e) if matches!(e.raw_os_error(), Some(22 | 38)) => {
                Err(io::Error::new(io::ErrorKind::Unsupported, e))
            }
            sent => sent,
        }
    }

    /// Run `op` on the socket. On a pipe's client end a `WouldBlock` first
    /// drives the server end until it parks; one that persists is
    /// `TimedOut`: the server has nothing to say, or to take, until this
    /// end acts.
    fn io<T>(&mut self, mut op: impl FnMut(&mut Sock) -> io::Result<T>) -> io::Result<T> {
        match (op(&mut self.sock), &mut self.pump) {
            (Err(e), Some(pump)) if e.kind() == io::ErrorKind::WouldBlock => {
                pump.drive();
                op(&mut self.sock).map_err(|e| match e.kind() {
                    io::ErrorKind::WouldBlock => io::ErrorKind::TimedOut.into(),
                    _ => e,
                })
            }
            (result, _) => result,
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.io(|sock| each!(sock, s => s.read(buf)))
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.io(|sock| each!(sock, s => s.write(buf)))
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.io(|sock| each!(sock, s => s.write_vectored(bufs)))
    }

    /// Nothing is buffered here; on a pipe's client end, the server's end
    /// takes what was written and answers until it waits on this end.
    fn flush(&mut self) -> io::Result<()> {
        if let Some(pump) = &mut self.pump {
            pump.drive();
        }
        Ok(())
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        each!(&self.sock, s => s.as_raw_fd())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sendfile(2)` moves a file segment into a socketpair as it does into
    /// TCP, and never moves the file's own cursor.
    #[test]
    fn sendfile_moves_bytes_and_offset() {
        let dir = std::env::temp_dir().join(format!("clarens-sendfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let file = File::open(&path).unwrap();

        let (tx, mut rx) = Stream::pair().unwrap();
        let (mut offset, mut got) = (10u64, Vec::new());
        let mut buf = vec![0u8; 64 * 1024];
        while got.len() < data.len() - 10 {
            let left = data.len() - offset as usize;
            match tx.send_file(&file, &mut offset, left) {
                Ok(n) => assert!(n > 0 || left == 0),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("sendfile into a socketpair: {e}"),
            }
            while let Ok(n) = rx.read(&mut buf) {
                got.extend_from_slice(&buf[..n]);
            }
        }
        assert_eq!(offset, data.len() as u64);
        assert_eq!(got, &data[10..]);
        let mut first = [0u8; 1];
        assert_eq!((&file).read(&mut first).unwrap(), 1);
        assert_eq!(first[0], data[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
