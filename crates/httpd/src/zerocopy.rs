//! Zero-copy file-to-socket transfer via `sendfile(2)`.
//!
//! The paper's bulk-data claim is that Clarens "hands network I/O off to
//! the web server" (§2.3); on Linux we can go one step further and hand it
//! to the kernel — `sendfile` moves file pages to the socket without ever
//! touching a userspace buffer. Raw `extern "C"` declaration in the same
//! style as the epoll bindings in `poller.rs`: std already links the
//! platform libc, so no crate dependency is needed.

use std::io;

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    extern "C" {
        // ssize_t sendfile(int out, int in, off_t *offset, size_t count);
        pub fn sendfile(sock_fd: c_int, file_fd: c_int, offset: *mut i64, count: usize) -> isize;
    }
}

/// Is the zero-copy path compiled in on this target?
pub fn available() -> bool {
    cfg!(target_os = "linux")
}

/// Transfer up to `count` bytes of `file_fd` starting at `*offset` into
/// `sock_fd`, advancing `*offset` by the bytes sent. The file's own cursor
/// is never moved (the offset-pointer form), so a parked writer can resume
/// from its saved position.
///
/// Returns `Ok(0)` at end-of-file (the caller treats a premature EOF as a
/// truncated body), `Err(WouldBlock)` when a nonblocking socket's buffer
/// is full, and `Err(Unsupported)` when the kernel refuses this fd pair
/// (EINVAL/ENOSYS — e.g. an exotic filesystem) so the caller can fall back
/// to the buffered copy loop.
#[cfg(target_os = "linux")]
pub fn send_file(sock_fd: i32, file_fd: i32, offset: &mut u64, count: usize) -> io::Result<usize> {
    let mut off = *offset as i64;
    let rc = unsafe { sys::sendfile(sock_fd, file_fd, &mut off, count) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        const EINVAL: i32 = 22;
        const ENOSYS: i32 = 38;
        return Err(match err.raw_os_error() {
            Some(EINVAL) | Some(ENOSYS) => io::Error::new(io::ErrorKind::Unsupported, err),
            _ => err, // EAGAIN surfaces as ErrorKind::WouldBlock
        });
    }
    *offset = off as u64;
    Ok(rc as usize)
}

/// Portable stub: report the path unsupported so callers use the buffered
/// fallback.
#[cfg(not(target_os = "linux"))]
pub fn send_file(
    _sock_fd: i32,
    _file_fd: i32,
    _offset: &mut u64,
    _count: usize,
) -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "sendfile(2) is only wired up on Linux",
    ))
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Read;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn sendfile_moves_bytes_and_offset() {
        let dir = std::env::temp_dir().join(format!("clarens-zerocopy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let file = std::fs::File::open(&path).unwrap();

        // A loopback socket pair: sendfile needs a real socket, a pipe of
        // Vec<u8> won't do.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = std::net::TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();

        let mut offset = 10u64;
        let mut sent = 0usize;
        let want = data.len() - 10;
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            rx.read_to_end(&mut got).unwrap();
            got
        });
        while sent < want {
            let n = send_file(tx.as_raw_fd(), file.as_raw_fd(), &mut offset, want - sent)
                .expect("sendfile on loopback");
            assert!(n > 0);
            sent += n;
        }
        assert_eq!(offset, data.len() as u64);
        drop(tx);
        assert_eq!(reader.join().unwrap(), &data[10..]);
        // The file's own cursor never moved.
        let mut first = [0u8; 1];
        assert_eq!(read_file_cursor(&file, &mut first), 1);
        assert_eq!(first[0], data[0]);
    }

    fn read_file_cursor(mut file: &std::fs::File, buf: &mut [u8]) -> usize {
        file.read(buf).unwrap()
    }
}
