//! The load generator's own HTTP/1.1 keep-alive client: it writes
//! pre-encoded request bytes and reads `content-length` framed responses.
//! Deliberately independent of the repo's RPC clients, so changing or
//! merging those cannot move a benchmark number.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use clarens_pki::{Certificate, Credential, SecureStream};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a secure-channel client presents and trusts.
#[derive(Clone)]
pub struct TlsIdentity {
    pub credential: Credential,
    pub roots: Vec<Certificate>,
}

enum Stream {
    Plain(TcpStream),
    Secure(Box<SecureStream<TcpStream>>),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Plain(s) => s.read(buf),
            Stream::Secure(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Plain(s) => s.write(buf),
            Stream::Secure(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Plain(s) => s.flush(),
            Stream::Secure(s) => s.flush(),
        }
    }
}

/// Status line and framing of one response.
#[derive(Debug, Clone, Copy)]
pub struct Head {
    pub status: u16,
    pub content_length: u64,
    pub keep_alive: bool,
    /// When the first byte of the response arrived.
    pub first_byte: Instant,
}

const BUF_LEN: usize = 128 * 1024;
const MAX_HEAD: usize = 16 * 1024;

pub struct Client {
    stream: Stream,
    /// Read buffer; `buf[start..end]` is received but not yet consumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// A loopback connection without Nagle delay; buffers are the kernel's.
fn open(addr: &str) -> io::Result<TcpStream> {
    let sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    Ok(sock)
}

impl Client {
    /// Connect over plaintext loopback TCP.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Ok(Client::over(Stream::Plain(open(addr)?)))
    }

    /// Connect and run the secure-channel handshake; the server takes the
    /// caller's identity from `tls.credential`.
    pub fn connect_secure(
        addr: &str,
        tls: &TlsIdentity,
        handshake_seed: u64,
    ) -> io::Result<Client> {
        let sock = open(addr)?;
        let now = clarens::testkit::now();
        let mut rng = StdRng::seed_from_u64(handshake_seed);
        let secure = SecureStream::connect(sock, &tls.credential, &tls.roots, now, &mut rng)
            .map_err(|e| bad(&format!("handshake: {e}")))?;
        Ok(Client::over(Stream::Secure(Box::new(secure))))
    }

    fn over(stream: Stream) -> Client {
        Client {
            stream,
            buf: vec![0; BUF_LEN],
            start: 0,
            end: 0,
        }
    }

    /// Send one fully encoded request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)?;
        self.stream.flush()
    }

    /// Read the status line and headers of the next response.
    pub fn read_head(&mut self) -> io::Result<Head> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        let mut first_byte = (self.end > self.start).then(Instant::now);
        let mut scanned = self.start;
        let head_end = loop {
            // Resume the terminator search three bytes back so a `\r\n\r\n`
            // split across reads is still found.
            let from = scanned.saturating_sub(3).max(self.start);
            if let Some(pos) = self.buf[from..self.end]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                break from + pos + 4;
            }
            scanned = self.end;
            if self.end - self.start > MAX_HEAD {
                return Err(bad("response head too large"));
            }
            if self.end == self.buf.len() {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                scanned -= self.start;
                self.start = 0;
            }
            let end = self.end;
            let n = self.stream.read(&mut self.buf[end..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a response head",
                ));
            }
            first_byte.get_or_insert_with(Instant::now);
            self.end += n;
        };
        let head = std::str::from_utf8(&self.buf[self.start..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut content_length = None;
        let mut keep_alive = true;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<u64>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
        self.start = head_end;
        Ok(Head {
            status,
            content_length: content_length.ok_or_else(|| bad("response without content-length"))?,
            keep_alive,
            first_byte: first_byte.expect("a head was read"),
        })
    }

    /// Read a body of `len` bytes. With `keep`, the bytes replace its
    /// contents; without, they are counted and dropped (bulk downloads).
    pub fn read_body(&mut self, len: u64, mut keep: Option<&mut Vec<u8>>) -> io::Result<()> {
        if let Some(body) = keep.as_deref_mut() {
            body.clear();
            body.reserve(len as usize);
        }
        let mut remaining = len;
        let buffered = ((self.end - self.start) as u64).min(remaining) as usize;
        if let Some(body) = keep.as_deref_mut() {
            body.extend_from_slice(&self.buf[self.start..self.start + buffered]);
        }
        self.start += buffered;
        remaining -= buffered as u64;
        if remaining == 0 {
            return Ok(());
        }
        // Everything buffered was consumed; the rest comes off the stream.
        self.start = 0;
        self.end = 0;
        match keep {
            Some(body) => {
                let have = body.len();
                body.resize(have + remaining as usize, 0);
                self.stream.read_exact(&mut body[have..])
            }
            None => {
                while remaining > 0 {
                    let want = (self.buf.len() as u64).min(remaining) as usize;
                    let n = self.stream.read(&mut self.buf[..want])?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-body",
                        ));
                    }
                    remaining -= n as u64;
                }
                Ok(())
            }
        }
    }

    /// One whole exchange, body kept. For set-up and scraping, not for the
    /// measured loop.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.send(request)?;
        let head = self.read_head()?;
        let mut body = Vec::new();
        self.read_body(head.content_length, Some(&mut body))?;
        Ok((head.status, body))
    }
}

/// Encode a request head up to and including the name of the session
/// header, so that `head ++ session id ++ tail` is a complete request.
/// Without `session_header` the head is complete once `\r\n` is appended.
pub fn request_head(
    method: &str,
    target: &str,
    content_type: Option<&str>,
    body_len: Option<usize>,
    session_header: bool,
) -> Vec<u8> {
    let mut head = format!("{method} {target} HTTP/1.1\r\nhost: bench\r\n");
    if let Some(ct) = content_type {
        head.push_str(&format!("content-type: {ct}\r\n"));
    }
    if let Some(len) = body_len {
        head.push_str(&format!("content-length: {len}\r\n"));
    }
    if session_header {
        head.push_str("x-clarens-session: ");
    }
    head.into_bytes()
}

#[cfg(test)]
pub mod testing {
    //! A scripted HTTP server for the measuring code's own tests.
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;
    use std::time::Duration;

    /// Serve `connections` keep-alive connections, answering every request
    /// with `body`; request number `stall_at` (counted per connection, from
    /// 0) is answered only after `stall`.
    pub fn fake_server(
        connections: usize,
        body: &'static [u8],
        stall_at: Option<usize>,
        stall: Duration,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let serve = |sock: std::net::TcpStream| {
                sock.set_nodelay(true).unwrap();
                let mut reader = BufReader::new(sock.try_clone().unwrap());
                let mut sock = sock;
                let mut served = 0usize;
                loop {
                    let mut length = 0usize;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            return;
                        }
                        if line == "\r\n" {
                            break;
                        }
                        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                            length = v.trim().parse().unwrap();
                        }
                    }
                    let mut sink = vec![0; length];
                    reader.read_exact(&mut sink).unwrap();
                    if stall_at == Some(served) {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    let head = format!(
                        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
                        body.len()
                    );
                    if sock.write_all(head.as_bytes()).is_err() || sock.write_all(body).is_err() {
                        return;
                    }
                }
            };
            std::thread::scope(|scope| {
                for _ in 0..connections {
                    let (sock, _) = listener.accept().unwrap();
                    scope.spawn(move || serve(sock));
                }
            });
        });
        (addr, handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_keep_alive_responses_kept_and_discarded() {
        let (addr, server) =
            testing::fake_server(1, b"hello body", None, std::time::Duration::ZERO);
        let mut client = Client::connect(&addr).unwrap();
        let mut request = request_head("POST", "/x", Some("text/plain"), Some(3), false);
        request.extend_from_slice(b"\r\nabc");
        let (status, body) = client.exchange(&request).unwrap();
        assert_eq!((status, body.as_slice()), (200, b"hello body".as_slice()));
        client.send(&request).unwrap();
        let head = client.read_head().unwrap();
        assert_eq!((head.content_length, head.keep_alive), (10, true));
        client.read_body(head.content_length, None).unwrap();
        let (status, body) = client.exchange(&request).unwrap();
        assert_eq!((status, body.as_slice()), (200, b"hello body".as_slice()));
        drop(client);
        server.join().unwrap();
    }
}
