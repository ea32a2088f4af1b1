//! Split delivery ≡ whole delivery: pipelined requests — one with a
//! `content-length` body, one with a `chunked` body (a chunk extension and
//! a trailer included), one without a body — cut at any byte offset are
//! answered exactly as the uncut requests are, in plaintext
//! and inside the secure channel (where the cut falls in the sealed
//! bytes). This pins the connection's parking invariant (`conn.rs`): a
//! connection parks only while it holds no complete request and at most a
//! strict prefix of one record, so waiting for the peer is always right.
//!
//! The server is a pipe (`serve_pipe`): each half is written and flushed,
//! which on a pipe's client end drives the server's end until it waits,
//! and only then does the other half follow, so every cut is delivered as
//! its own read, deterministically.

mod common;

use std::io::{self, BufReader, Read, Write};
use std::sync::{Arc, Mutex};

use clarens_httpd::parse::read_response;
use clarens_httpd::{serve_pipe, PeerInfo, Request, Response, ServerConfig, Stream};
use common::{send, Wire, BOTH_MODES};

const PAIR: &[u8] = b"POST /a HTTP/1.1\r\nhost: h\r\ncontent-length: 5\r\n\r\nhello\
                      POST /c HTTP/1.1\r\nhost: h\r\ntransfer-encoding: chunked\r\n\r\n\
                      4;name=value\r\nchun\r\n3\r\nked\r\n0\r\nx-trailer: t\r\n\r\n\
                      GET /b?q=1 HTTP/1.1\r\nhost: h\r\n\r\n";
/// Requests in [`PAIR`].
const REQUESTS: usize = 3;

/// The client end, shared with the test, with writes diverted into `held`
/// while it is `Some`: how the sealed bytes of a request pair are taken,
/// to be put on the wire in two pieces.
struct Tap {
    stream: Arc<Mutex<Stream>>,
    held: Arc<Mutex<Option<Vec<u8>>>>,
}

impl Read for Tap {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.lock().unwrap().read(buf)
    }
}

impl Write for Tap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match &mut *self.held.lock().unwrap() {
            Some(held) => {
                held.extend_from_slice(buf);
                Ok(buf.len())
            }
            None => self.stream.lock().unwrap().write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One decoded response, `date` excepted.
type Answer = (u16, Vec<(String, String)>, Vec<u8>, bool);

fn answers(reader: &mut BufReader<Box<dyn Wire>>) -> Vec<Answer> {
    (0..REQUESTS)
        .map(|_| {
            let response = read_response(reader, usize::MAX).expect("a whole response");
            let headers = response.headers.iter().filter(|(name, _)| *name != "date");
            let headers = headers.map(|(n, v)| (n.to_owned(), v.to_owned())).collect();
            (response.status, headers, response.body, response.keep_alive)
        })
        .collect()
}

#[test]
fn a_pipelined_pair_cut_anywhere_is_answered_as_if_whole() {
    let handler = Arc::new(|request: Request, _: Option<&PeerInfo>| {
        let echo = [request.target.as_bytes(), b" ", &request.body].concat();
        Response::ok("text/plain", echo)
    });
    for mode in BOTH_MODES {
        let pipe = serve_pipe(mode.server_config(ServerConfig::default()), handler.clone());
        let whole = {
            let mut reader = BufReader::new(mode.over(pipe.connect().unwrap()).unwrap());
            send(reader.get_mut().as_mut(), PAIR).unwrap();
            answers(&mut reader)
        };
        assert_eq!(whole[0].2, b"/a hello", "{mode:?}");
        assert_eq!(whole[1].2, b"/c chunked", "{mode:?}");
        assert_eq!(whole[2].2, b"/b?q=1 ", "{mode:?}");

        // One connection: each round seals (under TLS) the pair afresh,
        // puts the bytes before the cut on the wire, lets the server run
        // dry (flush), then sends the rest.
        let raw = Arc::new(Mutex::new(pipe.connect().unwrap()));
        let held = Arc::new(Mutex::new(None));
        let tap = Tap {
            stream: Arc::clone(&raw),
            held: Arc::clone(&held),
        };
        let mut reader = BufReader::new(mode.over(tap).unwrap());
        let mut cut = 1;
        loop {
            *held.lock().unwrap() = Some(Vec::new());
            send(reader.get_mut().as_mut(), PAIR).unwrap();
            let wire = held.lock().unwrap().take().unwrap();
            if cut == wire.len() {
                break;
            }
            raw.lock().unwrap().write_all(&wire[..cut]).unwrap();
            raw.lock().unwrap().flush().unwrap();
            raw.lock().unwrap().write_all(&wire[cut..]).unwrap();
            assert_eq!(answers(&mut reader), whole, "{mode:?}, cut at byte {cut}");
            cut += 1;
        }
    }
}
