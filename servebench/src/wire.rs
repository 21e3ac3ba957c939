//! The load generator's side of the socket: one keep-alive HTTP/1.1
//! connection that writes pre-encoded request bytes and reads one
//! `Content-Length`-framed response, digesting the body as it lands so no
//! decoding happens inside the timed window.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest any single response may take before the connection is
/// declared broken (the server's own reply timeout is 30 s).
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A complete HTTP/1.1 `POST` request: head plus body.
#[must_use]
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes =
        format!("POST {path} HTTP/1.1\r\nhost: servebench\r\ncontent-length: {}\r\n\r\n", body.len())
            .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// FNV-1a over the logits part of a `/v1/serve` response body: everything
/// after the first `,`, which skips the per-request `"trace"` id. Two
/// bodies with equal digests carry the same `rows`, `cols` and logits
/// text, and the codec writes every f32 as its shortest round-trip
/// decimal, so equal text means bitwise-equal logits.
#[must_use]
pub fn logits_digest(body: &[u8]) -> u64 {
    let start = body.iter().position(|&b| b == b',').map_or(0, |p| p + 1);
    fnv1a(&body[start..], 0xcbf2_9ce4_8422_2325)
}

/// 64-bit FNV-1a, chained from `state`.
#[must_use]
pub fn fnv1a(bytes: &[u8], mut state: u64) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0100_0000_01b3);
    }
    state
}

/// What the generator keeps of one response.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reply {
    pub status: u16,
    /// `x-mcond-epoch` (0 when absent).
    pub epoch: u64,
    /// `x-mcond-trace` (0 when absent or when the server's sink is off).
    pub trace: u64,
    /// [`logits_digest`] of the body.
    pub digest: u64,
    /// Response size on the wire (head + body).
    pub bytes: usize,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Box<[u8]>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a generous read timeout.
    ///
    /// # Errors
    /// Socket failures.
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Self { stream, buf: Vec::with_capacity(1 << 16), chunk: vec![0u8; 1 << 16].into() })
    }

    /// Sends `request` and reads its response.
    ///
    /// # Errors
    /// Transport failures or a response that breaks HTTP framing.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.call_body(request).map(|(reply, _)| reply)
    }

    /// [`call`](Conn::call), also returning the response body.
    ///
    /// # Errors
    /// Same contract as [`call`](Conn::call).
    pub fn call_body(&mut self, request: &[u8]) -> io::Result<(Reply, &[u8])> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut scanned = 0;
        let head_end = loop {
            if let Some(p) = self.buf[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
                break scanned + p;
            }
            scanned = self.buf.len().saturating_sub(3);
            self.fill()?;
        };
        let mut reply = Reply::default();
        let mut len = 0usize;
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        reply.status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("x-mcond-epoch") {
                reply.epoch = value.parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("x-mcond-trace") {
                reply.trace = value.parse().unwrap_or(0);
            }
        }
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            self.fill()?;
        }
        if self.buf.len() != body_start + len {
            return Err(bad("unexpected bytes after the response"));
        }
        let body = &self.buf[body_start..];
        reply.digest = logits_digest(body);
        reply.bytes = self.buf.len();
        Ok((reply, body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let n = self.stream.read(&mut self.chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"));
        }
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(())
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_skips_the_trace_field() {
        let a = br#"{"trace":0,"rows":1,"cols":2,"logits":[[1,2]]}"#;
        let b = br#"{"trace":917,"rows":1,"cols":2,"logits":[[1,2]]}"#;
        let c = br#"{"trace":0,"rows":1,"cols":2,"logits":[[1,3]]}"#;
        assert_eq!(logits_digest(a), logits_digest(b));
        assert_ne!(logits_digest(a), logits_digest(c));
    }

    #[test]
    fn post_frames_the_body() {
        let r = post("/v1/serve", b"{}");
        assert_eq!(
            r,
            b"POST /v1/serve HTTP/1.1\r\nhost: servebench\r\ncontent-length: 2\r\n\r\n{}".to_vec()
        );
    }
}
