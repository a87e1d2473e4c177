//! A minimal HTTP/1.1 client for the looking-glass user (keep-alive GETs)
//! and the live-stream user (one chunked NDJSON response, read line by
//! line as it arrives).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One response.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// A keep-alive client that reconnects whenever the server closes.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened so far.
    pub connects: u64,
}

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// Opens the connection now, if none is open.
    pub fn connect(&mut self) -> std::io::Result<()> {
        if self.conn.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(s));
        }
        Ok(())
    }

    /// Issues `GET target` and reads the whole response.
    pub fn get(&mut self, target: &str) -> std::io::Result<Reply> {
        self.connect()?;
        let r = self.exchange(target);
        if r.is_err() {
            self.conn = None;
        }
        r
    }

    fn exchange(&mut self, target: &str) -> std::io::Result<Reply> {
        let conn = self.conn.as_mut().expect("connected");
        let request = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
        conn.get_mut().write_all(request.as_bytes())?;
        let (status, headers) = read_head(conn)?;
        let len: usize = header(&headers, "content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("response without Content-Length"))?;
        let mut body = vec![0u8; len];
        conn.read_exact(&mut body)?;
        if header(&headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.conn = None;
        }
        Ok(Reply { status, body })
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Reads a status line and headers (names lowercased).
fn read_head(r: &mut impl BufRead) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let l = line.trim_end();
        if l.is_empty() {
            return Ok((status, headers));
        }
        if let Some((k, v)) = l.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
}

/// Opens a streaming GET and returns the reader positioned at the first
/// chunk, after checking for a chunked `200`.
pub fn open_stream(addr: SocketAddr, target: &str) -> std::io::Result<BufReader<TcpStream>> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    s.write_all(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut r = BufReader::with_capacity(1 << 16, s);
    let (status, headers) = read_head(&mut r)?;
    if status != 200 || header(&headers, "transfer-encoding") != Some("chunked") {
        return Err(bad("stream did not open as a chunked 200"));
    }
    Ok(r)
}

/// Reads a chunked body to its end, calling `on_line` for every complete
/// `\n`-terminated line with the instant the read that completed it
/// returned.
pub fn read_lines(
    r: &mut impl BufRead,
    mut on_line: impl FnMut(&[u8], Instant),
) -> std::io::Result<()> {
    let mut partial: Vec<u8> = Vec::new();
    let mut size_line = String::new();
    loop {
        size_line.clear();
        if r.read_line(&mut size_line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let size =
            usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad("malformed chunk size"))?;
        if size == 0 {
            return Ok(());
        }
        let start = partial.len();
        partial.resize(start + size + 2, 0);
        r.read_exact(&mut partial[start..])?;
        let at = Instant::now();
        partial.truncate(start + size); // drop the chunk's CRLF
        while let Some(nl) = partial.iter().position(|&b| b == b'\n') {
            on_line(&partial[..nl], at);
            partial.drain(..=nl);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dechunks_lines_across_chunk_boundaries() {
        let body = b"6\r\n{\"a\":1\r\n5\r\n}\n{\"b\r\n4\r\n\":2}\r\n1\r\n\n\r\n0\r\n\r\n";
        let mut r = std::io::Cursor::new(&body[..]);
        let mut lines = Vec::new();
        read_lines(&mut r, |l, _| {
            lines.push(String::from_utf8_lossy(l).into_owned())
        })
        .unwrap();
        assert_eq!(lines, vec!["{\"a\":1}", "{\"b\":2}"]);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut r = std::io::Cursor::new(&b"3\r\nab\n\r\n"[..]);
        assert!(read_lines(&mut r, |_, _| {}).is_err());
    }
}
