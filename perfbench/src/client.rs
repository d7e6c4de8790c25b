//! The load generator's HTTP/1.1 client: keep-alive when the server
//! allows it, `Content-Length` and chunked bodies, and an event-stream
//! reader. It is the benchmark's own, so a change to the system's HTTP
//! code never changes how the system is measured.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Read/write deadline for every request; a request that exceeds it
/// counts as a failed operation.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// One response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (chunked bodies decoded).
    pub body: Vec<u8>,
}

impl Response {
    /// The body as text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A client holding at most one connection at a time.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened so far.
    pub connects: u64,
}

struct Head {
    status: u16,
    content_length: Option<usize>,
    chunked: bool,
    close: bool,
}

impl Client {
    /// A client for the server at `addr` (no connection yet).
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            connects: 0,
        }
    }

    fn connect(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, TIMEOUT)?;
            stream.set_read_timeout(Some(TIMEOUT))?;
            stream.set_write_timeout(Some(TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("connection just opened"))
    }

    fn send(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Head> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        let conn = self.connect()?;
        let stream = conn.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        read_head(conn)
    }

    /// Send a request and read the whole response. A kept-alive
    /// connection the server has since closed is reopened once.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        let reused = self.conn.is_some();
        let head = match self.send(method, path, body) {
            Err(_) if reused => {
                self.conn = None;
                self.send(method, path, body)
            }
            sent => sent,
        }
        .inspect_err(|_| self.conn = None)?;
        let conn = self.conn.as_mut().expect("request holds a connection");
        let body = read_body(conn, &head);
        if head.close || body.is_err() {
            self.conn = None;
        }
        let body = body?;
        Ok(Response {
            status: head.status,
            body,
        })
    }

    /// Follow a job's NDJSON event stream to its end; returns the status
    /// code and the last `state` the stream reported.
    pub fn follow_events(&mut self, path: &str) -> std::io::Result<(u16, Option<String>)> {
        if self.conn.is_some() {
            // Streams close their connection; open a fresh one so a
            // stale kept-alive socket cannot eat the request.
            self.conn = None;
        }
        let streamed = self.send("GET", path, b"").and_then(|head| {
            let body = read_body(
                self.conn.as_mut().expect("request holds a connection"),
                &head,
            )?;
            Ok((head.status, body))
        });
        self.conn = None;
        let (status, body) = streamed?;
        let state = String::from_utf8_lossy(&body)
            .lines()
            .rev()
            .find_map(|line| json_str(line, "state"));
        Ok((status, state))
    }
}

fn read_body(conn: &mut BufReader<TcpStream>, head: &Head) -> std::io::Result<Vec<u8>> {
    if head.chunked {
        let mut body = Vec::new();
        while let Some(chunk) = read_chunk(conn)? {
            body.extend_from_slice(&chunk);
        }
        Ok(body)
    } else {
        let mut body = vec![0; head.content_length.unwrap_or(0)];
        conn.read_exact(&mut body)?;
        Ok(body)
    }
}

fn read_line(conn: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = String::new();
    if conn.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(line.trim_end().to_string())
}

fn read_head(conn: &mut BufReader<TcpStream>) -> std::io::Result<Head> {
    let status_line = read_line(conn)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(&format!("bad status line {status_line:?}")))?;
    let mut head = Head {
        status,
        content_length: None,
        chunked: false,
        close: false,
    };
    loop {
        let line = read_line(conn)?;
        if line.is_empty() {
            return Ok(head);
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => head.content_length = value.parse().ok(),
            "transfer-encoding" => head.chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => head.close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
}

/// One chunk of a chunked body; `None` at the terminating chunk.
fn read_chunk(conn: &mut BufReader<TcpStream>) -> std::io::Result<Option<Vec<u8>>> {
    let size_line = read_line(conn)?;
    let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
        .map_err(|_| bad(&format!("bad chunk size {size_line:?}")))?;
    if size == 0 {
        // Trailer section: lines up to the blank one.
        while !read_line(conn)?.is_empty() {}
        return Ok(None);
    }
    let mut chunk = vec![0; size + 2];
    conn.read_exact(&mut chunk)?;
    chunk.truncate(size);
    Ok(Some(chunk))
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// `"field":"value"` from a flat JSON object.
pub fn json_str(json: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\":\"");
    let at = json.find(&needle)? + needle.len();
    Some(json[at..].chars().take_while(|c| *c != '"').collect())
}

/// `"field":<number>` from a flat JSON object (first occurrence).
pub fn json_num(json: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let at = json.find(&needle)? + needle.len();
    let num: String = json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
        .collect();
    num.parse().ok()
}

/// `"field":true|false` from a flat JSON object.
pub fn json_bool(json: &str, field: &str) -> Option<bool> {
    let needle = format!("\"{field}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// The value of an unlabelled sample in Prometheus text exposition.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_fields() {
        let j = r#"{"job":12,"cached":true,"state":"done","total_us":3.5e2}"#;
        assert_eq!(json_num(j, "job"), Some(12.0));
        assert_eq!(json_bool(j, "cached"), Some(true));
        assert_eq!(json_str(j, "state").as_deref(), Some("done"));
        assert_eq!(json_num(j, "total_us"), Some(350.0));
        assert_eq!(json_num(j, "nope"), None);
    }

    #[test]
    fn prometheus_sample() {
        let t =
            "# HELP x y\npgl_engine_terms_applied_total 1234\npgl_engine_terms_applied_total_x 9\n";
        assert_eq!(
            prom_value(t, "pgl_engine_terms_applied_total"),
            Some(1234.0)
        );
    }
}
