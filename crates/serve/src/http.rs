//! A minimal, bounded HTTP/1.1 subset over [`std::io`] — no crates.io
//! in this environment, so the daemon speaks exactly the slice of the
//! protocol it needs: one request per connection (`Connection: close`),
//! `Content-Length` bodies, percent-encoded paths and query strings.
//!
//! Every size is bounded *before* allocation: request/header lines at
//! [`MAX_LINE`] bytes, header count at [`MAX_HEADERS`], and the body at
//! the caller's limit — an oversized or malformed request is rejected
//! with a typed [`HttpError`] that maps onto a 4xx status, never an
//! unbounded read.

use std::io::{BufRead, Write};

/// Longest accepted request or header line, in bytes (excluding CRLF).
pub const MAX_LINE: usize = 8 * 1024;
/// Most header lines accepted per request.
pub const MAX_HEADERS: usize = 100;

/// Why a request (or a client-side response) could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The first line was not `METHOD TARGET HTTP/1.x`.
    BadRequestLine(String),
    /// A request or header line exceeded [`MAX_LINE`] bytes.
    LineTooLong,
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// A header line without `:`, or non-UTF-8 bytes in a line.
    BadHeader(String),
    /// `Content-Length` present but unparsable.
    BadContentLength(String),
    /// The declared body length exceeds the server's limit.
    BodyTooLarge {
        /// Declared `Content-Length`.
        length: usize,
        /// The configured acceptance limit.
        limit: usize,
    },
    /// The peer closed the connection mid-request.
    UnexpectedEof,
    /// Underlying transport error.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequestLine(l) => write!(f, "malformed request line: {l}"),
            HttpError::LineTooLong => write!(f, "request line or header exceeds {MAX_LINE} bytes"),
            HttpError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            HttpError::BadHeader(h) => write!(f, "malformed header: {h}"),
            HttpError::BadContentLength(v) => write!(f, "bad content-length: {v}"),
            HttpError::BodyTooLarge { length, limit } => {
                write!(f, "body of {length} bytes exceeds the {limit}-byte limit")
            }
            HttpError::UnexpectedEof => write!(f, "connection closed mid-request"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl HttpError {
    /// The HTTP status this parse failure maps onto.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::LineTooLong | HttpError::TooManyHeaders => 431,
            _ => 400,
        }
    }
}

/// One parsed request: method, decoded path, decoded query pairs, and
/// the raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Percent-decoded path, query stripped.
    pub path: String,
    /// Percent-decoded `key=value` pairs from the query string, in
    /// order; a bare `key` decodes to an empty value.
    pub query: Vec<(String, String)>,
    /// Raw body (`Content-Length` bytes; empty without the header).
    pub body: Vec<u8>,
}

/// Reads one line (terminated by `\n`, `\r\n` accepted) with a hard
/// byte cap, so a hostile peer cannot grow a buffer unboundedly.
fn read_line_bounded<R: BufRead>(r: &mut R, max: usize) -> Result<String, HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => return Err(HttpError::UnexpectedEof),
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if buf.len() >= max {
                    return Err(HttpError::LineTooLong);
                }
                buf.push(byte[0]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| HttpError::BadHeader("non-UTF-8 bytes".into()))
}

/// Percent-decoding; `+` becomes a space only in query components.
fn percent_decode(s: &str, plus_as_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h).ok().and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encodes one query key or value (everything but unreserved
/// characters), the inverse of the server's decoding — clients use it
/// to build `?key=value` overrides.
#[must_use]
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            _ => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("%{b:02X}"));
            }
        }
    }
    out
}

/// Splits a raw query string into decoded pairs.
fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
            None => (percent_decode(kv, true), String::new()),
        })
        .collect()
}

/// Parses one request from `r`, accepting at most `max_body` body
/// bytes.
///
/// # Errors
///
/// Any [`HttpError`]; the server maps it to a status via
/// [`HttpError::status`] and closes the connection.
pub fn parse_request<R: BufRead>(r: &mut R, max_body: usize) -> Result<Request, HttpError> {
    let line = read_line_bounded(r, MAX_LINE)?;
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::BadRequestLine(line.clone())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequestLine(line.clone()));
    }
    if method.is_empty() || !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(HttpError::BadRequestLine(line.clone()));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if !raw_path.starts_with('/') {
        return Err(HttpError::BadRequestLine(line.clone()));
    }

    let mut content_length: Option<usize> = None;
    for _ in 0..MAX_HEADERS {
        let h = read_line_bounded(r, MAX_LINE)?;
        if h.is_empty() {
            let body = match content_length {
                None | Some(0) => Vec::new(),
                Some(len) => {
                    if len > max_body {
                        return Err(HttpError::BodyTooLarge { length: len, limit: max_body });
                    }
                    let mut body = vec![0u8; len];
                    r.read_exact(&mut body).map_err(|e| {
                        if e.kind() == std::io::ErrorKind::UnexpectedEof {
                            HttpError::UnexpectedEof
                        } else {
                            HttpError::Io(e.to_string())
                        }
                    })?;
                    body
                }
            };
            return Ok(Request {
                method: method.to_string(),
                path: percent_decode(raw_path, false),
                query: parse_query(raw_query),
                body,
            });
        }
        let (name, value) = h.split_once(':').ok_or_else(|| HttpError::BadHeader(h.clone()))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            let v = value.trim();
            content_length =
                Some(v.parse().map_err(|_| HttpError::BadContentLength(v.to_string()))?);
        }
    }
    Err(HttpError::TooManyHeaders)
}

/// Reason phrase for the handful of statuses the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Appends `body` to the assembled `head` and hands the whole message
/// to the transport in a single `write_all`: a message that fits the
/// socket buffer is one `write(2)` and one TCP segment train instead
/// of one small segment per header line.
fn send_message<W: Write>(w: &mut W, mut head: Vec<u8>, body: &[u8]) -> std::io::Result<()> {
    head.extend_from_slice(body);
    w.write_all(&head)?;
    w.flush()
}

/// Writes a complete response with `Content-Length` framing and
/// `Connection: close`, plus any extra headers, in one write
/// (`send_message`).
///
/// # Errors
///
/// Propagates transport errors (the caller just drops the connection).
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut msg: Vec<u8> = Vec::with_capacity(160 + body.len());
    write!(
        msg,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    )?;
    for (k, v) in extra {
        write!(msg, "{k}: {v}\r\n")?;
    }
    msg.extend_from_slice(b"\r\n");
    send_message(w, msg, body)
}

/// Writes a complete request (client side) the same way: one buffer,
/// one write.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_request<W: Write>(
    w: &mut W,
    method: &str,
    target: &str,
    host: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut msg: Vec<u8> = Vec::with_capacity(128 + target.len() + body.len());
    write!(
        msg,
        "{method} {target} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    send_message(w, msg, body)
}

/// One parsed response (client side).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes (`Content-Length` framed, or read to EOF).
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy — our own bodies are always valid).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response: status line, headers, then `Content-Length`
/// bytes (or everything to EOF if the header is absent).
///
/// # Errors
///
/// Any [`HttpError`] — the client surfaces it as a request failure.
pub fn read_response<R: BufRead>(r: &mut R) -> Result<Response, HttpError> {
    let line = read_line_bounded(r, MAX_LINE)?;
    let mut parts = line.split_whitespace();
    let status: u16 = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => {
            code.parse().map_err(|_| HttpError::BadRequestLine(line.clone()))?
        }
        _ => return Err(HttpError::BadRequestLine(line.clone())),
    };
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        if headers.len() > MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
        }
        let h = read_line_bounded(r, MAX_LINE)?;
        if h.is_empty() {
            break;
        }
        let (name, value) = h.split_once(':').ok_or_else(|| HttpError::BadHeader(h.clone()))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            let v = value.trim();
            content_length =
                Some(v.parse().map_err(|_| HttpError::BadContentLength(v.to_string()))?);
        }
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let mut body = Vec::new();
    match content_length {
        Some(len) => {
            body.resize(len, 0);
            r.read_exact(&mut body).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    HttpError::UnexpectedEof
                } else {
                    HttpError::Io(e.to_string())
                }
            })?;
        }
        None => {
            r.read_to_end(&mut body).map_err(|e| HttpError::Io(e.to_string()))?;
        }
    }
    Ok(Response { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn req(text: &str) -> Result<Request, HttpError> {
        parse_request(&mut Cursor::new(text.as_bytes().to_vec()), 1024)
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let r = req("POST /jobs?oracle=cd&iterations=3 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/jobs");
        assert_eq!(
            r.query,
            vec![("oracle".into(), "cd".into()), ("iterations".into(), "3".into())]
        );
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn percent_decoding_applies_to_path_and_query() {
        let r = req("GET /jobs/1%2Fresult?k=a%20b&flag HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/jobs/1/result");
        assert_eq!(r.query, vec![("k".into(), "a b".into()), ("flag".into(), String::new())]);
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert!(matches!(req("GARBAGE\r\n\r\n"), Err(HttpError::BadRequestLine(_))));
        assert!(matches!(req("GET /x HTTP/2 extra\r\n\r\n"), Err(HttpError::BadRequestLine(_))));
        assert!(matches!(req("get /x HTTP/1.1\r\n\r\n"), Err(HttpError::BadRequestLine(_))));
        assert!(matches!(req("GET x HTTP/1.1\r\n\r\n"), Err(HttpError::BadRequestLine(_))));
    }

    #[test]
    fn rejects_oversized_bodies_before_reading_them() {
        let e = req("POST /jobs HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert_eq!(e, HttpError::BodyTooLarge { length: 9999, limit: 1024 });
        assert_eq!(e.status(), 413);
    }

    #[test]
    fn rejects_truncated_bodies_and_overlong_lines() {
        assert_eq!(
            req("POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"),
            Err(HttpError::UnexpectedEof)
        );
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 10));
        assert_eq!(req(&long), Err(HttpError::LineTooLong));
    }

    /// Counts `write` calls: the one-segment contract of both writers.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_reaches_the_transport_in_one_write() {
        let mut w = CountingWriter { writes: 0, bytes: Vec::new() };
        let body = vec![b'x'; 100_000];
        write_response(&mut w, 200, "application/json", &body, &[("X-A", "1"), ("X-B", "2")])
            .unwrap();
        assert_eq!(w.writes, 1, "response head + headers + body must be one write");
        let mut w = CountingWriter { writes: 0, bytes: Vec::new() };
        write_request(&mut w, "POST", "/jobs?iterations=2", "127.0.0.1:7171", &body).unwrap();
        assert_eq!(w.writes, 1, "request head + body must be one write");
        // and what was written is what the server parser reads back
        let r = parse_request(&mut Cursor::new(w.bytes), 1 << 20).unwrap();
        assert_eq!((r.method.as_str(), r.path.as_str()), ("POST", "/jobs"));
        assert_eq!(r.query, vec![("iterations".into(), "2".into())]);
        assert_eq!(r.body, body);
    }

    #[test]
    fn response_round_trips_through_the_client_reader() {
        let mut wire = Vec::new();
        write_response(&mut wire, 201, "application/json", b"{\"job\": 7}", &[("X-Test", "yes")])
            .unwrap();
        let resp = read_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(resp.header("x-test"), Some("yes"));
        assert_eq!(resp.text(), "{\"job\": 7}");
    }
}
