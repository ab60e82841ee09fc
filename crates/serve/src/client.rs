//! A small blocking client for the `hgl serve` protocol.
//!
//! Used by the CLI (`hgl serve --ping` style probes), the bench
//! harness and the test suites; real integrations can speak the JSONL
//! protocol directly from any language.

use crate::proto::{hex_encode, write_frame};
use crate::Json;
use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::time::Duration;

/// A blocking JSONL client over one connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connect to a daemon at `addr` (e.g. `"127.0.0.1:7878"`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader, next_id: 1 })
    }

    /// Set a read timeout for responses (None = block forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send one raw line (no trailing newline needed).
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        write_frame(&mut self.writer, line)
    }

    /// Receive one response line, parsed.
    pub fn recv(&mut self) -> io::Result<Json> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            if !line.trim().is_empty() {
                break;
            }
        }
        Json::parse(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Send a request built from `fields` (op plus extras) with an
    /// auto-assigned numeric id, and wait for its response.
    pub fn request(&mut self, op: &str, extra: &[(&str, Json)]) -> io::Result<Json> {
        let id = self.next_id;
        self.next_id += 1;
        let mut obj = vec![
            ("id".to_string(), Json::Num(id as f64)),
            ("op".to_string(), Json::Str(op.to_string())),
        ];
        for (k, v) in extra {
            obj.push((k.to_string(), v.clone()));
        }
        self.send_line(&Json::Obj(obj).to_string())?;
        // Responses on one connection come back in completion order;
        // with one outstanding request the next line is ours.
        loop {
            let resp = self.recv()?;
            if resp.get("id").and_then(Json::as_u64) == Some(id) {
                return Ok(resp);
            }
        }
    }

    /// Lift a binary image, optionally with a deadline and a full
    /// embedded report.
    pub fn lift(
        &mut self,
        image: &[u8],
        deadline_ms: Option<u64>,
        full: bool,
    ) -> io::Result<Json> {
        let mut extra = vec![("binary", Json::Str(hex_encode(image)))];
        if let Some(ms) = deadline_ms {
            extra.push(("deadline_ms", Json::Num(ms as f64)));
        }
        if full {
            extra.push(("full", Json::Bool(true)));
        }
        self.request("lift", &extra)
    }

    /// Lift + soundness lints.
    pub fn lint(&mut self, image: &[u8], full: bool) -> io::Result<Json> {
        let mut extra = vec![("binary", Json::Str(hex_encode(image)))];
        if full {
            extra.push(("full", Json::Bool(true)));
        }
        self.request("lint", &extra)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<Json> {
        self.request("ping", &[])
    }

    /// Server metrics snapshot.
    pub fn metrics(&mut self) -> io::Result<Json> {
        self.request("metrics", &[])
    }

    /// Ask the daemon to shut down gracefully.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request("shutdown", &[])
    }
}
