//! The open-loop HTTP reader: one client thread, one keep-alive
//! connection, requests due on a fixed schedule.
//!
//! Request `i` is due at `start + i / rate` whatever the server does; when
//! the server stalls, later requests go out late and their latency, timed
//! from when they were due, carries the stall. How late the generator ran
//! is reported on its own. Requests alternate `/candidates?id=` and
//! `/topk?id=&k=10`, with ids uniform over the profiles published so far.
//!
//! A response counts as an error unless it is a 200 with the expected JSON
//! shape, the requested id, and a `seq` that does not go backwards on its
//! connection. Timeouts and I/O failures are errors too. A response
//! carrying `Connection: close` is not an error: the client reconnects and
//! counts the reconnect.

use crate::data::SplitMix64;
use crate::trace::Tracer;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request timeout; a slower answer is an error.
const TIMEOUT: Duration = Duration::from_secs(2);

/// What the reader measured.
#[derive(Debug, Default)]
pub struct ReadStats {
    /// Latency of each request from when it was due, seconds.
    pub latency: Vec<f64>,
    /// Send → complete response, seconds.
    pub service: Vec<f64>,
    /// How late each request was sent, seconds.
    pub late: Vec<f64>,
    pub requests: u64,
    pub errors: u64,
    pub reconnects: u64,
    /// First few error descriptions.
    pub error_samples: Vec<String>,
}

impl ReadStats {
    /// Folds another window's statistics into this one.
    pub fn merge(&mut self, other: &ReadStats) {
        self.latency.extend(&other.latency);
        self.service.extend(&other.service);
        self.late.extend(&other.late);
        self.requests += other.requests;
        self.errors += other.errors;
        self.reconnects += other.reconnects;
        for e in &other.error_samples {
            if self.error_samples.len() < 5 {
                self.error_samples.push(e.clone());
            }
        }
    }
}

/// The reader's settings.
#[derive(Debug, Clone)]
pub struct ReaderConfig {
    pub addr: SocketAddr,
    /// Requests per second.
    pub rate: f64,
    /// Seed of the id sequence.
    pub seed: u64,
    /// Added to the request index to form each span's request id.
    pub request_base: u64,
}

/// Runs the reader on the calling thread until `stop` is set. Profiles
/// `0..published` are queried. Spans named `http.request` go to `tracer`.
fn run(
    config: &ReaderConfig,
    published: &AtomicU32,
    stop: &AtomicBool,
    tracer: &mut Tracer,
) -> ReadStats {
    let mut stats = ReadStats::default();
    let mut rng = SplitMix64(config.seed);
    let mut conn: Option<Connection> = None;
    let start = Instant::now();
    let interval = 1.0 / config.rate;
    for i in 0u64.. {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let due = start + Duration::from_secs_f64(i as f64 * interval);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let n = published.load(Ordering::SeqCst).max(1);
        let id = (rng.next() % u64::from(n)) as u32;
        let target = if i % 2 == 0 {
            format!("/candidates?id={id}")
        } else {
            format!("/topk?id={id}&k=10")
        };
        let span = tracer.start("http.request", 0, config.request_base + i);
        let sent = Instant::now();
        stats.requests += 1;
        stats.late.push((sent - due).as_secs_f64());
        let outcome = match conn.as_mut() {
            Some(c) => c.exchange(&target, id),
            None => match Connection::open(config.addr) {
                Ok(c) => conn.insert(c).exchange(&target, id),
                Err(e) => Err(format!("connect: {e}")),
            },
        };
        let done = Instant::now();
        tracer.end(span);
        stats.latency.push((done - due).as_secs_f64());
        stats.service.push((done - sent).as_secs_f64());
        match outcome {
            Ok(Exchange { close: false }) => {}
            Ok(Exchange { close: true }) => {
                stats.reconnects += 1;
                conn = None;
            }
            Err(e) => {
                stats.errors += 1;
                if stats.error_samples.len() < 5 {
                    stats.error_samples.push(e);
                }
                if conn.is_some() {
                    stats.reconnects += 1;
                }
                conn = None;
            }
        }
    }
    stats
}

/// Spawns [`run`] on its own thread; join the handle after setting `stop`.
pub fn spawn(
    config: ReaderConfig,
    published: Arc<AtomicU32>,
    stop: Arc<AtomicBool>,
    mut tracer: Tracer,
) -> std::thread::JoinHandle<(ReadStats, Tracer)> {
    std::thread::spawn(move || {
        let stats = run(&config, &published, &stop, &mut tracer);
        (stats, tracer)
    })
}

/// A successful request/response exchange.
struct Exchange {
    /// The server asked to close the connection.
    close: bool,
}

/// One keep-alive connection and the last `seq` seen on it.
struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    last_seq: u64,
}

impl Connection {
    fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            last_seq: 0,
        })
    }

    /// Sends one GET and reads and checks its response.
    fn exchange(&mut self, target: &str, id: u32) -> Result<Exchange, String> {
        let request = format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => return Err("connection closed before a response".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("status line: {e}")),
        }
        let status = line.split_whitespace().nth(1).unwrap_or_default();
        let mut length: Option<usize> = None;
        let mut close = false;
        loop {
            let mut header = String::new();
            match self.reader.read_line(&mut header) {
                Ok(0) => return Err("connection closed inside headers".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("headers: {e}")),
            }
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        if length > 16 << 20 {
            return Err(format!("response body of {length} bytes"));
        }
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("body: {e}"))?;
        if status != "200" {
            return Err(format!("status {status} for {target}"));
        }
        let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let seq = check_body(&body, id, target.starts_with("/topk"))
            .map_err(|e| format!("{e} for {target}: {body:.200}"))?;
        if seq < self.last_seq {
            return Err(format!("seq went back from {} to {seq}", self.last_seq));
        }
        self.last_seq = seq;
        Ok(Exchange { close })
    }
}

/// Checks a candidates/top-k answer and returns its `seq`.
fn check_body(body: &str, id: u32, top_k: bool) -> Result<u64, String> {
    if !blast_obs::trace::is_valid_json(body) {
        return Err("invalid JSON".to_string());
    }
    let seq = field_u64(body, "seq").ok_or("no seq")?;
    if field_u64(body, "id") != Some(u64::from(id)) {
        return Err("wrong id".to_string());
    }
    let count = field_u64(body, "count").ok_or("no count")?;
    if !body.contains("\"candidates\": [") {
        return Err("no candidates array".to_string());
    }
    if top_k && count > 10 {
        return Err(format!("top-10 answer with {count} candidates"));
    }
    Ok(seq)
}

/// The first `"name": <integer>` field of a flat JSON object.
fn field_u64(body: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\": ");
    let at = body.find(&key)? + key.len();
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_checks_shape_id_and_seq() {
        let ok = "{\"seq\": 7, \"id\": 3, \"live\": true, \"count\": 1, \"candidates\": [{\"id\": 4, \"weight\": 1.5}]}";
        assert_eq!(check_body(ok, 3, true), Ok(7));
        assert!(check_body(ok, 4, false).is_err(), "wrong id");
        assert!(check_body("{\"seq\": 7}", 3, false).is_err());
        assert!(check_body("not json", 3, false).is_err());
    }

    #[test]
    fn field_reads_the_integer_after_the_key() {
        assert_eq!(field_u64("{\"seq\": 12, \"id\": 5}", "id"), Some(5));
        assert_eq!(field_u64("{\"seq\": 12}", "count"), None);
    }
}
