//! A zero-dependency HTTP/1.1 front end over the epoch-published snapshot.
//!
//! `std` only: one shared [`TcpListener`] and a small fixed pool of reader
//! threads that each block in `accept` concurrently — the kernel
//! load-balances incoming connections across the pool, so there is no
//! user-space dispatch queue (and no lock) in front of the readers.
//! Each worker owns one epoch [`Reader`](crate::epoch::Reader) slot;
//! answering a query is
//! pin → read → unpin against the immutable [`ServeSnapshot`], never a
//! `Mutex`/`RwLock`.
//!
//! Endpoints (all `GET`, JSON unless noted):
//!
//! | path | answer |
//! |------|--------|
//! | `/candidates?id=N` | the retained partners of profile N |
//! | `/topk?id=N&k=K` | the K heaviest partners of N (default 10) |
//! | `/stats` | corpus + serving counters at the current seq |
//! | `/metrics` | Prometheus text exposition (commit + serve families) |
//!
//! Every snapshot-backed response carries the `seq` it was answered at —
//! one pin per request, so a response never mixes two versions.

use crate::epoch::Epoch;
use crate::metrics::{ServeMetrics, ServeTotals};
use crate::snapshot::ServeSnapshot;
use blast_obs::trace::JsonObject;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a reader thread needs to answer queries.
#[derive(Clone)]
pub struct ServeState {
    /// The epoch the writer publishes snapshots into.
    pub epoch: Arc<Epoch<ServeSnapshot>>,
    /// Shared serve-side metric handles (lock-free recording).
    pub metrics: ServeMetrics,
    /// Whether the writer's ingest has drained (surfaced in `/stats`).
    pub ingest_done: Arc<AtomicBool>,
}

/// A running server: the listener address plus the worker pool handles.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// `readers` worker threads. Fails when the bind fails or when more
    /// epoch reader slots are requested than exist.
    pub fn start(state: ServeState, addr: &str, readers: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let listener = Arc::new(listener);
        let shutdown = Arc::new(AtomicBool::new(false));
        let readers = readers.max(1);
        let mut workers = Vec::with_capacity(readers);
        for _ in 0..readers {
            let reader = state
                .epoch
                .register()
                .ok_or_else(|| std::io::Error::other("epoch reader slots exhausted"))?;
            let listener = Arc::clone(&listener);
            let shutdown = Arc::clone(&shutdown);
            let state = state.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(&listener, &shutdown, &state, reader);
            }));
        }
        Ok(Server {
            addr: local,
            shutdown,
            workers,
        })
    }

    /// The bound address (the ephemeral port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes every worker, and joins the pool.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // One wake-up connection per worker: each blocked `accept` returns
        // once, sees the flag, and exits.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("readers", &self.workers.len())
            .finish()
    }
}

/// One worker: accept → serve the connection (keep-alive) → repeat.
fn worker_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    state: &ServeState,
    mut reader: crate::epoch::Reader<ServeSnapshot>,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = serve_connection(stream, shutdown, state, &mut reader);
    }
}

/// Serves one keep-alive connection until the peer closes, asks to close,
/// or the server shuts down.
fn serve_connection(
    stream: TcpStream,
    shutdown: &AtomicBool,
    state: &ServeState,
    reader: &mut crate::epoch::Reader<ServeSnapshot>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_nodelay(true)?;
    let mut input = BufReader::new(stream.try_clone()?);
    let mut output = stream;
    loop {
        let request = match read_request(&mut input, shutdown) {
            Ok(Head::Request(r)) => r,
            Ok(Head::Closed) => return Ok(()),
            Ok(Head::Refused(status, message)) => {
                write_response(&mut output, &Response::error(status, message), true)?;
                // Send FIN behind the reply, then discard what the peer
                // already sent: closing over unread input would reset the
                // connection under the reply.
                output.shutdown(Shutdown::Write)?;
                let _ = std::io::copy(&mut input.take(MAX_DRAIN_BYTES), &mut std::io::sink());
                return Ok(());
            }
            Err(e) if would_block(&e) => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(_) => return Ok(()),
        };
        let response = route(&request, state, reader);
        write_response(&mut output, &response, request.close)?;
        if request.close {
            return Ok(());
        }
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A parsed request line (the only parts this server needs).
struct Request {
    method: String,
    path: String,
    query: String,
    close: bool,
}

/// Longest request or header line accepted, line terminator included.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most header lines accepted in one request head.
const MAX_HEADERS: usize = 100;
/// Largest `Content-Length` body accepted (and discarded: no endpoint
/// reads a body).
const MAX_BODY_BYTES: u64 = 64 * 1024;
/// Most bytes discarded from the peer before closing a refused request.
const MAX_DRAIN_BYTES: u64 = 1 << 20;

/// What reading one request head produced.
enum Head {
    Request(Request),
    /// The peer closed the connection, possibly mid-head.
    Closed,
    /// A request answered with this error status and closed: a line over
    /// [`MAX_LINE_BYTES`] or more than [`MAX_HEADERS`] headers (431), a
    /// body over [`MAX_BODY_BYTES`] (413), an unreadable `Content-Length`
    /// (400) or any `Transfer-Encoding` (501).
    Refused(u16, &'static str),
}

const HEAD_TOO_LARGE: Head = Head::Refused(431, "request head too large");

/// Reads one request head and discards its `Content-Length` body, so the
/// next request on the connection starts where this one ends. Read
/// timeouts retry (until shutdown) without losing the bytes already read.
fn read_request(input: &mut BufReader<TcpStream>, shutdown: &AtomicBool) -> std::io::Result<Head> {
    let mut line = Vec::new();
    if let Err(end) = read_line(input, &mut line, shutdown)? {
        return Ok(end);
    }
    let request_line = String::from_utf8_lossy(&line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    // Drain headers until the blank line; keep-alive is HTTP/1.1's default.
    let mut close = false;
    let mut body = 0u64;
    let mut headers = 0usize;
    loop {
        if let Err(end) = read_line(input, &mut line, shutdown)? {
            return Ok(end);
        }
        let header = String::from_utf8_lossy(&line);
        let h = header.trim();
        if h.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Ok(HEAD_TOO_LARGE);
        }
        if let Some((name, value)) = h.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
                close = true;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Ok(Head::Refused(501, "Transfer-Encoding is not supported"));
            } else if name.eq_ignore_ascii_case("content-length") {
                body = match value.parse::<u64>() {
                    Ok(n) if n <= MAX_BODY_BYTES => n,
                    Ok(_) => return Ok(Head::Refused(413, "request body too large")),
                    Err(_) => return Ok(Head::Refused(400, "invalid Content-Length")),
                };
            }
        }
    }
    while body > 0 {
        match input.fill_buf() {
            Ok([]) => return Ok(Head::Closed),
            Ok(buffered) => {
                let n = buffered.len().min(body as usize);
                input.consume(n);
                body -= n as u64;
            }
            Err(e) if would_block(&e) && !shutdown.load(Ordering::SeqCst) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Head::Request(Request {
        method,
        path,
        query,
        close,
    }))
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] into `line`
/// (cleared first). `Ok(Err(_))` ends the head early: the peer closed, or
/// the line is too long.
fn read_line(
    input: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> std::io::Result<Result<(), Head>> {
    line.clear();
    loop {
        // `read_until` keeps what it read before an error in `line`, so a
        // timeout mid-line resumes where it stopped.
        let room = (MAX_LINE_BYTES - line.len()) as u64;
        match input.take(room).read_until(b'\n', line) {
            Ok(_) if line.ends_with(b"\n") => return Ok(Ok(())),
            Ok(_) if line.len() >= MAX_LINE_BYTES => return Ok(Err(HEAD_TOO_LARGE)),
            Ok(_) => return Ok(Err(Head::Closed)),
            Err(e) if would_block(&e) && !shutdown.load(Ordering::SeqCst) => continue,
            Err(e) => return Err(e),
        }
    }
}

/// An HTTP response about to be written.
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            JsonObject::new().field_str("error", message).finish(),
        )
    }
}

fn write_response(output: &mut TcpStream, r: &Response, close: bool) -> std::io::Result<()> {
    let reason = match r.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        _ => "Error",
    };
    write!(
        output,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        r.status,
        reason,
        r.content_type,
        r.body.len(),
        if close { "close" } else { "keep-alive" },
        r.body
    )?;
    output.flush()
}

/// The first `name=` parameter of a query string, percent-decoding not
/// included (ids and counts are plain integers).
fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

/// Dispatches one request. The snapshot-backed endpoints pin exactly once.
fn route(
    request: &Request,
    state: &ServeState,
    reader: &mut crate::epoch::Reader<ServeSnapshot>,
) -> Response {
    if request.method != "GET" {
        return Response::error(405, "only GET is supported");
    }
    match request.path.as_str() {
        "/candidates" | "/topk" => {
            let t0 = Instant::now();
            let Some(id) = query_param(&request.query, "id").and_then(|v| v.parse::<u32>().ok())
            else {
                return Response::error(400, "missing or invalid id parameter");
            };
            let top_k = (request.path == "/topk").then(|| {
                query_param(&request.query, "k")
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(10)
            });
            let guard = reader.pin();
            let response = match guard.candidates(id) {
                None => Response::error(404, "unknown profile id"),
                Some(row) => {
                    let listed: Vec<crate::snapshot::Candidate> = match top_k {
                        Some(k) => guard.top_k(id, k),
                        None => row.to_vec(),
                    };
                    let mut items = String::from("[");
                    for (i, c) in listed.iter().enumerate() {
                        if i > 0 {
                            items.push_str(", ");
                        }
                        items.push_str(
                            &JsonObject::new()
                                .field_u64("id", u64::from(c.id))
                                .field_f64("weight", c.weight)
                                .finish(),
                        );
                    }
                    items.push(']');
                    let mut obj = JsonObject::new()
                        .field_u64("seq", guard.seq())
                        .field_u64("id", u64::from(id))
                        .field_bool("live", guard.is_live(id));
                    if let Some(ext) = guard.external_id(id) {
                        obj = obj.field_str("external_id", ext);
                    }
                    let body = obj
                        .field_u64("count", listed.len() as u64)
                        .field_raw("candidates", &items)
                        .finish();
                    Response::json(200, body)
                }
            };
            drop(guard);
            state.metrics.record_query(t0.elapsed().as_secs_f64());
            response
        }
        "/stats" => {
            let guard = reader.pin();
            let (seq, nodes, live, pairs, blocks) = (
                guard.seq(),
                guard.nodes(),
                guard.live(),
                guard.pairs(),
                guard.blocks(),
            );
            drop(guard);
            let totals = ServeTotals::from_snapshot(&state.metrics.snapshot());
            let body = JsonObject::new()
                .field_u64("seq", seq)
                .field_u64("nodes", u64::from(nodes))
                .field_u64("live", u64::from(live))
                .field_u64("pairs", pairs)
                .field_u64("blocks", blocks)
                .field_u64("queries", totals.queries)
                .field_u64("snapshot_swaps", totals.snapshot_swaps)
                .field_i64("stale_epochs", totals.stale_epochs)
                .field_f64("read_p50_secs", totals.read_p50_secs)
                .field_f64("read_p99_secs", totals.read_p99_secs)
                .field_bool("ingest_done", state.ingest_done.load(Ordering::SeqCst))
                .finish();
            Response::json(200, body)
        }
        "/metrics" => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: state.metrics.snapshot().encode_text(),
        },
        _ => Response::error(404, "unknown path"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CommitUpdate, SnapshotBuilder};

    fn test_state() -> ServeState {
        let mut builder = SnapshotBuilder::new();
        let snap = builder.apply(&CommitUpdate {
            seq: 1,
            upserts: vec![
                (0, Arc::from("a")),
                (1, Arc::from("b")),
                (2, Arc::from("c")),
            ],
            added: vec![(0, 1, 2.0), (0, 2, 5.0)],
            blocks: 3,
            ..CommitUpdate::default()
        });
        ServeState {
            epoch: Arc::new(Epoch::new(snap)),
            metrics: ServeMetrics::new(),
            ingest_done: Arc::new(AtomicBool::new(true)),
        }
    }

    /// One blocking HTTP exchange against a running server.
    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .expect("request");
        let mut raw = String::new();
        use std::io::Read as _;
        stream.read_to_string(&mut raw).expect("response");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn endpoints_roundtrip() {
        let state = test_state();
        let server = Server::start(state, "127.0.0.1:0", 2).expect("bind");
        let addr = server.addr();

        let (status, body) = get(addr, "/candidates?id=0");
        assert_eq!(status, 200);
        assert!(blast_obs::trace::is_valid_json(&body), "{body}");
        assert!(body.contains("\"seq\": 1"), "{body}");
        assert!(body.contains("\"count\": 2"), "{body}");
        assert!(body.contains("\"external_id\": \"a\""), "{body}");

        let (status, body) = get(addr, "/topk?id=0&k=1");
        assert_eq!(status, 200);
        assert!(body.contains("\"count\": 1"), "{body}");
        assert!(body.contains("\"id\": 2"), "heaviest partner first: {body}");

        let (status, body) = get(addr, "/stats");
        assert_eq!(status, 200);
        assert!(blast_obs::trace::is_valid_json(&body), "{body}");
        assert!(body.contains("\"pairs\": 2"), "{body}");
        assert!(body.contains("\"ingest_done\": true"), "{body}");

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("blast_serve_queries"), "{body}");

        let (status, _) = get(addr, "/candidates?id=99");
        assert_eq!(status, 404);
        let (status, _) = get(addr, "/candidates");
        assert_eq!(status, 400);
        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let state = test_state();
        let server = Server::start(state, "127.0.0.1:0", 1).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut input = BufReader::new(stream.try_clone().unwrap());
        for _ in 0..3 {
            write!(stream, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            // Read the head, then exactly Content-Length body bytes.
            let mut length = 0usize;
            loop {
                let mut line = String::new();
                input.read_line(&mut line).expect("header");
                let line = line.trim();
                if line.is_empty() {
                    break;
                }
                if let Some((k, v)) = line.split_once(':') {
                    if k.eq_ignore_ascii_case("content-length") {
                        length = v.trim().parse().unwrap();
                    }
                }
            }
            let mut body = vec![0u8; length];
            use std::io::Read as _;
            input.read_exact(&mut body).expect("body");
            assert!(blast_obs::trace::is_valid_json(
                std::str::from_utf8(&body).unwrap()
            ));
        }
        server.shutdown();
    }

    /// Writes `parts` with `pause` between them, then reads the whole
    /// response (the request asks to close) and returns its status.
    fn exchange(addr: SocketAddr, parts: &[&[u8]], pause: Duration) -> u16 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for (i, part) in parts.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(pause);
            }
            stream.write_all(part).expect("request");
        }
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("response");
        raw.split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line")
    }

    #[test]
    fn request_split_across_read_timeouts_is_reassembled() {
        let server = Server::start(test_state(), "127.0.0.1:0", 1).expect("bind");
        // The pause outlasts the server's 200 ms read timeout, mid-line.
        let status = exchange(
            server.addr(),
            &[
                b"GET /st",
                b"ats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            ],
            Duration::from_millis(300),
        );
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn oversized_request_heads_get_431_and_the_worker_moves_on() {
        let server = Server::start(test_state(), "127.0.0.1:0", 1).expect("bind");
        let addr = server.addr();
        let long_line = vec![b'a'; 64 * 1024];
        assert_eq!(exchange(addr, &[&long_line], Duration::ZERO), 431);
        let mut many_headers = b"GET /stats HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            many_headers.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
        }
        many_headers.extend_from_slice(b"\r\n");
        assert_eq!(exchange(addr, &[&many_headers], Duration::ZERO), 431);
        // The single worker is free again.
        assert_eq!(get(addr, "/stats").0, 200);
        server.shutdown();
    }

    /// The status codes of every response in `raw`, in order.
    fn statuses(raw: &str) -> Vec<u16> {
        raw.match_indices("HTTP/1.1 ")
            .filter_map(|(i, _)| raw[i + 9..].get(..3)?.parse().ok())
            .collect()
    }

    #[test]
    fn request_bodies_are_discarded_and_keep_alive_stays_in_sync() {
        let server = Server::start(test_state(), "127.0.0.1:0", 1).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(
                b"POST /stats HTTP/1.1\r\nHost: t\r\nContent-Length: 11\r\n\r\nhello world\
                  GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            .expect("request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("response");
        assert_eq!(statuses(&raw), [405, 200], "{raw}");
        server.shutdown();
    }

    #[test]
    fn oversized_or_unreadable_body_lengths_get_refused_and_closed() {
        let server = Server::start(test_state(), "127.0.0.1:0", 1).expect("bind");
        let addr = server.addr();
        let head = format!(
            "POST /stats HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let body = vec![b'x'; MAX_BODY_BYTES as usize + 1];
        assert_eq!(
            exchange(addr, &[head.as_bytes(), &body], Duration::ZERO),
            413
        );
        let bad = b"POST /stats HTTP/1.1\r\nHost: t\r\nContent-Length: 1x\r\n\r\n";
        assert_eq!(exchange(addr, &[bad], Duration::ZERO), 400);
        assert_eq!(get(addr, "/stats").0, 200, "the worker moves on");
        server.shutdown();
    }

    #[test]
    fn transfer_encoding_gets_501_and_close() {
        let server = Server::start(test_state(), "127.0.0.1:0", 1).expect("bind");
        let addr = server.addr();
        let request = b"POST /stats HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
                        5\r\nhello\r\n0\r\n\r\n";
        assert_eq!(exchange(addr, &[request], Duration::ZERO), 501);
        assert_eq!(get(addr, "/stats").0, 200, "the worker moves on");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_the_pool() {
        let server = Server::start(test_state(), "127.0.0.1:0", 4).expect("bind");
        let addr = server.addr();
        server.shutdown();
        // The listener is gone: a fresh connection must fail (or be
        // refused once the socket drains).
        std::thread::sleep(Duration::from_millis(50));
        assert!(TcpStream::connect(addr).is_err(), "listener closed");
    }
}
