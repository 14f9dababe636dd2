//! Dependency-free blocking HTTP/1.1 endpoint serving the live telemetry
//! surface: `std::net::TcpListener` + a thread per connection, no new
//! crates (consistent with the vendored-shim policy). Embeddable behind
//! any probe via `--serve <addr>`; `ookamiserve` wraps it standalone.
//!
//! Endpoint contract (all `GET`, anything else is `405`):
//!
//! | path                   | body                                        |
//! |------------------------|---------------------------------------------|
//! | `/`                    | plain-text index of the endpoints           |
//! | `/metrics`             | Prometheus text ([`super::prometheus`])     |
//! | `/profile`             | collapsed stacks ([`spantree`])             |
//! | `/profile?format=json` | `ookami-profile-v1` JSON tree               |
//! | `/trace`               | Chrome-trace JSON of the current session    |
//! | `/samples`             | `ookami-samples-v1` sampler ring JSON       |
//! | `/bench/<name>`        | committed `BENCH_<name>.json`, 404 if absent|
//!
//! Every body is generated at request time from the live registries, so a
//! dashboard polling `/metrics` watches the run move. The server works
//! whatever the `obs` switch says — with it off the documents are just
//! empty-ish (but still parse, which `tests/obs_switch_off.rs` pins).

use super::spantree;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Handle to a running server; stops (flag + wake-up connect) and joins
/// the accept thread on [`ServerHandle::stop`] or drop.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the blocked accept loop and join it.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept so the thread observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    /// Stop accepting and join the accept thread.
    pub fn stop(mut self) {
        self.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` (e.g. `127.0.0.1:9178`, port 0 for ephemeral) and serve the
/// telemetry endpoints until the handle is stopped. `/bench/<name>` reads
/// from the process's current directory.
pub fn spawn(addr: &str) -> std::io::Result<ServerHandle> {
    let dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    spawn_in(addr, dir)
}

/// [`spawn`], with an explicit directory for `/bench/<name>` lookups.
pub fn spawn_in(addr: &str, bench_dir: PathBuf) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("ookamiserve-accept".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let dir = bench_dir.clone();
                // Each connection is a timeline actor: the fork edge on
                // the accept thread orders the handler's response write
                // after the accept, so the race detector can prove
                // connection threads never collide on shared state.
                let actor = crate::timeline::next_actor_id();
                crate::timeline::actor_fork(actor);
                let _ = std::thread::Builder::new()
                    .name("ookamiserve-conn".to_string())
                    .spawn(move || {
                        crate::timeline::actor_write(actor, 0, 1);
                        let _ = handle(stream, &dir);
                    });
            }
        })?;
    Ok(ServerHandle {
        addr: local,
        stop,
        join: Some(join),
    })
}

fn handle(mut stream: TcpStream, bench_dir: &std::path::Path) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    // Read the request head (we never need a body for GET).
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("/");
    let (status, content_type, body) = if method == "GET" {
        respond(target, bench_dir)
    } else {
        (
            405,
            "text/plain",
            "method not allowed: telemetry endpoints are GET-only\n".to_string(),
        )
    };
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn respond(target: &str, bench_dir: &std::path::Path) -> (u16, &'static str, String) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/" => (
            200,
            "text/plain",
            "ookami live telemetry\n\
             /metrics              Prometheus text exposition\n\
             /profile              collapsed flamegraph stacks\n\
             /profile?format=json  ookami-profile-v1 span tree\n\
             /trace                Chrome-trace JSON (current session)\n\
             /samples              ookami-samples-v1 sampler ring\n\
             /bench/<name>         committed BENCH_<name>.json\n"
                .to_string(),
        ),
        "/metrics" => (200, "text/plain; version=0.0.4", super::prometheus()),
        "/profile" => {
            let tree = spantree::profile();
            if query.split('&').any(|kv| kv == "format=json") {
                (200, "application/json", tree.to_json())
            } else {
                (200, "text/plain", tree.collapsed())
            }
        }
        "/trace" => (
            200,
            "application/json",
            crate::timeline::export_chrome_trace(),
        ),
        "/samples" => (200, "application/json", super::active_samples_json()),
        p => {
            if let Some(name) = p.strip_prefix("/bench/") {
                let clean = name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                if clean && !name.is_empty() {
                    let file = bench_dir.join(format!("BENCH_{name}.json"));
                    if let Ok(body) = std::fs::read_to_string(&file) {
                        return (200, "application/json", body);
                    }
                }
                return (404, "text/plain", format!("no such baseline: {name}\n"));
            }
            (404, "text/plain", format!("no such endpoint: {path}\n"))
        }
    }
}

/// Minimal blocking HTTP GET against a local server: returns
/// `(status, body)`. The in-repo client `ookamiserve --selfcheck` and
/// `scripts/check.sh` use instead of curl.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: ookami\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split_ascii_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed HTTP response head"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Json;

    fn get(handle: &ServerHandle, path: &str) -> (u16, String) {
        http_get(handle.addr(), path).expect("request succeeds")
    }

    #[test]
    fn endpoints_serve_parseable_documents_in_both_modes() {
        let server = spawn_in(
            "127.0.0.1:0",
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf(),
        )
        .expect("bind ephemeral port");

        let (status, metrics) = get(&server, "/metrics");
        assert_eq!(status, 200);
        super::super::validate_prometheus(&metrics).expect("/metrics validates");
        assert!(metrics.contains("ookami_events_total"));

        let (status, collapsed) = get(&server, "/profile");
        assert_eq!(status, 200);
        spantree::parse_collapsed(&collapsed).expect("/profile parses as collapsed stacks");

        let (status, profile_json) = get(&server, "/profile?format=json");
        assert_eq!(status, 200);
        let v = Json::parse(&profile_json).expect("/profile?format=json parses");
        assert!(matches!(v.get("roots"), Some(Json::Arr(_))));

        let (status, trace) = get(&server, "/trace");
        assert_eq!(status, 200);
        let v = Json::parse(&trace).expect("/trace parses");
        assert!(matches!(v.get("traceEvents"), Some(Json::Arr(_))));

        let (status, samples) = get(&server, "/samples");
        assert_eq!(status, 200);
        let v = Json::parse(&samples).expect("/samples parses");
        assert_eq!(
            v.get("schema"),
            Some(&Json::Str("ookami-samples-v1".to_string()))
        );

        let (status, index) = get(&server, "/");
        assert_eq!(status, 200);
        assert!(index.contains("/metrics"));

        assert_eq!(get(&server, "/definitely-not-a-route").0, 404);
        assert_eq!(get(&server, "/bench/no_such_baseline").0, 404);
        assert_eq!(get(&server, "/bench/../escape").0, 404);

        server.stop();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let server = spawn_in("127.0.0.1:0", PathBuf::from(".")).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .expect("send");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read");
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 405"), "got: {text}");
    }
}
