//! Resident live-telemetry server, the repo's one serving entry point:
//! runs a continuous exp workload under `obs::region` spans with the
//! timeline and a sampling session active, while serving the current
//! state over HTTP:
//!
//! * `GET /metrics`  — Prometheus text exposition (counters + histograms)
//! * `GET /profile`  — collapsed flamegraph stacks (`?format=json` for the
//!   aggregated span tree)
//! * `GET /trace`    — Chrome `chrome://tracing` / Perfetto JSON
//! * `GET /samples`  — the sampler ring (periodic counter snapshots)
//! * `GET /bench/<name>` — `BENCH_<name>.json` from the working directory
//!
//! ```text
//! cargo run -p ookami-bench --bin ookamiserve --release -- [--addr 127.0.0.1:9178] [--selfcheck]
//! ```
//!
//! `--selfcheck` is the CI entry point: it binds an ephemeral port, runs a
//! bounded smoke-sized workload, fetches every endpoint through the in-repo HTTP
//! client and validates each document with the in-repo parsers
//! ([`ookami_core::telemetry::validate_prometheus`], [`Json::parse`],
//! [`spantree::parse_collapsed`], [`obs::validate_bench_json`]), exiting
//! nonzero on the first malformed response. The server switches the obs
//! layer on before the workload starts; that the same documents stay
//! well-formed with the switch off is pinned by the `obs_switch_off`
//! test of `ookami-core`.

use ookami_bench::probe;
use ookami_core::obs::{self, Json};
use ookami_core::telemetry::{self, serve, spantree};
use ookami_core::timeline;
use ookami_vecmath::exp::{exp_trace, ExpVariant};
use ookami_vecmath::ulp::sample_range;
use std::time::Duration;

const CLI: probe::Cli = probe::Cli {
    help: "ookamiserve — resident /metrics /profile /trace /samples endpoint over a live run\n\
           \n\
           usage: ookamiserve [--addr <host:port>] [--selfcheck]\n\
           \n\
           --addr <host:port>  bind address (default 127.0.0.1:9178; port 0 = ephemeral)\n\
           --selfcheck         bind an ephemeral port, run a bounded smoke-sized workload,\n\
           \x20                   fetch and validate every endpoint, then exit 0/1 (CI mode)",
    switches: &["--selfcheck"],
    options: &["--addr"],
    max_positional: 0,
};

/// Workload iterations of a `--selfcheck` run.
const SELFCHECK_ITERATIONS: usize = 3;

/// One workload iteration: the compiled exp kernel over a fresh slice,
/// bracketed by nested regions so /profile has a tree worth looking at.
fn work_iteration(n: usize, iter: usize) {
    let _root = obs::region("ookamiserve");
    let vl = 8usize;
    let xs = {
        let _span = obs::region("gen_inputs");
        sample_range(-700.0, 700.0, n)
    };
    let t = exp_trace(vl, ExpVariant::FexpaEstrinCorrected);
    let ct = t.compile();
    {
        let _span = obs::region("exec_compiled");
        std::hint::black_box(ct.map(&xs));
    }
    if iter.is_multiple_of(4) {
        let _span = obs::region("exec_replay");
        std::hint::black_box(t.replay_map(&xs));
    }
}

fn fetch_ok(addr: std::net::SocketAddr, path: &str) -> Result<String, String> {
    let (status, body) = serve::http_get(addr, path).map_err(|e| format!("GET {path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {path}: status {status}"));
    }
    Ok(body)
}

/// Fetch every endpoint and validate each document with the matching
/// in-repo parser. Returns the list of failures (empty = all good).
fn selfcheck_endpoints(addr: std::net::SocketAddr) -> Vec<String> {
    let mut errs = Vec::new();
    let mut check = |what: &str, r: Result<(), String>| {
        if let Err(e) = r {
            errs.push(format!("{what}: {e}"));
        } else {
            println!("selfcheck: {what} ok");
        }
    };
    check(
        "/metrics",
        fetch_ok(addr, "/metrics").and_then(|b| telemetry::validate_prometheus(&b)),
    );
    check(
        "/profile",
        fetch_ok(addr, "/profile").and_then(|b| spantree::parse_collapsed(&b).map(|_| ())),
    );
    // JSON documents: each must parse and carry its marker field.
    for (path, key, tag) in [
        ("/profile?format=json", "roots", None),
        ("/trace", "traceEvents", None),
        ("/samples", "schema", Some("ookami-samples-v1")),
    ] {
        let r = fetch_ok(addr, path).and_then(|b| match (Json::parse(&b)?.get(key), tag) {
            (Some(Json::Arr(_)), None) => Ok(()),
            (Some(Json::Str(s)), Some(t)) if s == t => Ok(()),
            _ => Err(format!("missing `{key}`")),
        });
        check(path, r);
    }
    // /bench/<name>: validate any committed baseline that exists; a 404
    // for a never-committed name must stay a 404.
    if let Ok((status, body)) = serve::http_get(addr, "/bench/sve") {
        if status == 200 {
            check("/bench/sve", obs::validate_bench_json(&body));
        } else {
            println!("selfcheck: /bench/sve absent (status {status}) — skipped");
        }
    }
    match serve::http_get(addr, "/bench/no_such_probe") {
        Ok((404, _)) => println!("selfcheck: /bench/no_such_probe 404 ok"),
        Ok((s, _)) => errs.push(format!("/bench/no_such_probe: expected 404, got {s}")),
        Err(e) => errs.push(format!("/bench/no_such_probe: {e}")),
    }
    errs
}

fn main() {
    let args = CLI.from_env();
    let selfcheck = args.has("--selfcheck");
    let addr = if selfcheck {
        "127.0.0.1:0"
    } else {
        args.value("--addr").unwrap_or("127.0.0.1:9178")
    };
    obs::set_enabled(true);

    let mut server = serve::spawn(addr).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        std::process::exit(2);
    });
    println!("serving live telemetry on http://{}/", server.addr());

    obs::reset();
    timeline::start(timeline::DEFAULT_CAPACITY);
    let period = Duration::from_millis(if selfcheck { 50 } else { 250 });
    let sampler = telemetry::Sampler::start(period, 256);

    let n = if selfcheck { 2_001 } else { 50_001 };
    let mut iter = 0usize;
    loop {
        work_iteration(n, iter);
        iter += 1;
        if selfcheck {
            if iter >= SELFCHECK_ITERATIONS {
                break;
            }
        } else {
            // Resident mode: pace the workload so the host stays usable
            // while the endpoints are watched.
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    // Only a selfcheck run leaves the loop; a resident one serves until
    // killed.
    sampler.force_sample();
    println!("workload done: {iter} iterations of n={n}");

    let errs = selfcheck_endpoints(server.addr());
    for e in &errs {
        eprintln!("selfcheck FAIL: {e}");
    }
    let failed = !errs.is_empty();
    println!(
        "selfcheck: {}",
        if failed {
            "FAILED"
        } else {
            "all endpoints validate"
        }
    );

    timeline::stop();
    drop(sampler);
    server.shutdown();
    if failed {
        std::process::exit(1);
    }
}
