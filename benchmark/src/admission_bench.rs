//! The admission workload: a closed-loop client (one outstanding request)
//! driving `admission::serve` over in-memory NDJSON, and the same loop
//! rebuilt stage by stage for the traced ledger.

use crate::report::{median, op_counts, peak_rss_mb, quantile, ratio, secs, timed, Run};
use admission::{serve, AdmissionEngine, FlowId, FlowSpec, ServeRequest, ServeResponse};
use netcalc::EnvelopeModel;
use rtswitch_core::{analyze_multi_hop_with, report::to_json, Approach, NetworkConfig};
use std::cell::RefCell;
use std::io::{self, BufRead, Read, Write};
use std::rc::Rc;
use std::time::Instant;
use units::{DataRate, DataSize, Duration};
use workload::{case_study::case_study, Arrival};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// The fewest requests an end-to-end run sends, so that at least ten
/// samples lie beyond p99.
const MIN_REQUESTS: usize = 1000;
/// Requests of the traced run.
const TRACED_REQUESTS: usize = 1000;
/// The end-to-end loop sends no new request after this many seconds.
const MAX_TIMED_SECONDS: f64 = 120.0;
/// Share of requests that re-spec one of the client's flows; the rest
/// admit or revoke.
const MODIFY_PERCENT: u64 = 20;
/// How many of its own flows the client keeps active, on top of the case
/// study's.  The case study's flows are never revoked or modified, so the
/// flow set, and with it the cost of a request, stays stationary.
const CHURN_FLOWS: usize = 8;

/// The paper's case study on one switch at 100 Mbps, strict priority,
/// staircase envelopes: the cold analysis `setup_s` times.
fn build_engine() -> AdmissionEngine {
    let workload = case_study();
    let fabric = ethernet::Fabric::single_switch(workload.stations.len());
    let config = NetworkConfig::paper_default().with_link_rate(DataRate::from_mbps(100));
    AdmissionEngine::new(
        &workload,
        &fabric,
        &config,
        Approach::StrictPriority,
        EnvelopeModel::Staircase,
    )
    .expect("the case study is analysable at 100 Mbps")
}

/// Builds the engine `SETUP_REPEATS` times; returns the last engine and
/// the median build time.
fn set_up() -> (AdmissionEngine, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut engine = None;
    for _ in 0..SETUP_REPEATS {
        let (built, dt) = timed(build_engine);
        times.push(dt);
        engine = Some(built);
    }
    (engine.expect("at least one set-up"), median(&times))
}

/// SplitMix64: the client's seeded request stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The kind of a request, for the per-kind engine timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Admit,
    Revoke,
    Modify,
}

/// The closed-loop client: draws a seeded mix of admits and of revokes and
/// modifies of its own flows that keeps about `CHURN_FLOWS` of them
/// active, and tracks the active flow set from the responses alone.
struct Client {
    rng: SplitMix64,
    stations: usize,
    /// The starting size of the active flow set: `active[..base]` are the
    /// case study's flows, `active[base..]` the client's own.
    base: usize,
    /// The active flows as the responses report them, in registration
    /// order.
    active: Vec<u64>,
    sent: usize,
    /// Responses that were an `Error` or unreadable.
    errors: u64,
    /// Responses received.
    responses: u64,
    /// Seconds spent drawing requests and reading responses.
    busy: f64,
}

impl Client {
    fn new(seed: u64, engine: &AdmissionEngine) -> Self {
        let active: Vec<u64> = engine.active_flows().iter().map(|f| f.0).collect();
        Client {
            rng: SplitMix64(seed ^ 0x4c45_4447_4552_4144), // "LEDGERAD"
            stations: engine.station_count(),
            base: active.len(),
            active,
            sent: 0,
            errors: 0,
            responses: 0,
            busy: 0.0,
        }
    }

    fn draw_spec(&mut self) -> FlowSpec {
        let source = (self.rng.next() % self.stations as u64) as usize;
        let mut destination = (self.rng.next() % self.stations as u64) as usize;
        if destination == source {
            destination = (destination + 1) % self.stations;
        }
        let payload = DataSize::from_bytes(16 + self.rng.next() % 241);
        let period = Duration::from_millis([20, 40, 80, 160][(self.rng.next() % 4) as usize]);
        let arrival = if self.rng.next().is_multiple_of(2) {
            Arrival::Periodic { period }
        } else {
            Arrival::Sporadic {
                min_interarrival: period,
            }
        };
        FlowSpec {
            name: format!("bench-{}", self.sent),
            source,
            destination,
            payload,
            arrival,
            deadline: period,
        }
    }

    /// One of the client's own active flows (there must be one).
    fn pick(&mut self) -> FlowId {
        let own = &self.active[self.base..];
        FlowId(own[(self.rng.next() % own.len() as u64) as usize])
    }

    /// The next request line (newline-terminated).
    fn next_request(&mut self) -> (String, Kind) {
        let started = Instant::now();
        let roll = self.rng.next() % 100;
        let own = self.active.len() - self.base;
        let kind = if own == 0 {
            Kind::Admit
        } else if roll < MODIFY_PERCENT {
            Kind::Modify
        } else {
            // Admit more often below `CHURN_FLOWS`, revoke more often
            // above it.
            let drift = own as f64 - CHURN_FLOWS as f64;
            let admit_percent = (50.0 - 10.0 * drift).clamp(10.0, 90.0);
            if ((self.rng.next() % 100) as f64) < admit_percent {
                Kind::Admit
            } else {
                Kind::Revoke
            }
        };
        let request = match kind {
            Kind::Admit => ServeRequest::Admit {
                flow: self.draw_spec(),
            },
            Kind::Revoke => ServeRequest::Revoke { flow: self.pick() },
            Kind::Modify => {
                let flow = self.pick();
                ServeRequest::Modify {
                    flow,
                    spec: self.draw_spec(),
                }
            }
        };
        let mut line = serde_json::to_string(&request).expect("requests serialize");
        line.push('\n');
        self.sent += 1;
        self.busy += secs(started);
        (line, kind)
    }

    /// Reads a response line with a minimal scan for its decision and flow
    /// (a full parse of a verdict costs more than the request it answers).
    fn observe(&mut self, response: &str) {
        let started = Instant::now();
        self.responses += 1;
        match (scan_decision(response), scan_flow(response)) {
            (Some("Admitted"), Some(flow)) => self.active.push(flow),
            (Some("Revoked"), Some(flow)) => self.active.retain(|&f| f != flow),
            (Some("Modified" | "Rejected"), _) => {}
            _ => self.errors += 1,
        }
        self.busy += secs(started);
    }
}

/// The decision of a `{"Verdict":{"decision":...}}` line: a unit variant
/// name, or `Rejected`.
fn scan_decision(response: &str) -> Option<&str> {
    let rest = response
        .strip_prefix("{\"Verdict\":{\"decision\":")?
        .trim_start_matches('{');
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next()
}

/// The `"flow"` field of a verdict line, when it is a number.
fn scan_flow(response: &str) -> Option<u64> {
    let at = response.find("\"flow\":")? + "\"flow\":".len();
    let digits: String = response[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// State shared by the client's input and output ends of `serve`.
struct Loop {
    client: Client,
    deadline: f64,
    started: Instant,
    /// When the outstanding request was handed to `serve`.
    sent_at: Option<Instant>,
    /// Response bytes of the outstanding request.
    response: Vec<u8>,
    latencies: Vec<f64>,
}

impl Loop {
    fn done(&self) -> bool {
        let elapsed = secs(self.started);
        let sent = self.client.sent;
        (sent >= MIN_REQUESTS && elapsed >= self.deadline) || elapsed >= MAX_TIMED_SECONDS
    }
}

/// The request stream `serve` reads: each line is drawn only after the
/// previous response was written, so one request is outstanding.
struct Input {
    shared: Rc<RefCell<Loop>>,
    line: Vec<u8>,
    pos: usize,
}

impl Read for Input {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Input {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos < self.line.len() {
            return Ok(&self.line[self.pos..]);
        }
        let mut shared = self.shared.borrow_mut();
        let shared = &mut *shared;
        if !shared.response.is_empty() {
            let response = String::from_utf8_lossy(&shared.response).into_owned();
            shared.client.observe(&response);
            shared.response.clear();
        }
        if shared.done() {
            self.line.clear();
            self.pos = 0;
            return Ok(&[]);
        }
        let (line, _) = shared.client.next_request();
        self.line = line.into_bytes();
        self.pos = 0;
        shared.sent_at = Some(Instant::now());
        Ok(&self.line)
    }

    fn consume(&mut self, amount: usize) {
        self.pos += amount;
    }
}

/// Where `serve` writes: stamps each response line's completion.
struct Output {
    shared: Rc<RefCell<Loop>>,
}

impl Write for Output {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut shared = self.shared.borrow_mut();
        shared.response.extend_from_slice(buf);
        if buf.contains(&b'\n') {
            if let Some(sent_at) = shared.sent_at.take() {
                shared.latencies.push(secs(sent_at));
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The correctness checks at the end of a run: the client's view of the
/// active flows is the engine's, and the incremental state is
/// byte-identical to a from-scratch re-analysis.
fn check_engine(run: &mut Run, client: &Client, engine: &AdmissionEngine) {
    let engine_flows: Vec<u64> = engine.active_flows().iter().map(|f| f.0).collect();
    run.check(client.active == engine_flows, || {
        format!(
            "client tracks {} active flows, engine has {}",
            client.active.len(),
            engine_flows.len()
        )
    });
    let scratch = analyze_multi_hop_with(
        &engine.workload(),
        engine.config(),
        engine.approach(),
        engine.fabric(),
        engine.model(),
    );
    let matches = match scratch {
        Ok(scratch) => {
            to_json(&engine.snapshot().report).expect("report serializes")
                == to_json(&scratch).expect("report serializes")
        }
        Err(_) => false,
    };
    run.check(matches, || {
        "engine report differs from a from-scratch analyze_multi_hop_with".to_string()
    });
}

/// The end-to-end run: the closed loop through `serve` for `seconds`
/// (and at least `MIN_REQUESTS` requests).
pub fn run_end_to_end(seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let (mut engine, setup) = set_up();
    let starting_flows = engine.active_flows().len();
    let shared = Rc::new(RefCell::new(Loop {
        client: Client::new(seed, &engine),
        deadline: seconds,
        started: Instant::now(),
        sent_at: None,
        response: Vec::new(),
        latencies: Vec::new(),
    }));
    let input = Input {
        shared: Rc::clone(&shared),
        line: Vec::new(),
        pos: 0,
    };
    let mut output = Output {
        shared: Rc::clone(&shared),
    };
    let served = serve(&mut engine, input, &mut output);
    let wall = secs(shared.borrow().started);
    let shared = shared.borrow();
    let client = &shared.client;
    run.check(served.is_ok(), || format!("serve failed: {served:?}"));
    run.attempted = client.sent as u64;
    run.failed = client.errors + (client.sent as u64).saturating_sub(client.responses);
    check_engine(&mut run, client, &engine);

    let latencies = &shared.latencies;
    let beyond_p99 = latencies.len() / 100;
    run.check(beyond_p99 >= 10, || {
        format!(
            "only {} latency samples, fewer than ten beyond p99",
            latencies.len()
        )
    });
    run.set("throughput_per_s", ratio(latencies.len() as f64, wall));
    run.set("latency_p50_ms", 1e3 * median(latencies));
    run.set("setup_s", setup);
    println!(
        "admission_churn: {} requests in {wall:.3}s; latency p50 and p99 over {} samples \
         ({beyond_p99} beyond p99); active flows {starting_flows} -> {}; \
         client {:.3}s outside the timed window",
        client.sent,
        latencies.len(),
        client.active.len(),
        client.busy
    );
    // Reported but not gated: the tail and the peak RSS swing with
    // co-tenant load on the host (see benchmark/README.md).
    println!(
        "  request latency p99 {:.3} ms; peak RSS {:.1} MB",
        1e3 * quantile(latencies, 0.99),
        peak_rss_mb()
    );
    run
}

/// One traced request.
struct Traced {
    kind: Kind,
    seconds: f64,
    ports: Vec<String>,
}

/// The traced run: `serve`'s loop rebuilt (decode, engine call, encode)
/// over `TRACED_REQUESTS` closed-loop requests, timed per stage.  Fidelity
/// gate: the same request lines replayed through `serve` on a fresh engine
/// must produce the same response bytes.
pub fn run_traced(seed: u64) -> Run {
    let mut run = Run::default();
    let mut engine = build_engine();
    let mut client = Client::new(seed, &engine);
    let ops_start = engine.minplus_ops();
    let mut requests = String::new();
    let mut responses = String::new();
    let (mut decode, mut encode) = (0.0, 0.0);
    let (mut admit, mut revoke, mut modify) = (0.0, 0.0, 0.0);
    let (mut recomputed, mut reused) = (0u64, 0u64);
    let mut traced: Vec<Traced> = Vec::with_capacity(TRACED_REQUESTS);

    let started = Instant::now();
    for _ in 0..TRACED_REQUESTS {
        let (line, kind) = client.next_request();
        let (request, dt_decode) = timed(|| serde_json::from_str::<ServeRequest>(line.trim_end()));
        decode += dt_decode;
        let request = match request {
            Ok(request) => request,
            Err(error) => {
                run.problem(format!("traced decode failed: {error:?}"));
                break;
            }
        };
        let (verdict, dt_engine) = timed(|| match request {
            ServeRequest::Admit { flow } => Some(engine.admit(flow)),
            ServeRequest::Revoke { flow } => Some(engine.revoke(flow)),
            ServeRequest::Modify { flow, spec } => Some(engine.modify(flow, spec)),
            _ => None,
        });
        let Some(verdict) = verdict else {
            run.problem("the client sent a request outside admit/revoke/modify");
            break;
        };
        match kind {
            Kind::Admit => admit += dt_engine,
            Kind::Revoke => revoke += dt_engine,
            Kind::Modify => modify += dt_engine,
        }
        recomputed += verdict.cache.ports_recomputed as u64;
        reused += verdict.cache.ports_reused as u64;
        let ports = verdict.cache.recomputed_ports.clone();
        let (encoded, dt_encode) =
            timed(|| serde_json::to_string(&ServeResponse::Verdict(verdict)));
        encode += dt_encode;
        let encoded = encoded.expect("responses serialize");
        traced.push(Traced {
            kind,
            seconds: dt_decode + dt_engine + dt_encode,
            ports,
        });
        client.observe(&encoded);
        requests.push_str(&line);
        responses.push_str(&encoded);
        responses.push('\n');
    }
    let traced_total = secs(started);
    let ops = op_counts(&engine.minplus_ops());
    let ops_start = op_counts(&ops_start);

    run.attempted = client.sent as u64;
    run.failed = client.errors + (client.sent as u64).saturating_sub(client.responses);
    check_engine(&mut run, &client, &engine);

    // Fidelity gate: the program's own loop on the same request lines.
    let mut reference = build_engine();
    let mut program_output = Vec::with_capacity(responses.len());
    let (served, untraced) =
        timed(|| serve(&mut reference, requests.as_bytes(), &mut program_output));
    run.check(served.as_ref().ok() == Some(&client.sent), || {
        format!(
            "fidelity: serve answered {served:?} of {} requests",
            client.sent
        )
    });
    run.check(program_output == responses.as_bytes(), || {
        let differs = program_output
            .split(|&b| b == b'\n')
            .zip(responses.as_bytes().split(|&b| b == b'\n'))
            .position(|(a, b)| a != b);
        format!(
            "fidelity: rebuilt loop's responses differ from serve's, first at request {differs:?}"
        )
    });

    println!(
        "admission_churn traced: {} requests; active flows end at {}; against serve \
         replaying the same request lines",
        traced.len(),
        client.active.len()
    );
    let stages = [
        ("admission.service.decode_s", decode),
        ("admission.engine.admit_s", admit),
        ("admission.engine.revoke_s", revoke),
        ("admission.engine.modify_s", modify),
        ("admission.service.encode_s", encode),
        ("admission.client_s", client.busy),
    ];
    run.ledger(&stages, traced_total, untraced);
    run.set("admission.engine.ports_recomputed", recomputed as f64);
    run.set(
        "admission.engine.port_reuse_ratio",
        ratio(reused as f64, (recomputed + reused) as f64),
    );
    run.set("admission.response_bytes", responses.len() as f64);
    for (name, count) in &ops {
        let before = ops_start.get(name).copied().unwrap_or(0);
        run.set(
            &format!("netcalc.ops.{name}"),
            count.saturating_sub(before) as f64,
        );
    }
    let request_seconds: Vec<f64> = traced.iter().map(|t| t.seconds).collect();
    run.set(
        "admission.request_p99_ms",
        1e3 * quantile(&request_seconds, 0.99),
    );
    run.set("trace.units", traced.len() as f64);
    let mut slowest: Vec<&Traced> = traced.iter().collect();
    slowest.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
    println!("  slowest requests:");
    for request in slowest.iter().take(5) {
        println!(
            "    {:>9.3} ms  {:?} recomputing [{}]",
            1e3 * request.seconds,
            request.kind,
            request.ports.join(", ")
        );
    }
    run
}
