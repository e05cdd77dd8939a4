//! `serve-read`: warm-cache cheap reads against one in-process reactor
//! `serve` node, on an open-loop schedule: one fixed offered rate, then a
//! rate ladder. The mix is predict, select, cached `plan` and small
//! `batch` requests over both wire framings.
//!
//! All host time goes to framing, the reactor, the protocol and the
//! service caches: no estimation or DES runs while the load is on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cpm_cluster::ClusterConfig;
use cpm_core::units::KIB;
use cpm_reactor::{encode_response, ClientConfig, ClientConn, Decoder, Framing};
use cpm_serve::{handle_line, Algorithm, ClusterRef, Collective, ModelKind, Query, Service};
use cpm_workload::gen;
use serde_json::Value;

use crate::load::{self, ConnResult, Req, Wire};
use crate::server::{plain_node, Node, Scratch};
use crate::spans::{self, timed};
use crate::util::{allowed_cpus, median, quantile, secs, split_cpus, Rng, Spinner};
use crate::{Opts, Outcome};

/// Request classes of the read mix.
pub const PREDICT: u8 = 0;
/// `select`.
pub const SELECT: u8 = 1;
/// `batch` of predicts.
pub const BATCH: u8 = 2;
/// Cached analytic `plan`.
pub const PLAN: u8 = 3;

// The mix, rates and limit below are assumptions, not observed traffic;
// `perfbench/README.md` ("Traffic: measured and assumed") gives the
// reasoning behind each.

/// Percent of the mix per class (predict, select, batch, plan). Assumed:
/// predict dominates, and every other read verb has a share large
/// enough to be timed in each window.
pub const MIX: [u32; 4] = [70, 15, 10, 5];

/// Offered rate of the fixed-rate phase, requests/s over all connections:
/// about a quarter of the saturated capacity, so latency is service and
/// wire time rather than queueing.
pub const FIXED_RATE: f64 = 12000.0;
/// The rate ladder, requests/s: steps of about 4/3 from well below the
/// saturated capacity to well above it, so the knee falls inside.
pub const LADDER: [f64; 8] = [
    8000.0, 11000.0, 15000.0, 20000.0, 27000.0, 36000.0, 48000.0, 64000.0,
];
/// The latency limit a ladder rung's p99 must stay under, µs: about a
/// hundred unloaded round trips.
pub const LIMIT_US: f64 = 10000.0;
/// The placeholder the templates carry where each request's id goes.
pub const ID: &str = "@ID@";

const MODELS: [&str; 4] = ["lmo", "hockney", "loggp", "plogp"];
const COLLECTIVES: [&str; 2] = ["scatter", "gather"];
const ALGORITHMS: [&str; 2] = ["linear", "binomial"];
const SIZES: [u64; 6] = [KIB, 4 * KIB, 16 * KIB, 48 * KIB, 100 * KIB, 180 * KIB];

/// A read request template for one tenant.
#[derive(Clone, Debug)]
pub struct Template {
    /// Request class.
    pub class: u8,
    /// The request line, with [`ID`] where the id goes.
    pub line: String,
    /// What a direct service call must answer (checked once, at set-up).
    pub direct: Direct,
}

/// The direct `Service` call a template's answer must equal.
#[derive(Clone, Debug)]
pub enum Direct {
    /// `Service::predict`.
    Predict(Query),
    /// `Service::select(model, collective, m)`.
    Select(ModelKind, Collective, u64),
    /// Several predicts.
    Batch(Vec<Query>),
    /// `Service::plan` under a model.
    Plan(ModelKind),
}

fn predict_obj(fp: &str, q: &Query) -> String {
    format!(
        "{{\"verb\":\"predict\",\"fingerprint\":\"{fp}\",\"model\":\"{}\",\"collective\":\"{}\",\
         \"algorithm\":\"{}\",\"m\":{}}}",
        q.model.as_str(),
        q.collective.as_str(),
        q.algorithm.as_str(),
        q.m
    )
}

fn with_id(obj: &str) -> String {
    format!("{{\"id\":\"{ID}\",{}", &obj[1..])
}

fn query(model: &str, collective: &str, algorithm: &str, m: u64) -> Query {
    Query {
        model: ModelKind::parse(model).expect("known model"),
        collective: Collective::parse(collective).expect("known collective"),
        algorithm: Algorithm::parse(algorithm).expect("known algorithm"),
        m,
        root: 0,
    }
}

/// The read templates for the tenant `fp` with `n` nodes.
pub fn templates(fp: &str, n: usize, seed: u64) -> Vec<Template> {
    let mut out = Vec::new();
    let mut queries = Vec::new();
    for model in MODELS {
        for collective in COLLECTIVES {
            for algorithm in ALGORITHMS {
                for m in SIZES {
                    queries.push(query(model, collective, algorithm, m));
                }
            }
        }
    }
    for q in &queries {
        out.push(Template {
            class: PREDICT,
            line: with_id(&predict_obj(fp, q)),
            direct: Direct::Predict(*q),
        });
    }
    for model in MODELS {
        for collective in COLLECTIVES {
            for m in [4 * KIB, 100 * KIB] {
                out.push(Template {
                    class: SELECT,
                    line: format!(
                        "{{\"id\":\"{ID}\",\"verb\":\"select\",\"fingerprint\":\"{fp}\",\
                         \"model\":\"{model}\",\"collective\":\"{collective}\",\"m\":{m}}}"
                    ),
                    direct: Direct::Select(
                        ModelKind::parse(model).expect("known model"),
                        Collective::parse(collective).expect("known collective"),
                        m,
                    ),
                });
            }
        }
    }
    let mut rng = Rng::new(seed, 0xba7c4);
    for _ in 0..8 {
        let picked: Vec<Query> = (0..8).map(|_| queries[rng.below(queries.len())]).collect();
        let body: Vec<String> = picked.iter().map(|q| predict_obj(fp, q)).collect();
        out.push(Template {
            class: BATCH,
            line: format!(
                "{{\"id\":\"{ID}\",\"verb\":\"batch\",\"requests\":[{}]}}",
                body.join(",")
            ),
            direct: Direct::Batch(picked),
        });
    }
    let trace = plan_trace(n, seed);
    let trace_json = serde_json::to_string(&trace.to_value()).expect("trace encodes");
    for model in [ModelKind::Lmo, ModelKind::Hockney] {
        out.push(Template {
            class: PLAN,
            line: format!(
                "{{\"id\":\"{ID}\",\"verb\":\"plan\",\"fingerprint\":\"{fp}\",\"model\":\"{}\",\
                 \"trace\":{trace_json}}}",
                model.as_str()
            ),
            direct: Direct::Plan(model),
        });
    }
    out
}

/// The trace the cached `plan` reads ask about.
pub fn plan_trace(n: usize, seed: u64) -> cpm_workload::Trace {
    let m = (8 + Rng::new(seed, 0x91a).below(56) as u64) * KIB;
    gen::training_step(n, m, 2, 4e-9, 1e-3)
}

/// Splits a response around the echoed [`ID`] into `(before, after)`.
pub fn split_expected(resp: &str) -> Option<(String, String)> {
    let at = resp.find(ID)?;
    Some((resp[..at].to_string(), resp[at + ID.len()..].to_string()))
}

fn f64_field(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Checks a template's (cached) response against direct `Service` calls.
fn matches_direct(service: &Service, fp: &str, t: &Template, resp: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(resp).map_err(|e| format!("bad json: {e}"))?;
    let cluster = ClusterRef::Fingerprint(fp.to_string());
    let same = |a: Option<f64>, b: f64| a.map(f64::to_bits) == Some(b.to_bits());
    let ok = match &t.direct {
        Direct::Predict(q) => {
            let p = service.predict(&cluster, q).map_err(|e| e.to_string())?;
            same(f64_field(&v, "seconds"), p.seconds)
        }
        Direct::Select(model, collective, m) => {
            let (alg, lin, bin) = service
                .select(&cluster, *model, *collective, *m, 0)
                .map_err(|e| e.to_string())?;
            v.get("algorithm").and_then(Value::as_str) == Some(alg.as_str())
                && same(f64_field(&v, "linear_seconds"), lin)
                && same(f64_field(&v, "binomial_seconds"), bin)
        }
        Direct::Batch(qs) => {
            let Some(Value::Seq(items)) = v.get("responses") else {
                return Err("batch without responses".into());
            };
            items.len() == qs.len()
                && qs.iter().zip(items).all(|(q, item)| {
                    service
                        .predict(&cluster, q)
                        .is_ok_and(|p| same(f64_field(item, "seconds"), p.seconds))
                })
        }
        Direct::Plan(model) => {
            let req: Value = serde_json::from_str(&t.line).map_err(|e| e.to_string())?;
            let trace = cpm_workload::Trace::from_value(req.get("trace").ok_or("no trace")?)
                .map_err(|e| e.to_string())?;
            let p = service
                .plan(&cluster, &trace, *model)
                .map_err(|e| e.to_string())?;
            same(f64_field(&v, "makespan_seconds"), p.plan.makespan)
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "response differs from the direct Service answer: {resp}"
        ))
    }
}

/// A template with its exact expected response.
pub struct Primed {
    /// Which tenant the template reads.
    pub tenant: usize,
    /// The template.
    pub t: Template,
    /// The expected response, split around the id.
    pub expect: Arc<(String, String)>,
}

/// Picks `count` templates: a tenant from the cumulative weights
/// `tenant_cdf`, then a class by [`MIX`], then a template uniformly.
pub fn pick(rng: &mut Rng, primed: &[Primed], count: usize, tenant_cdf: &[f64]) -> Vec<usize> {
    let mut index: Vec<[Vec<usize>; 4]> = vec![Default::default(); tenant_cdf.len()];
    for (i, p) in primed.iter().enumerate() {
        index[p.tenant][p.t.class as usize].push(i);
    }
    let total: u32 = MIX.iter().sum();
    (0..count)
        .map(|_| {
            let u = rng.unit();
            let tenant = tenant_cdf
                .iter()
                .position(|&c| u < c)
                .unwrap_or(tenant_cdf.len() - 1);
            let mut x = (rng.next_u64() % total as u64) as u32;
            let mut class = 0;
            while x >= MIX[class] {
                x -= MIX[class];
                class += 1;
            }
            let list = &index[tenant][class];
            list[rng.below(list.len())]
        })
        .collect()
}

/// Framings of the generator's connections: JSON lines first, then
/// binary, at most `nproc` of them.
pub fn framings() -> Vec<Framing> {
    [Framing::JsonLines, Framing::Binary]
        .into_iter()
        .take(crate::util::nproc().clamp(1, 2))
        .collect()
}

/// Builds one phase: `rate` requests/s for `seconds`, split evenly over
/// `conns` connections, templates chosen by `rng`.
pub fn read_phase(
    rng: &mut Rng,
    primed: &[Primed],
    tenant_cdf: &[f64],
    conns: usize,
    rate: f64,
    seconds: f64,
    tag: &str,
) -> Vec<Vec<Req>> {
    let per_conn = rate / conns as f64;
    (0..conns)
        .map(|c| {
            let dues = load::schedule(per_conn, seconds, (c as u64) * 1_000);
            let picks = pick(rng, primed, dues.len(), tenant_cdf);
            dues.into_iter()
                .zip(picks)
                .enumerate()
                .map(|(i, (due_ns, p))| {
                    let id = format!("{tag}{c}-{i}");
                    Req {
                        due_ns,
                        payload: primed[p].t.line.replacen(ID, &id, 1),
                        id,
                        expect: Some(Arc::clone(&primed[p].expect)),
                        class: primed[p].t.class,
                    }
                })
                .collect()
        })
        .collect()
}

/// Length of the windows tail latency is taken over, ns.
pub const WINDOW_NS: u64 = 500_000_000;

/// Latency summary of one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// `(due ns, class, latency µs)` of every answered request.
    pub timed: Vec<(u64, u8, f64)>,
    /// Generator lateness, µs.
    pub late_us: Vec<f64>,
    /// Failed requests; they count as infinitely late.
    pub failed: u64,
    /// Requests scheduled.
    pub attempted: u64,
    /// Outstanding requests when the last one fell due.
    pub backlog_end: u64,
    /// First failures.
    pub errors: Vec<String>,
}

impl PhaseStats {
    /// Folds connection results together.
    pub fn from_results(results: Vec<ConnResult>, scheduled: u64) -> PhaseStats {
        let mut s = PhaseStats {
            attempted: scheduled,
            ..PhaseStats::default()
        };
        for r in results {
            s.timed.extend(
                r.lat
                    .iter()
                    .map(|&(class, due, ns)| (due, class, ns as f64 / 1e3)),
            );
            s.late_us.extend(r.late.iter().map(|&ns| ns as f64 / 1e3));
            s.failed += r.failed;
            s.backlog_end += r.backlog_at_end;
            s.errors.extend(r.errors);
        }
        s
    }

    /// The `q`-quantile of all latencies, µs.
    pub fn q(&self, q: f64) -> f64 {
        let mut all: Vec<f64> = self.timed.iter().map(|t| t.2).collect();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.failed as usize));
        quantile(&all, q)
    }

    /// The median over `window_ns` windows (by due time) of each window's
    /// `q`-quantile latency, over the classes `keep` accepts: a figure
    /// that a host stall covering a minority of the windows cannot move.
    /// Any failure makes it infinite.
    pub fn windowed(&self, q: f64, window_ns: u64, keep: impl Fn(u8) -> bool) -> f64 {
        if self.failed > 0 {
            return f64::INFINITY;
        }
        let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
        for &(due, class, us) in &self.timed {
            if keep(class) {
                windows.entry(due / window_ns).or_default().push(us);
            }
        }
        let per: Vec<f64> = windows.values().map(|w| quantile(w, q)).collect();
        median(&per)
    }
}

/// Runs one phase on `wires`, the generator pinned to `gen_cpu` when
/// given, and summarises it.
pub fn measure_phase(wires: &mut [Wire], plans: &[Vec<Req>], gen_cpu: Option<usize>) -> PhaseStats {
    let scheduled = plans.iter().map(|p| p.len() as u64).sum();
    let _g = spans::span("gen.phase");
    let results = load::run_phase(wires, plans, Duration::from_secs(5), gen_cpu);
    PhaseStats::from_results(results, scheduled)
}

/// Climbs the ladder until a rung's p99 (the median of its three
/// windows) breaks [`LIMIT_US`] or a request fails. Every request is
/// counted in `out`, a wrong or missing answer as failed. Returns the
/// highest sustainable rate (see [`sustainable_rate`]) and every rung's
/// `(rate, p99 µs)`.
pub fn climb(
    out: &mut Outcome,
    wires: &mut [Wire],
    rng: &mut Rng,
    primed: &[Primed],
    rung_seconds: f64,
) -> (f64, Vec<(f64, f64)>) {
    let mut rungs = Vec::new();
    for (k, &rate) in LADDER.iter().enumerate() {
        let plans = read_phase(
            rng,
            primed,
            &[1.0],
            wires.len(),
            rate,
            rung_seconds,
            &format!("l{k}-"),
        );
        let stats = measure_phase(wires, &plans, gen_cpu());
        out.attempted += stats.attempted;
        out.fail_n(
            stats.failed,
            format!(
                "ladder at {rate} req/s: {}",
                stats.errors.first().map_or("", String::as_str)
            ),
        );
        // Three windows per rung: a rung past capacity builds a backlog
        // that fails at least two of them; a lone host stall fails one.
        let window = (rung_seconds * 1e9 / 3.0).ceil() as u64;
        let p99 = stats.windowed(0.99, window, |_| true);
        rungs.push((rate, p99));
        if !within_limit(p99) {
            break;
        }
    }
    (sustainable_rate(&rungs), rungs)
}

/// Whether a p99 meets [`LIMIT_US`]; NaN (no answers) does not.
fn within_limit(p99_us: f64) -> bool {
    p99_us <= LIMIT_US
}

/// The highest rate whose p99 meets [`LIMIT_US`], interpolating between
/// rungs as `p99` grows geometrically with the rate.
pub fn sustainable_rate(rungs: &[(f64, f64)]) -> f64 {
    let Some(fail) = rungs.iter().position(|&(_, p)| !within_limit(p)) else {
        return rungs.last().map_or(f64::NAN, |r| r.0);
    };
    if fail == 0 {
        let (rate, p99) = rungs[0];
        return rate * (LIMIT_US / p99.max(LIMIT_US)).max(0.01);
    }
    let (r0, p0) = rungs[fail - 1];
    let (r1, p1) = rungs[fail];
    if !p1.is_finite() || p1 <= p0 {
        return r0;
    }
    let f = ((LIMIT_US / p0).ln() / (p1 / p0).ln()).clamp(0.0, 1.0);
    r0 * (r1 / r0).powf(f)
}

/// The CPU this workload's load generator runs on: apart from the
/// server's, so a run does not depend on how the scheduler mixed them.
fn gen_cpu() -> Option<usize> {
    split_cpus().map(|(_, gen)| gen)
}

/// Requests kept in flight per connection while saturating.
pub const DEPTH: usize = 32;

/// Window over which saturated throughput is counted, ns.
pub const SAT_WINDOW_NS: u64 = 250_000_000;

/// What a saturation phase measured.
#[derive(Clone, Debug, Default)]
pub struct Saturation {
    /// Median over [`SAT_WINDOW_NS`] windows of responses per second.
    pub wall_rps: f64,
    /// Responses per CPU-second spent outside the load generator (the
    /// serving threads), which host CPU steal does not dilute.
    pub cpu_rps: f64,
    /// Responses that arrived within the phase.
    pub done: u64,
    /// Failed requests.
    pub failed: u64,
}

/// Saturates every connection for `seconds`, reading templates picked
/// like [`read_phase`] does.
pub fn saturation(
    wires: &mut [Wire],
    primed: &[Primed],
    tenant_cdf: &[f64],
    seed: u64,
    seconds: f64,
    gen_cpu: Option<usize>,
) -> Saturation {
    let _g = spans::span("gen.saturate");
    let tables: Vec<Vec<usize>> = (0..wires.len())
        .map(|c| {
            pick(
                &mut Rng::new(seed, 0x5a7 + c as u64),
                primed,
                1 << 14,
                tenant_cdf,
            )
        })
        .collect();
    let usage0 = crate::util::Usage::now();
    let t0 = Instant::now();
    let results: Vec<(ConnResult, Vec<u64>, u64)> = std::thread::scope(|scope| {
        let threads: Vec<_> = wires
            .iter_mut()
            .zip(&tables)
            .enumerate()
            .map(|(c, (wire, table))| {
                scope.spawn(move || {
                    let cpu_start = crate::util::thread_cpu_ns();
                    if let Some(cpu) = gen_cpu {
                        crate::util::pin_to(cpu);
                    }
                    let make = |i: usize| {
                        let p = &primed[table[i % table.len()]];
                        let id = format!("s{c}-{i}");
                        Req {
                            due_ns: 0,
                            payload: p.t.line.replacen(ID, &id, 1),
                            id,
                            expect: Some(Arc::clone(&p.expect)),
                            class: p.t.class,
                        }
                    };
                    let (r, times) = load::saturate(wire, &make, DEPTH, t0, seconds);
                    (r, times, crate::util::thread_cpu_ns() - cpu_start)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap_or_default())
            .collect()
    });
    let used = crate::util::Usage::now().since(&usage0);
    let gen_s: f64 = results.iter().map(|r| r.2 as f64 / 1e9).sum();
    let serving_s = used.user_s + used.sys_s - gen_s;
    let windows = (seconds * 1e9 / SAT_WINDOW_NS as f64).floor().max(1.0) as usize;
    let mut counts = vec![0u64; windows];
    let mut sat = Saturation::default();
    let mut all = 0u64;
    for (r, times, _) in &results {
        sat.failed += r.failed;
        all += times.len() as u64;
        for &t in times {
            if let Some(c) = counts.get_mut((t / SAT_WINDOW_NS) as usize) {
                *c += 1;
                sat.done += 1;
            }
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 * 1e9 / SAT_WINDOW_NS as f64)
        .collect();
    sat.wall_rps = median(&rates);
    sat.cpu_rps = all as f64 / serving_s;
    sat
}

/// The tenant, its node and its primed templates.
struct Setup {
    node: Node,
    fp: String,
    primed: Vec<Primed>,
}

fn setup(opts: &Opts, scratch: &Scratch, k: usize) -> Result<Setup, String> {
    let _g = spans::span("serve.setup");
    let server_cpu = split_cpus().map(|(server, _)| server);
    let node = plain_node(&scratch.0.join(format!("store-{k}")), opts.seed, server_cpu)
        .map_err(|e| format!("node: {e}"))?;
    let config = ClusterConfig::paper_lam(opts.seed);
    let est = format!(
        "{{\"verb\":\"estimate\",\"config\":{}}}",
        serde_json::to_string(&config).map_err(|e| e.to_string())?
    );
    let mut conn = ClientConn::connect(node.addr(), &ClientConfig::default())
        .map_err(|e| format!("connect: {e}"))?;
    let resp = conn.call(&est).map_err(|e| format!("estimate: {e}"))?;
    let v: Value = serde_json::from_str(&resp).map_err(|e| e.to_string())?;
    let fp = v
        .get("fingerprint")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("estimate failed: {resp}"))?
        .to_string();
    let mut primed = Vec::new();
    for t in templates(&fp, config.spec.n_nodes(), opts.seed) {
        conn.call(&t.line).map_err(|e| format!("prime: {e}"))?;
        let resp = conn.call(&t.line).map_err(|e| format!("prime: {e}"))?;
        matches_direct(&node.service, &fp, &t, &resp)?;
        let expect = split_expected(&resp).ok_or_else(|| format!("id not echoed: {resp}"))?;
        primed.push(Primed {
            tenant: 0,
            t,
            expect: Arc::new(expect),
        });
    }
    Ok(Setup { node, fp, primed })
}

/// Unloaded micro-measurements of the serving layers.
fn layer_probes(out: &mut Outcome, s: &Setup) {
    let service = &s.node.service;
    let cluster = ClusterRef::Fingerprint(s.fp.clone());
    let q = query("lmo", "scatter", "binomial", 16 * KIB);
    const N: usize = 20_000;
    let t = Instant::now();
    timed("serve.predict", || {
        for _ in 0..N {
            std::hint::black_box(service.predict(&cluster, &q).map(|p| p.seconds).ok());
        }
    });
    out.layer("serve.predict_ns", "ns", secs(t) * 1e9 / N as f64);
    let line = predict_obj(&s.fp, &q);
    let t = Instant::now();
    timed("serve.handle_line", || {
        for _ in 0..N {
            std::hint::black_box(handle_line(service, &line));
        }
    });
    let handle_ns = secs(t) * 1e9 / N as f64;
    out.layer("serve.handle_line_ns", "ns", handle_ns);

    let (resp, _) = handle_line(service, &line);
    for (framing, name) in [
        (Framing::JsonLines, "reactor.decode_ns.json"),
        (Framing::Binary, "reactor.decode_ns.binary"),
    ] {
        let mut wire = Vec::new();
        if framing == Framing::Binary {
            wire.push(cpm_reactor::BINARY_PREAMBLE);
        }
        for _ in 0..N {
            cpm_reactor::encode_request(framing, &line, &mut wire);
        }
        let t = Instant::now();
        let decoded = timed("reactor.decode", || {
            let mut dec = Decoder::new(1 << 20);
            let mut count = 0;
            for chunk in wire.chunks(4096) {
                dec.push(chunk);
                while dec.next_msg().is_some() {
                    count += 1;
                }
            }
            count
        });
        out.attempted += 1;
        if decoded != N {
            out.fail(format!("{name}: decoded {decoded} of {N} frames"));
        }
        out.layer(name, "ns", secs(t) * 1e9 / N as f64);
    }
    let mut buf = Vec::with_capacity(resp.len() + 8);
    let t = Instant::now();
    timed("reactor.encode", || {
        for i in 0..N {
            buf.clear();
            let framing = if i % 2 == 0 {
                Framing::JsonLines
            } else {
                Framing::Binary
            };
            encode_response(framing, &resp, &mut buf);
            std::hint::black_box(&buf);
        }
    });
    out.layer("reactor.encode_ns", "ns", secs(t) * 1e9 / N as f64);

    let call_us = match ClientConn::connect(s.node.addr(), &ClientConfig::default()) {
        Ok(mut conn) => {
            let mut us = Vec::with_capacity(2000);
            let _g = spans::span("reactor.call");
            for _ in 0..2000 {
                let t = Instant::now();
                if conn.call(&line).is_err() {
                    out.fail("unloaded call failed".into());
                    break;
                }
                us.push(secs(t) * 1e6);
            }
            median(&us)
        }
        Err(e) => {
            out.fail(format!("connect: {e}"));
            f64::NAN
        }
    };
    out.layer("reactor.call_us", "us", call_us);
    out.layer("reactor.wire_us", "us", call_us - handle_ns / 1e3);

    let (stats, _) = handle_line(service, "{\"verb\":\"stats\"}");
    let v: Value = serde_json::from_str(&stats).unwrap_or(Value::Null);
    let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    out.layer(
        "serve.cache_hit_ratio",
        "ratio",
        num("hits") / num("predict_count"),
    );
    let p50 = v
        .get("latency")
        .and_then(|l| l.get("predict"))
        .and_then(|p| p.get("p50_ns"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN);
    out.layer("serve.server_p50_ns", "ns", p50);
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let scratch = Scratch::new(&opts.out_dir, "serve-read");
    // Keep idle CPUs from halting while latency is measured (see
    // `Spinner`). Saturation needs none: its CPUs never idle.
    let spinner = Spinner::start(&allowed_cpus());
    let mut setups = Vec::new();
    let mut ready = None;
    for k in 0..opts.setup_reps(5) {
        // Only one node runs at a time: drop the previous one first.
        drop(ready.take());
        let t = Instant::now();
        match setup(opts, &scratch, k) {
            Ok(s) => ready = Some(s),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
        setups.push(secs(t));
    }
    let s = ready.expect("set-up ran");
    out.attempted += s.primed.len() as u64;
    out.metric("setup_s", "s", median(&setups));

    let mut rng = Rng::new(opts.seed, 0x5e7e);
    let mut wires: Vec<Wire> = framings()
        .into_iter()
        .map(|f| Wire::connect(s.node.addr(), f))
        .collect();
    // Warm the connections, threads and caches before timing.
    let warm = read_phase(
        &mut rng,
        &s.primed,
        &[1.0],
        wires.len(),
        FIXED_RATE,
        0.3,
        "w",
    );
    let warm = measure_phase(&mut wires, &warm, gen_cpu());
    out.attempted += warm.attempted;
    out.fail_n(
        warm.failed,
        warm.errors.first().cloned().unwrap_or_default(),
    );
    let fixed_s = opts.seconds * 0.5;
    let plans = read_phase(
        &mut rng,
        &s.primed,
        &[1.0],
        wires.len(),
        FIXED_RATE,
        fixed_s,
        "f",
    );
    let fixed = measure_phase(&mut wires, &plans, gen_cpu());
    out.attempted += fixed.attempted;
    out.fail_n(
        fixed.failed,
        fixed.errors.first().cloned().unwrap_or_default(),
    );

    // Peak throughput: a closed loop keeping a window of requests in
    // flight on every connection, so the server is never idle.
    let sat_s = opts.seconds * 0.3;
    drop(spinner);
    let sat = saturation(&mut wires, &s.primed, &[1.0], opts.seed, sat_s, gen_cpu());
    out.attempted += sat.done + sat.failed;
    out.fail_n(sat.failed, "request failed under saturation".into());

    let rung_s = opts.seconds * 0.2 / LADDER.len() as f64;
    let spinner = Spinner::start(&allowed_cpus());
    let (max_rps, rungs) = climb(&mut out, &mut wires, &mut rng, &s.primed, rung_s);
    drop(spinner);

    let all = |_: u8| true;
    let p50 = fixed.windowed(0.5, WINDOW_NS, all);
    let p90 = fixed.windowed(0.9, WINDOW_NS, all);
    let p99 = fixed.windowed(0.99, WINDOW_NS, all);
    out.metric("p50_us", "us", p50);
    // The tail of the dominant verb: a p90 pooled over verbs would sit on
    // the boundary between cheap reads and the few large ones and jump
    // with small timing changes.
    let predict_p90 = fixed.windowed(0.9, WINDOW_NS, |c| c == PREDICT);
    out.detail("tail_us", "us", predict_p90);
    out.metric(
        "heavy_ms",
        "ms",
        fixed.windowed(0.5, WINDOW_NS, |c| c == BATCH) / 1e3,
    );
    out.metric("rate_per_s", "1/s", sat.cpu_rps);
    out.detail("rtt_p50_us", "us", p50);
    out.detail("rtt_p99_us", "us", p99);
    out.detail("rtt_p90_us", "us", p90);
    out.detail("predict_p90_us", "us", predict_p90);
    out.detail("peak_rps", "1/s", sat.wall_rps);
    out.detail("cpu_rps", "1/s", sat.cpu_rps);
    out.detail("max_rps", "1/s", max_rps);
    out.detail("requests", "count", fixed.attempted as f64);
    for (class, name) in ["predict", "select", "batch", "plan"].iter().enumerate() {
        out.detail(
            &format!("p50_us.{name}"),
            "us",
            fixed.windowed(0.5, WINDOW_NS, |c| c as usize == class),
        );
    }
    for (rate, p99) in &rungs {
        out.detail(&format!("ladder_p99_us.{}", *rate as u64), "us", *p99);
    }
    out.layer("gen.late_p99_us", "us", quantile(&fixed.late_us, 0.99));
    out.layer("gen.backlog_end", "count", fixed.backlog_end as f64);
    if opts.trace {
        layer_probes(&mut out, &s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustainable_rate_interpolates_between_rungs() {
        assert_eq!(sustainable_rate(&[(1.0, 10.0), (2.0, 20.0)]), 2.0);
        let r = sustainable_rate(&[(1000.0, LIMIT_US / 10.0), (2000.0, LIMIT_US * 10.0)]);
        assert!(r > 1000.0 && r < 2000.0, "{r}");
        let low = sustainable_rate(&[(1000.0, 2.0 * LIMIT_US)]);
        assert!((low - 500.0).abs() < 1e-9);
    }

    #[test]
    fn a_wrong_answer_on_the_ladder_fails_the_run() {
        use std::io::{BufRead, BufReader, Write};
        // A server that answers every request line, but wrongly.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                let id = line.split('"').nth(3).unwrap_or("").to_string();
                if w.write_all(
                    format!("{{\"ok\":true,\"id\":\"{id}\",\"seconds\":-1}}\n").as_bytes(),
                )
                .is_err()
                {
                    break;
                }
            }
        });
        let primed: Vec<Primed> = templates("fp", 16, 1)
            .into_iter()
            .map(|t| Primed {
                tenant: 0,
                t,
                expect: Arc::new(("{\"ok\":true,\"id\":\"".into(), "\",\"seconds\":1}".into())),
            })
            .collect();
        let mut wires = vec![Wire::connect(addr, Framing::JsonLines)];
        let mut out = Outcome::default();
        let (_, rungs) = climb(&mut out, &mut wires, &mut Rng::new(1, 2), &primed, 0.03);
        drop(wires);
        server.join().unwrap();
        assert_eq!(rungs.len(), 1, "a failing rung ends the climb");
        assert!(out.attempted > 0);
        assert_eq!(out.failed, out.attempted, "every wrong answer counts");
        assert!(
            out.errors[0].contains("unexpected response"),
            "{:?}",
            out.errors
        );
    }

    #[test]
    fn templates_follow_the_seed() {
        let a: Vec<String> = templates("fp", 16, 5).into_iter().map(|t| t.line).collect();
        let b: Vec<String> = templates("fp", 16, 5).into_iter().map(|t| t.line).collect();
        let c: Vec<String> = templates("fp", 16, 6).into_iter().map(|t| t.line).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|l| l.contains(ID)));
    }

    #[test]
    fn expected_responses_split_around_the_id() {
        let (pre, post) = split_expected("{\"ok\":true,\"id\":\"@ID@\",\"x\":1}").unwrap();
        assert_eq!(pre, "{\"ok\":true,\"id\":\"");
        assert_eq!(post, "\",\"x\":1}");
    }
}
