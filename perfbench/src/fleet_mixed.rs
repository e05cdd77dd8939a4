//! `fleet-mixed`: the `serve-read` mix through the router to an
//! in-process three-node fleet (replication 2), Zipf-skewed over tenants,
//! with writes running beside the reads at fixed intervals:
//!
//! * cold predicts for new small tenants — estimate, publish, then the
//!   replication push to the follower;
//! * `plan` requests with `"fidelity":"des"` — steady-cost DES replays.
//!
//! It is the only workload with a router hop, replication, and heavy
//! verbs blocking cheap ones on the same shards. As in `serve-read`, the
//! serving side (members, router, and the estimations they run) shares
//! one CPU and the load generator another.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Instant;

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_core::units::KIB;
use cpm_fleet::{serve_router, FleetMap, FleetNode, Router, RouterConfig, RouterHandle};
use cpm_reactor::{ClientConfig, ClientConn};
use cpm_serve::LineHandler;
use cpm_workload::gen;
use serde_json::Value;

use crate::load::{Req, Wire};
use crate::serve_read::{
    framings, measure_phase, read_phase, saturation, split_expected, templates, Primed, ID,
    LIMIT_US, PREDICT,
};
use crate::server::{open_service, spawn, Node, Scratch};
use crate::spans;
use crate::util::{allowed_cpus, median, quantile, secs, split_cpus, Rng, Spinner};
use crate::{Opts, Outcome};

/// Fleet members.
pub const NODES: usize = 3;
/// Copies of every tenant's parameters.
pub const REPLICATION: usize = 2;
// Apart from the Zipf exponent, which is `loadgen`'s default, the tenant
// count, rates and gaps below are assumptions, not observed traffic;
// `perfbench/README.md` ("Traffic: measured and assumed") gives the
// reasoning behind each.

/// Warm tenants the reads go to.
pub const TENANTS: usize = 8;
/// Zipf exponent of the tenant skew, as `loadgen --zipf` defaults to.
pub const ZIPF_S: f64 = 1.1;
/// Offered read rate of the mixed phase, requests/s: about a sixth of
/// the saturated read capacity through the router.
pub const READ_RATE: f64 = 3000.0;
/// Seconds between cold-tenant predicts.
pub const COLD_GAP_S: f64 = 1.0;
/// Seconds between `des` plan requests.
pub const DES_GAP_S: f64 = 0.2;
/// Ranks of the clusters the `des` plans replay.
pub const DES_RANKS: usize = 64;

/// Request class of a cold-tenant predict.
pub const COLD: u8 = 4;
/// Request class of a `des` plan.
pub const DES: u8 = 5;

/// Cumulative Zipf(`s`) weights over `n` ranks.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect()
}

/// The generated inputs: warm tenants, `des` clusters with their trace,
/// and the seed of the cold-tenant stream.
pub struct Inputs {
    /// Warm tenants' cluster configurations.
    pub tenants: Vec<ClusterConfig>,
    /// `(config, trace)` pairs the `des` plans replay.
    pub des: Vec<(ClusterConfig, cpm_workload::Trace)>,
    /// Seed of the cold tenants' configurations.
    pub cold_seed: u64,
}

/// The leader (index into the members) that the ring gives `config`.
/// The ring hashes member names, not addresses, so this holds for any
/// running fleet of [`NODES`] members.
pub fn leader(config: &ClusterConfig) -> usize {
    let addrs: Vec<String> = (0..NODES).map(|i| format!("127.0.0.1:{}", i + 1)).collect();
    let map = FleetMap::new(&addrs, REPLICATION, cpm_fleet::DEFAULT_VNODES);
    let owner = map
        .owners(&map.ring(), &cpm_serve::fingerprint(config))
        .first()
        .map(|n| n.name.clone())
        .unwrap_or_default();
    map.nodes.iter().position(|n| n.name == owner).unwrap_or(0)
}

/// A seeded `n`-node cluster whose leader is member `node`: the seed
/// picks the cluster, the caller picks where it lands, so every seed
/// spreads the same load over the members.
fn placed(rng: &mut Rng, n: usize, node: usize) -> ClusterConfig {
    loop {
        let config = ClusterConfig::ideal(ClusterSpec::homogeneous(n), rng.next_u64());
        if leader(&config) == node {
            return config;
        }
    }
}

/// The inputs for `seed`. Tenant `i` (Zipf rank `i`), `des` cluster `k`
/// and cold tenant `k` lead on members `i`, `k` and `k` modulo [`NODES`].
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 0xf1ee7);
    let tenants = (0..TENANTS)
        .map(|i| placed(&mut rng, 4, i % NODES))
        .collect();
    let des = (0..NODES)
        .map(|k| {
            let config = placed(&mut rng, DES_RANKS, k);
            let m = (8 + rng.below(56) as u64) * KIB;
            (config, gen::training_step(DES_RANKS, m, 2, 4e-9, 1e-3))
        })
        .collect();
    Inputs {
        tenants,
        des,
        cold_seed: rng.next_u64(),
    }
}

/// The `k`-th cold tenant: a fresh 4-node cluster no member has seen,
/// led by member `k` modulo [`NODES`].
pub fn cold_config(cold_seed: u64, k: usize) -> ClusterConfig {
    placed(&mut Rng::new(cold_seed, k as u64), 4, k % NODES)
}

fn config_json(c: &ClusterConfig) -> String {
    serde_json::to_string(c).expect("config encodes")
}

/// A running fleet: members and the router in front.
struct Fleet {
    nodes: Vec<Node>,
    router: Arc<Router>,
    front: RouterHandle,
    map: FleetMap,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.front.shutdown();
        for n in &mut self.nodes {
            n.shutdown();
        }
    }
}

/// Event-loop shards per member: one, so a heavy verb holds up every
/// read its member serves, the head-of-line blocking this workload is
/// meant to show.
pub const MEMBER_SHARDS: usize = 1;
/// Event-loop shards in the router: two, so the read and the write
/// connections are forwarded independently and the blocking seen is the
/// members', not the router's.
pub const ROUTER_SHARDS: usize = 2;

/// Starts the fleet from a thread pinned to the serving CPU, so every
/// thread the fleet spawns (shards, estimation ranks) inherits the pin.
fn start_fleet(scratch: &Scratch, k: usize, seed: u64) -> Result<Fleet, String> {
    let server_cpu = split_cpus().map(|(server, _)| server);
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                if let Some(cpu) = server_cpu {
                    crate::util::pin_to(cpu);
                }
                start_fleet_here(scratch, k, seed)
            })
            .join()
            .unwrap_or_else(|_| Err("fleet start-up panicked".into()))
    })
}

fn start_fleet_here(scratch: &Scratch, k: usize, seed: u64) -> Result<Fleet, String> {
    let listeners: Vec<TcpListener> = (0..NODES)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let map = FleetMap::new(&addrs, REPLICATION, cpm_fleet::DEFAULT_VNODES);
    let mut nodes = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let dir = scratch.0.join(format!("fleet-{k}/node-{i}"));
        let service = open_service(&dir, seed ^ (i as u64 + 1)).map_err(|e| e.to_string())?;
        let inner: Arc<dyn LineHandler> = Arc::clone(&service) as Arc<dyn LineHandler>;
        let member = FleetNode::new(
            Arc::clone(&service),
            inner,
            map.clone(),
            &format!("node-{i}"),
            ClientConfig::default(),
        )?;
        nodes.push(
            spawn(service, member, listener, MEMBER_SHARDS, None).map_err(|e| e.to_string())?,
        );
    }
    let router = Router::new(map.clone(), RouterConfig::default())?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let front = serve_router(listener, Arc::clone(&router), ROUTER_SHARDS, None)
        .map_err(|e| e.to_string())?;
    Ok(Fleet {
        nodes,
        router,
        front,
        map,
    })
}

/// A fleet with warm tenants and every read template primed.
struct Setup {
    fleet: Fleet,
    fps: Vec<String>,
    primed: Vec<Primed>,
    des: Vec<(String, Arc<(String, String)>)>,
}

fn call(conn: &mut ClientConn, line: &str) -> Result<String, String> {
    conn.call(line).map_err(|e| format!("call: {e}"))
}

fn setup(opts: &Opts, inputs: &Inputs, scratch: &Scratch, k: usize) -> Result<Setup, String> {
    let _g = spans::span("fleet.setup");
    let fleet = start_fleet(scratch, k, opts.seed)?;
    let mut conn = ClientConn::connect(fleet.front.addr(), &ClientConfig::default())
        .map_err(|e| format!("connect: {e}"))?;
    let mut fps = Vec::new();
    let mut primed = Vec::new();
    for (tenant, config) in inputs.tenants.iter().enumerate() {
        let est = format!(
            "{{\"verb\":\"estimate\",\"config\":{}}}",
            config_json(config)
        );
        let resp = call(&mut conn, &est)?;
        let v: Value = serde_json::from_str(&resp).map_err(|e| e.to_string())?;
        let fp = v
            .get("fingerprint")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("estimate failed: {resp}"))?
            .to_string();
        for t in templates(&fp, config.spec.n_nodes(), opts.seed ^ tenant as u64) {
            call(&mut conn, &t.line)?;
            let resp = call(&mut conn, &t.line)?;
            let expect = split_expected(&resp).ok_or_else(|| format!("bad read: {resp}"))?;
            if !expect.0.starts_with("{\"ok\":true") {
                return Err(format!("read failed: {resp}"));
            }
            primed.push(Primed {
                tenant,
                t,
                expect: Arc::new(expect),
            });
        }
        fps.push(fp);
    }
    let mut des = Vec::new();
    for (config, trace) in &inputs.des {
        let line = format!(
            "{{\"id\":\"{ID}\",\"verb\":\"plan\",\"fidelity\":\"des\",\"config\":{},\"trace\":{}}}",
            config_json(config),
            serde_json::to_string(&trace.to_value()).map_err(|e| e.to_string())?
        );
        let resp = call(&mut conn, &line)?;
        let expect = split_expected(&resp).ok_or_else(|| format!("bad des plan: {resp}"))?;
        if !expect.0.starts_with("{\"ok\":true") {
            return Err(format!("des plan failed: {resp}"));
        }
        des.push((line, Arc::new(expect)));
    }
    Ok(Setup {
        fleet,
        fps,
        primed,
        des,
    })
}

/// The write schedule of the mixed phase: a cold predict every
/// [`COLD_GAP_S`] and a `des` plan every [`DES_GAP_S`], in due order.
fn writes(s: &Setup, inputs: &Inputs, seconds: f64, first_cold: usize) -> Vec<Req> {
    let mut reqs = Vec::new();
    let colds = (seconds / COLD_GAP_S).floor() as usize;
    for k in 0..colds {
        let id = format!("c-{k}");
        let config = cold_config(inputs.cold_seed, first_cold + k);
        reqs.push(Req {
            due_ns: ((k as f64 + 0.25) * COLD_GAP_S * 1e9) as u64,
            payload: format!(
                "{{\"id\":\"{id}\",\"verb\":\"predict\",\"config\":{},\"model\":\"lmo\",\
                 \"collective\":\"scatter\",\"algorithm\":\"binomial\",\"m\":65536}}",
                config_json(&config)
            ),
            id,
            expect: None,
            class: COLD,
        });
    }
    let plans = (seconds / DES_GAP_S).floor() as usize;
    for k in 0..plans {
        let (line, expect) = &s.des[k % s.des.len()];
        let id = format!("d-{k}");
        reqs.push(Req {
            due_ns: ((k as f64 + 0.5) * DES_GAP_S * 1e9) as u64,
            payload: line.replacen(ID, &id, 1),
            id,
            expect: Some(Arc::clone(expect)),
            class: DES,
        });
    }
    reqs.sort_by_key(|r| r.due_ns);
    reqs
}

/// Median unloaded round trip of `line` to `addr`, µs.
fn unloaded_us(addr: SocketAddr, line: &str, calls: usize) -> Result<f64, String> {
    let mut conn =
        ClientConn::connect(addr, &ClientConfig::default()).map_err(|e| format!("connect: {e}"))?;
    let mut us = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = Instant::now();
        conn.call(line).map_err(|e| format!("call: {e}"))?;
        us.push(secs(t) * 1e6);
    }
    Ok(median(&us))
}

/// `(sum, count)` of the histogram `name` in a member's registry.
fn hist_sum_count(node: &Node, name: &str) -> (f64, u64) {
    let snap = node
        .service
        .metrics()
        .registry()
        .histogram(name, "", &[])
        .snapshot();
    (snap.sum as f64, snap.count)
}

fn fleet_layers(out: &mut Outcome, s: &Setup) {
    // Mean over every member's recordings of one histogram.
    let fleet_mean = |name: &str| {
        let (sum, count) = s
            .fleet
            .nodes
            .iter()
            .map(|n| hist_sum_count(n, name))
            .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        sum / count.max(1) as f64
    };
    out.layer("fleet.push_ms", "ms", fleet_mean("cpm_fleet_push_ns") / 1e6);
    out.layer(
        "serve.plan_des_ms",
        "ms",
        fleet_mean("cpm_des_replay_ns") / 1e6,
    );
    let estimations: u64 = s
        .fleet
        .nodes
        .iter()
        .map(|n| n.service.metrics().snapshot().estimations)
        .sum();
    out.layer("serve.estimations", "count", estimations as f64);
    let registry = s.fleet.router.registry();
    for (metric, name) in [
        ("fleet.retries", "cpm_fleet_router_retries"),
        ("fleet.stale_reads", "cpm_fleet_router_stale_reads"),
        ("fleet.errors", "cpm_fleet_router_failures"),
    ] {
        out.layer(
            metric,
            "count",
            registry.counter(name, "", &[]).get() as f64,
        );
    }
    // The router hop: the same cached read through the router and
    // straight to its leader.
    let line = s.primed[0].t.line.replacen(ID, "hop", 1);
    let ring = s.fleet.map.ring();
    let leader = s
        .fleet
        .map
        .owners(&ring, &s.fps[0])
        .first()
        .map(|n| n.addr.clone());
    let hop = (|| {
        let leader: SocketAddr = leader
            .ok_or("no owner")?
            .parse()
            .map_err(|e| format!("{e}"))?;
        let _g = spans::span("fleet.router_hop");
        let routed = unloaded_us(s.fleet.front.addr(), &line, 1000)?;
        let direct = unloaded_us(leader, &line, 1000)?;
        Ok::<f64, String>(routed - direct)
    })();
    match hop {
        Ok(us) => out.layer("fleet.router_hop_us", "us", us),
        Err(e) => out.fail(format!("router hop: {e}")),
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs(opts.seed);
    let scratch = Scratch::new(&opts.out_dir, "fleet-mixed");
    // As in `serve-read`: no halting CPUs while latency is measured.
    let spinner = Spinner::start(&allowed_cpus());
    let mut setups = Vec::new();
    let mut ready = None;
    for k in 0..opts.setup_reps(5) {
        drop(ready.take());
        let t = Instant::now();
        match setup(opts, &inputs, &scratch, k) {
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
    out.attempted += (s.primed.len() + s.des.len()) as u64;
    out.metric("setup_s", "s", median(&setups));

    let cdf = zipf_cdf(TENANTS, ZIPF_S);
    let mut rng = Rng::new(opts.seed, 0xf1ee);
    let mut wires: Vec<Wire> = framings()
        .into_iter()
        .map(|f| Wire::connect(s.fleet.front.addr(), f))
        .collect();
    let warm = read_phase(&mut rng, &s.primed, &cdf, wires.len(), READ_RATE, 0.3, "w");
    let gen_cpu = split_cpus().map(|(_, gen)| gen);
    let warm = measure_phase(&mut wires, &warm, gen_cpu);
    out.attempted += warm.attempted;
    out.fail_n(
        warm.failed,
        warm.errors.first().cloned().unwrap_or_default(),
    );

    // The mixed phase: reads on the first connection, writes on the
    // second (when there is one).
    let mixed_s = opts.seconds * 0.7;
    let mut plans = read_phase(&mut rng, &s.primed, &cdf, 1, READ_RATE, mixed_s, "f");
    if wires.len() > 1 {
        plans.push(writes(&s, &inputs, mixed_s, 0));
    }
    let mixed = measure_phase(&mut wires[..plans.len()], &plans, gen_cpu);
    out.attempted += mixed.attempted;
    out.fail_n(
        mixed.failed,
        mixed.errors.first().cloned().unwrap_or_default(),
    );

    drop(spinner);
    let sat = saturation(
        &mut wires,
        &s.primed,
        &cdf,
        opts.seed,
        opts.seconds * 0.3,
        gen_cpu,
    );
    out.attempted += sat.done + sat.failed;
    out.fail_n(sat.failed, "request failed under saturation".into());

    let reads = |c: u8| c < COLD;
    let latencies = |class: u8| -> Vec<f64> {
        mixed
            .timed
            .iter()
            .filter(|t| t.1 == class)
            .map(|t| t.2)
            .collect()
    };
    // One window per cold-predict period, so every window holds the same
    // mix of writes.
    let window = (COLD_GAP_S * 1e9) as u64;
    let p50 = mixed.windowed(0.5, window, reads);
    let p90 = mixed.windowed(0.9, window, reads);
    let p99 = mixed.windowed(0.99, window, reads);
    let predict_p90 = mixed.windowed(0.9, window, |c| c == PREDICT);
    // Goodput: reads per second answered within the latency limit while
    // the writes run. Saturated capacity through the router is a detail:
    // it tracks the host's CPU speed more than the program.
    let goodput = mixed
        .timed
        .iter()
        .filter(|t| reads(t.1) && t.2 <= LIMIT_US)
        .count() as f64
        / mixed_s;
    let cold_ms = median(&latencies(COLD)) / 1e3;
    let des_ms = median(&latencies(DES)) / 1e3;
    out.metric("p50_us", "us", p50);
    out.detail("tail_us", "us", predict_p90);
    out.metric("heavy_ms", "ms", des_ms);
    out.metric("rate_per_s", "1/s", goodput);
    out.detail("goodput_rps", "1/s", goodput);
    out.detail("predict_p90_us", "us", predict_p90);
    out.detail("rtt_p50_us", "us", p50);
    out.detail("rtt_p90_us", "us", p90);
    out.detail("rtt_p99_us", "us", p99);
    out.detail("heavy_p50_ms", "ms", des_ms);
    out.detail("cold_s", "s", cold_ms / 1e3);
    out.detail("peak_rps", "1/s", sat.wall_rps);
    out.detail("cpu_rps", "1/s", sat.cpu_rps);
    out.layer("gen.late_p99_us", "us", quantile(&mixed.late_us, 0.99));
    out.layer("gen.backlog_end", "count", mixed.backlog_end as f64);
    if opts.trace {
        fleet_layers(&mut out, &s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_a_distribution_skewed_to_rank_one() {
        let cdf = zipf_cdf(8, ZIPF_S);
        assert!((cdf[7] - 1.0).abs() < 1e-12);
        assert!(cdf[0] > 1.0 - cdf[6]);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn inputs_follow_the_seed() {
        let (a, b, c) = (inputs(9), inputs(9), inputs(10));
        assert_eq!(a.tenants, b.tenants);
        assert_ne!(a.tenants, c.tenants);
        assert_eq!(a.des[0].1.hash(), b.des[0].1.hash());
        assert_eq!(cold_config(a.cold_seed, 3), cold_config(b.cold_seed, 3));
        assert_ne!(cold_config(a.cold_seed, 3), cold_config(a.cold_seed, 4));
    }

    #[test]
    fn every_seed_spreads_the_same_load_over_the_members() {
        for seed in [1, 2] {
            let i = inputs(seed);
            let leaders: Vec<usize> = i.tenants.iter().map(leader).collect();
            assert_eq!(leaders, (0..TENANTS).map(|t| t % NODES).collect::<Vec<_>>());
            assert_eq!(leader(&cold_config(i.cold_seed, 4)), 4 % NODES);
        }
    }
}
