//! In-process serving nodes: a `Service` (or a fleet member wrapping
//! one) behind the reactor engine on an ephemeral local port.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cpm_estimate::EstimateConfig;
use cpm_serve::{LineHandler, Service, ServiceConfig};

/// Event-loop shards per serving node.
pub const SHARDS: usize = 1;

/// A running node; dropping it stops the reactor and joins its threads.
pub struct Node {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    /// The service behind the node.
    pub service: Arc<Service>,
}

impl Node {
    /// The node's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the reactor and waits for every shard thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A service over a fresh store at `dir`, estimating cold clusters with
/// one-repetition series.
pub fn open_service(dir: &Path, seed: u64) -> std::io::Result<Arc<Service>> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ServiceConfig {
        est: EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(seed)
        },
        ..ServiceConfig::default()
    };
    Service::open(dir, cfg)
        .map(Arc::new)
        .map_err(|e| std::io::Error::other(e.to_string()))
}

/// Serves `handler` (which must answer for `service`) on `listener` with
/// the reactor engine, its shard threads pinned to `cpu` when given.
pub fn spawn(
    service: Arc<Service>,
    handler: Arc<dyn LineHandler>,
    listener: TcpListener,
    shards: usize,
    cpu: Option<usize>,
) -> std::io::Result<Node> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let metrics = service.metrics();
    let telemetry = cpm_reactor::Telemetry {
        connections_active: Some(metrics.connections_active().clone()),
        frames_json: Some(metrics.frames_json().clone()),
        frames_binary: Some(metrics.frames_binary().clone()),
    };
    let cfg = cpm_reactor::Config {
        shards,
        idle_timeout: None,
        ..cpm_reactor::Config::default()
    };
    let lines: Arc<dyn cpm_reactor::Handler> =
        Arc::new(move |payload: &str| handler.handle_line(payload));
    let flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        if let Some(cpu) = cpu {
            crate::util::pin_to(cpu);
        }
        let _ = cpm_reactor::run(listener, lines, cfg, telemetry, flag);
    });
    Ok(Node {
        addr,
        stop,
        thread: Some(thread),
        service,
    })
}

/// A plain (non-fleet) serving node over a fresh store.
pub fn plain_node(dir: &Path, seed: u64, cpu: Option<usize>) -> std::io::Result<Node> {
    let service = open_service(dir, seed)?;
    let handler: Arc<dyn LineHandler> = Arc::clone(&service) as Arc<dyn LineHandler>;
    spawn(
        service,
        handler,
        TcpListener::bind("127.0.0.1:0")?,
        SHARDS,
        cpu,
    )
}

/// A per-process scratch directory under `out`, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Creates `out/<name>-<pid>`.
    pub fn new(out: &Path, name: &str) -> Scratch {
        let dir = out.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
