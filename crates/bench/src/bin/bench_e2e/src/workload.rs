//! The four workloads: their inputs, the serving stack they run against,
//! and the load generator.
//!
//! Every workload serves a hash-sharded corpus of uniform disks over
//! localhost TCP (`NetServer` over one `Mutex<Dispatcher>`). Readers are a
//! closed loop: each owns one `NetClient` connection and sends its next
//! batch only when the previous reply has arrived. The writer makes
//! update ticks: remove+insert pairs, then a snapshot, the exact view, and
//! a dispatcher refresh. On `churn-nn` it runs beside the readers as an
//! open loop on a fixed period; in the traced run of the other workloads
//! it runs after the read window, one tick after another, so every
//! workload reports what a write costs on its corpus.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn_distr::Uncertain;
use unn_dynamic::PointId;
use unn_geom::Point;
use unn_net::{tcp_connector, ClientConfig, NetClient, NetServer, ServerConfig};
use unn_observe::{Clock, MonotonicClock};
use unn_serve::{
    DispatchConfig, Dispatcher, EngineShard, Outcome, Reply, Request, ServeConfig, ShardBackend,
    ShardPolicy, ShardSet, ShardSetSnapshot,
};

use crate::oracle::{self, Sampled};
use crate::trace::{timed, Tracer};

/// Shards every workload's corpus is hashed over.
pub const SHARDS: usize = 4;
/// Remove+insert pairs per writer tick. At 16 pairs every 20 ms the
/// writer's compactions competed with `churn-nn`'s reader for the second
/// core so unevenly that the reader's qps varied 13 % between runs on the
/// same inputs, against 7 % at 4 pairs.
pub const TICK_PAIRS: usize = 4;
/// The open-loop writer's period on `churn-nn`.
pub const TICK_PERIOD: Duration = Duration::from_millis(20);
/// One batch in this many is checked against an answer oracle.
pub const ORACLE_EVERY: u64 = 64;
/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What a workload's readers ask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Request::NnNonzero`.
    Nn,
    /// `Request::Quantify`.
    Quantify,
}

/// One workload.
#[derive(Debug)]
pub struct Spec {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the benchmark has it (one line).
    pub why: &'static str,
    /// Corpus size.
    pub n: usize,
    /// Monte-Carlo rounds per block.
    pub s: usize,
    /// Request kind.
    pub kind: Kind,
    /// Requests per batch.
    pub batch: usize,
    /// Closed-loop reader threads, one connection each.
    pub readers: usize,
    /// The dispatcher holds the snapshot's exact view, as
    /// `Dispatcher::for_snapshot` sets it up; without it the ladder starts
    /// at the adaptive tier.
    pub exact_view: bool,
    /// The writer runs beside the readers during the window.
    pub churn: bool,
    /// The additive error the dispatcher is asked to certify; a quantify
    /// answer certifying more counts as failed.
    pub epsilon: f64,
}

/// The workloads, in the order a full run visits them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "nn-static",
        why: "NN!=0 batches cost microseconds, so dispatch fan-out, per-batch thread spawn and transport show",
        n: 16_384,
        s: 64,
        kind: Kind::Nn,
        batch: 32,
        readers: 2,
        exact_view: false,
        churn: false,
        epsilon: 0.05,
    },
    Spec {
        name: "mc-static",
        why: "adaptive Monte-Carlo quantify in isolation; 64 KB replies per query load the wire layer",
        n: 4_096,
        s: 192,
        kind: Kind::Quantify,
        batch: 16,
        readers: 2,
        exact_view: false,
        churn: false,
        // 192 rounds certify a half-width of 0.2022 over 4096 points at
        // delta = 0.01, so every answer spends all its rounds today and a
        // better stopping rule has room to stop early at the same bound.
        epsilon: 0.21,
    },
    Spec {
        name: "ladder-numeric",
        why: "the default admission ladder answers every query on the exact-numeric tier while MC could certify it",
        n: 256,
        s: 4_096,
        kind: Kind::Quantify,
        batch: 1,
        readers: 2,
        exact_view: true,
        churn: false,
        epsilon: 0.05,
    },
    Spec {
        name: "churn-nn",
        why: "NN!=0 reads beside an open-loop writer, so a read gain that costs writes (or the reverse) shows",
        n: 4_096,
        s: 192,
        kind: Kind::Nn,
        batch: 32,
        readers: 1,
        exact_view: true,
        churn: true,
        epsilon: 0.05,
    },
];

/// The workload named `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The shard set's configuration (its ε/δ feed the oracles).
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            mc_rounds: self.s,
            epsilon: self.epsilon,
            ..ServeConfig::default()
        }
    }

    /// The dispatcher's configuration: the defaults, asked for `epsilon`.
    pub fn dispatch_config(&self) -> DispatchConfig {
        DispatchConfig {
            epsilon: self.epsilon,
            ..DispatchConfig::default()
        }
    }

    /// A dispatcher serving `snap` the way this workload's server does.
    /// `wrap` turns each shard's production backend into the one served
    /// (the traced replay wraps it; the server keeps it).
    pub fn dispatcher(
        &self,
        snap: &ShardSetSnapshot,
        wrap: impl Fn(EngineShard) -> Box<dyn ShardBackend>,
    ) -> Dispatcher {
        let clock = clock();
        let backends = snap
            .shards()
            .iter()
            .map(|s| wrap(EngineShard::new(s.clone(), Arc::clone(&clock))))
            .collect();
        let exact = self.exact_view.then(|| snap.exact_view());
        Dispatcher::new(backends, exact, self.dispatch_config(), clock)
            .expect("the workload's dispatch config is valid")
    }

    /// Batch `idx` of request stream `stream`: uniform query points in
    /// [0,100]², a pure function of the seed, stream and index.
    pub fn batch(&self, seed: u64, stream: u64, idx: u64) -> Vec<Request> {
        let mut rng = SmallRng::seed_from_u64(mix(mix(mix(seed) ^ stream) ^ idx));
        (0..self.batch)
            .map(|_| {
                let q = Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0));
                match self.kind {
                    Kind::Nn => Request::NnNonzero(q),
                    Kind::Quantify => Request::Quantify(q),
                }
            })
            .collect()
    }
}

/// The wall clock the dispatchers time shard calls with.
pub fn clock() -> Arc<dyn Clock + Send + Sync> {
    Arc::new(MonotonicClock)
}

/// splitmix64 finalizer, for deriving independent streams from the seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A disk with centre uniform in [0,100]² and radius uniform in [0.5,2].
pub fn disk(rng: &mut SmallRng) -> Uncertain {
    Uncertain::uniform_disk(
        Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)),
        rng.random_range(0.5..2.0),
    )
}

/// The corpus of `n` disks for `seed`.
pub fn corpus(seed: u64, n: usize) -> Vec<Uncertain> {
    let mut rng = SmallRng::seed_from_u64(mix(seed ^ 0xc0_4905));
    (0..n).map(|_| disk(&mut rng)).collect()
}

/// Request id of batch `idx` on stream `stream` (spans of one batch share
/// it).
pub fn rid(stream: u64, idx: u64) -> u64 {
    (stream << 40) | idx
}

/// The serving stack one run drives.
pub struct Stack {
    /// The live shard set (the writer mutates it).
    pub set: ShardSet,
    /// The snapshot the server started from: the static workloads' oracle.
    pub snap: ShardSetSnapshot,
    /// What the server serves from.
    pub dispatcher: Arc<Mutex<Dispatcher>>,
    /// The latest refresh: its tick count and snapshot, published while the
    /// dispatcher lock is held so a reader can tell which one served it.
    pub published: Mutex<(u64, ShardSetSnapshot)>,
    /// One connection per reader.
    pub clients: Vec<NetClient>,
    server: NetServer,
}

impl Stack {
    /// Builds the stack from the corpus and returns it with the seconds
    /// from corpus in hand to the first successful handshake: shard builds,
    /// exact-view materialization, bind, connect and handshake.
    pub fn build(spec: &Spec, corpus: &[Uncertain]) -> Result<(Stack, f64), String> {
        let points = corpus.to_vec();
        let start = Instant::now();
        let mut set = ShardSet::new(SHARDS, ShardPolicy::Hash, spec.serve_config())
            .map_err(|e| format!("shard set: {e}"))?;
        for p in points {
            set.insert(p);
        }
        let snap = set.snapshot();
        let dispatcher = Arc::new(Mutex::new(spec.dispatcher(&snap, |e| Box::new(e))));
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&dispatcher),
            ServerConfig::default(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let connect = || {
            NetClient::new(
                tcp_connector(server.local_addr(), Duration::from_secs(60)),
                ClientConfig::default(),
                clock(),
            )
        };
        let mut first = connect();
        first.connect().map_err(|e| format!("handshake: {e}"))?;
        let setup_s = start.elapsed().as_secs_f64();
        let mut clients = vec![first];
        for _ in 1..spec.readers {
            let mut c = connect();
            c.connect().map_err(|e| format!("handshake: {e}"))?;
            clients.push(c);
        }
        let stack = Stack {
            set,
            published: Mutex::new((0, snap.clone())),
            snap,
            dispatcher,
            clients,
            server,
        };
        Ok((stack, setup_s))
    }

    /// Stops the server and waits for its threads.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }

    /// Retried attempts and reconnects over every reader connection.
    pub fn transport_faults(&self) -> (u64, u64) {
        self.clients.iter().fold((0, 0), |(r, c), client| {
            let s = client.stats();
            (r + s.retried_attempts, c + s.reconnects)
        })
    }

    /// A copy of the server dispatcher's counters.
    pub fn serve_counters(&self) -> unn_observe::ServeCounters {
        lock(&self.dispatcher).metrics().clone()
    }
}

/// Locks the server's dispatcher.
pub fn lock(d: &Mutex<Dispatcher>) -> std::sync::MutexGuard<'_, Dispatcher> {
    d.lock()
        .expect("dispatcher lock poisoned: a server thread panicked while serving")
}

/// The writer's state: its random stream and the ids it may remove.
pub struct Writer {
    rng: SmallRng,
    live: Vec<PointId>,
    ticks: u64,
    /// Removes and inserts made so far.
    pub updates: u64,
}

impl Writer {
    /// A writer over the stack's live ids.
    pub fn new(seed: u64, stack: &Stack) -> Writer {
        Writer {
            rng: SmallRng::seed_from_u64(mix(seed ^ 0x3717e5)),
            live: stack.snap.live_ids().to_vec(),
            ticks: 0,
            updates: 0,
        }
    }
}

/// One writer tick's timeline.
#[derive(Clone, Copy, Debug)]
pub struct Tick {
    /// When the schedule wanted it to start.
    pub due: Instant,
    /// When it started.
    pub start: Instant,
    /// When its refresh returned.
    pub end: Instant,
    /// Every remove found its victim live.
    pub ok: bool,
}

/// One update tick: `TICK_PAIRS` remove+insert pairs, a snapshot, the
/// snapshot's exact view (which `refresh` would otherwise materialize
/// inside the dispatcher lock), and the dispatcher refresh.
fn tick(
    set: &mut ShardSet,
    w: &mut Writer,
    dispatcher: &Mutex<Dispatcher>,
    published: &Mutex<(u64, ShardSetSnapshot)>,
    tracer: Option<&Tracer>,
) -> bool {
    w.ticks += 1;
    let rid = w.ticks;
    let root = tracer.map(|t| t.open("writer.tick", None, rid));
    let mut ok = true;
    for _ in 0..TICK_PAIRS {
        let victim = w.live.swap_remove(w.rng.random_range(0..w.live.len()));
        ok &= timed(tracer, "dynamic.remove", root, rid, || set.remove(victim));
        let p = disk(&mut w.rng);
        w.live
            .push(timed(tracer, "dynamic.insert", root, rid, || set.insert(p)));
    }
    w.updates += 2 * TICK_PAIRS as u64;
    let snap = timed(tracer, "dynamic.snapshot", root, rid, || set.snapshot());
    timed(tracer, "dynamic.exact_view", root, rid, || {
        snap.exact_view()
    });
    {
        let mut d = lock(dispatcher);
        timed(tracer, "serve.refresh", root, rid, || d.refresh(&snap));
        *published
            .lock()
            .expect("no thread panics holding the published snapshot") = (w.ticks, snap);
    }
    if let (Some(t), Some(r)) = (tracer, root) {
        t.close(r);
    }
    ok
}

/// Runs ticks until `until`: one every `period` from now (open loop), or
/// one after another when `period` is `None`, each due when the last ends.
fn write_loop(
    set: &mut ShardSet,
    w: &mut Writer,
    dispatcher: &Mutex<Dispatcher>,
    published: &Mutex<(u64, ShardSetSnapshot)>,
    period: Option<Duration>,
    until: Instant,
    tracer: Option<&Tracer>,
) -> Vec<Tick> {
    let origin = Instant::now();
    let mut ticks: Vec<Tick> = Vec::new();
    loop {
        let due = match period {
            Some(p) => origin + p * ticks.len() as u32,
            None => ticks.last().map_or(origin, |t| t.end),
        };
        if due >= until {
            return ticks;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let start = Instant::now();
        let ok = tick(set, w, dispatcher, published, tracer);
        ticks.push(Tick {
            due,
            start,
            end: Instant::now(),
            ok,
        });
    }
}

/// What one reader saw in a phase.
#[derive(Default)]
pub struct ReaderOut {
    /// Round-trip time of every batch, in milliseconds.
    pub rtt_ms: Vec<f64>,
    /// Requests sent.
    pub queries: u64,
    /// Requests that failed (see [`failed`]).
    pub failed: u64,
    /// Fingerprints of the sampled batches, checked after the window.
    pub sampled: Vec<Sampled>,
    /// Batches checked against an oracle during the phase.
    pub checked: u64,
    /// Oracle mismatches found during the phase.
    pub mismatches: Vec<String>,
    /// The first transport error, if any.
    pub error: Option<String>,
    /// When the reader's last reply arrived.
    pub end: Option<Instant>,
}

/// True when a reply does not count as served: shed, partial, or certifying
/// less than the requested `eps` (the exact tier certifies 0).
pub fn failed(r: &Reply, eps: f64) -> bool {
    match &r.outcome {
        Outcome::Shed { .. } => true,
        _ if r.partial() => true,
        Outcome::Adaptive {
            achieved_epsilon, ..
        }
        | Outcome::Capped {
            achieved_epsilon, ..
        } => *achieved_epsilon > eps,
        Outcome::Nonzero { .. } | Outcome::Exact { .. } => false,
    }
}

/// Settings of one load phase.
pub struct Phase<'a> {
    /// The run's seed.
    pub seed: u64,
    /// Reader `c` sends stream `first_stream + c` from batch 0.
    pub first_stream: u64,
    /// Phase length.
    pub length: Duration,
    /// Check one batch in [`ORACLE_EVERY`].
    pub sample: bool,
    /// Records spans when present.
    pub tracer: Option<&'a Tracer>,
}

/// What a load phase produced.
pub struct PhaseOut {
    /// Per-reader results.
    pub readers: Vec<ReaderOut>,
    /// The writer's ticks (empty unless the workload churns).
    pub ticks: Vec<Tick>,
    /// From the phase start to the last reply.
    pub wall: Duration,
}

/// Runs the readers (and, on a churning workload, the open-loop writer)
/// for `phase.length`.
pub fn run_phase(spec: &Spec, stack: &mut Stack, writer: &mut Writer, phase: &Phase) -> PhaseOut {
    let start = Instant::now();
    let until = start + phase.length;
    let Stack {
        set,
        dispatcher,
        published,
        clients,
        ..
    } = stack;
    let (published, dispatcher) = (&*published, &**dispatcher);
    let (readers, ticks) = std::thread::scope(|sc| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let stream = phase.first_stream + c as u64;
                sc.spawn(move || read_loop(spec, client, stream, until, phase, published))
            })
            .collect();
        let ticks = if spec.churn {
            write_loop(
                set,
                writer,
                dispatcher,
                published,
                Some(TICK_PERIOD),
                until,
                phase.tracer,
            )
        } else {
            Vec::new()
        };
        let readers: Vec<ReaderOut> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (readers, ticks)
    });
    let last = readers.iter().filter_map(|r| r.end).max().unwrap_or(until);
    PhaseOut {
        readers,
        ticks,
        wall: last.duration_since(start),
    }
}

/// Runs the writer alone, tick after tick, for `length` (the static
/// workloads' update measurement).
pub fn run_writes(
    stack: &mut Stack,
    writer: &mut Writer,
    length: Duration,
    tracer: Option<&Tracer>,
) -> Vec<Tick> {
    let until = Instant::now() + length;
    write_loop(
        &mut stack.set,
        writer,
        &stack.dispatcher,
        &stack.published,
        None,
        until,
        tracer,
    )
}

fn read_loop(
    spec: &Spec,
    client: &mut NetClient,
    stream: u64,
    until: Instant,
    phase: &Phase,
    published: &Mutex<(u64, ShardSetSnapshot)>,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let current = || {
        published
            .lock()
            .expect("no thread panics holding the published snapshot")
            .clone()
    };
    // A churn sample whose reply may have raced a refresh moves to the next
    // batch: the served snapshot is known only when no refresh was
    // published while the batch was in flight.
    let mut pending = false;
    let mut idx = 0u64;
    while Instant::now() < until {
        let reqs = spec.batch(phase.seed, stream, idx);
        let sample = phase.sample && (pending || idx.is_multiple_of(ORACLE_EVERY));
        let before = (sample && spec.churn).then(current);
        let t0 = Instant::now();
        let res = client.serve(&reqs);
        let t1 = Instant::now();
        if let Some(t) = phase.tracer {
            t.record("net.serve", None, rid(stream, idx), t0, t1);
        }
        out.rtt_ms.push((t1 - t0).as_secs_f64() * 1e3);
        out.queries += reqs.len() as u64;
        match res {
            Err(e) => {
                out.failed += reqs.len() as u64;
                out.error.get_or_insert_with(|| e.to_string());
            }
            Ok(replies) => {
                out.failed += replies.iter().filter(|r| failed(r, spec.epsilon)).count() as u64;
                if let Some((epoch, snap)) = before {
                    pending = current().0 != epoch;
                    if !pending {
                        out.checked += 1;
                        if let Err(e) = oracle::check(spec, &snap, &reqs, &replies) {
                            out.mismatches
                                .push(format!("stream {stream} batch {idx}: {e}"));
                        }
                    }
                } else if sample {
                    out.sampled.push(Sampled::of(stream, idx, &replies));
                }
            }
        }
        out.end = Some(t1);
        idx += 1;
    }
    out
}
