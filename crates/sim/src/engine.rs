//! The simulation engine: world + infrastructure + protocol driver.

use crate::{check_answer, DownlinkMode, EpisodeMetrics, SimConfig, SnapshotOracle, VerifyMode};
use mknn_core::ShardCoordinator;
use mknn_geom::{Circle, ObjectId, Point, QueryId, Tick};
use mknn_index::{GridIndex, Neighbor};
use mknn_mobility::World;
use mknn_net::{
    AnswerUpdate, CrashWindow, Delivery, DownlinkBuilder, DownlinkMsg, FaultPlan, FaultyLink,
    MsgKind, NetStats, ObjReport, OpCounters, Outbox, ProbeService, Protocol, QuerySpec,
    QueryStreams, Recipient, ReplStore, ServerPhase, ShardTask, UplinkMsg, Uplinks, Wire,
    LINK_HEADER_BITS,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// A coordinator side effect recorded by a [`ShardProbe`] during the
/// parallel server phase. The coordinator is shared *read-only* across the
/// phase's worker threads, so its mutating charges (backbone legs, shard
/// load bumps, backbone fault draws) are logged per shard and replayed in
/// ascending shard order after the phase — the replay order is a pure
/// function of the shard partition, so metrics are identical at any thread
/// count, and at `G = 1` the single log preserves the exact monolithic
/// charge order.
enum CoordCharge {
    /// `probe` scattered a zone to its covering shards.
    ProbeScatter { query: QueryId, zone: Circle },
    /// Delivered probe replies surfaced at `shard` and merge at the home.
    ProbeGather {
        query: QueryId,
        shard: u32,
        count: usize,
    },
    /// `poll` paged a device at `pos` (request leg).
    RouteUnicast {
        query: QueryId,
        pos: Point,
        bytes: usize,
    },
    /// `poll`'s reply surfaced at the shard owning `pos` (reply leg).
    RouteUplink {
        query: QueryId,
        pos: Point,
        bytes: usize,
    },
}

/// Per-shard accumulation buffer for one server phase: everything a shard's
/// worker produces that must merge into engine-global state afterwards.
#[derive(Default)]
struct ShardBuf {
    /// Device-facing traffic this shard's probes charged (commutative
    /// counters; merged in ascending shard order).
    stats: NetStats,
    /// The fault-fate streams of this shard's homed queries, moved out of
    /// the [`FaultyLink`] for the phase and restored afterwards. `None` on
    /// a perfect link.
    streams: Option<QueryStreams>,
    /// Deferred coordinator charges, in issue order.
    charges: Vec<CoordCharge>,
    /// Probe deliveries to stage on the scoped downlink builder (empty in
    /// legacy mode).
    staged: Vec<(ObjectId, DownlinkMsg, Delivery)>,
}

/// The harness's synchronous probe channel, one per server shard: answers
/// from true positions, charging every probe geocast/unicast and every
/// reply before returning.
///
/// A probe round trip is one synchronous RPC, so the fault layer only
/// applies **loss and churn** to it (a duplicated or delayed reply is
/// indistinguishable from a lost one to a caller that waits exactly one
/// round): the request leg can fail with the downlink loss rate, the reply
/// leg with the uplink loss rate, and offline devices never answer.
///
/// It is safe to drive from a worker thread: shared engine state (`infra`,
/// the position slices, `coord`, the offline mask) is read-only, and
/// everything it must mutate — traffic counters, fault draws from this
/// shard's query streams, coordinator charges, builder stagings — lands in
/// the shard's own [`ShardBuf`], which [`replay_shard_bufs`] merges in
/// ascending shard order after the phase. Init drives a one-shard probe
/// the same way.
struct ShardProbe<'a> {
    infra: &'a GridIndex,
    /// True positions and velocities, indexed by `ObjectId::index` (the
    /// slices, not the [`World`], which is not `Sync` across workers).
    pos: &'a [Point],
    vel: &'a [mknn_geom::Vector],
    /// This tick's offline mask (present iff a fault link is active).
    offline: Option<&'a [bool]>,
    /// The fault plan, copied out of the link (`None` on a perfect link).
    plan: Option<FaultPlan>,
    tick: Tick,
    /// Scoped downlink mode: probe request legs are staged into frames
    /// (priced per interested device) instead of charged per message.
    scoped: bool,
    coord: &'a mknn_core::ShardCoordinator,
    buf: &'a mut ShardBuf,
}

impl ShardProbe<'_> {
    fn is_offline(&self, idx: usize) -> bool {
        self.offline
            .is_some_and(|m| m.get(idx).copied().unwrap_or(false))
    }

    /// One probe-leg loss draw from `query`'s fate stream — the same gate
    /// and draw as [`FaultyLink::probe_leg_lost`], against the split-out
    /// copy of the stream.
    fn leg_lost(&mut self, query: QueryId, loss: f64) -> bool {
        match (&self.plan, self.buf.streams.as_mut()) {
            (Some(plan), Some(streams)) if plan.active_at(self.tick) => {
                plan.draw_leg_lost(streams.rng(query), loss, &mut self.buf.stats)
            }
            _ => false,
        }
    }
}

impl ProbeService for ShardProbe<'_> {
    fn probe(&mut self, query: QueryId, zone: Circle, exclude: ObjectId) -> Vec<ObjReport> {
        let msg = DownlinkMsg::Probe { query, zone };
        let cells = self.infra.cells_overlapping(&zone);
        let bytes = if self.scoped { 0 } else { msg.size_bytes() };
        self.buf.stats.count_geocast(MsgKind::Probe, bytes, cells);
        self.buf
            .charges
            .push(CoordCharge::ProbeScatter { query, zone });
        let down_loss = self.plan.map_or(0.0, |p| p.down_loss);
        let up_loss = self.plan.map_or(0.0, |p| p.up_loss);
        let mut out = Vec::new();
        for n in self.infra.range(&zone) {
            if n.id == exclude {
                continue;
            }
            let mut delivery = Delivery::Delivered;
            if self.is_offline(n.id.index()) {
                self.buf.stats.count_dropped();
                delivery = Delivery::Offline;
            } else if self.leg_lost(query, down_loss) {
                delivery = Delivery::Lost;
            }
            if self.scoped {
                self.buf.staged.push((n.id, msg, delivery));
            }
            if delivery != Delivery::Delivered {
                continue;
            }
            let (pos, vel) = (self.pos[n.id.index()], self.vel[n.id.index()]);
            let reply = UplinkMsg::ProbeReply { query, pos, vel };
            self.buf
                .stats
                .count_uplink(MsgKind::ProbeReply, reply.size_bytes());
            if self.leg_lost(query, up_loss) {
                continue;
            }
            out.push(ObjReport { id: n.id, pos, vel });
        }
        let mut per_shard: BTreeMap<u32, usize> = BTreeMap::new();
        for r in &out {
            *per_shard.entry(self.coord.shard_of(r.pos)).or_insert(0) += 1;
        }
        for (shard, count) in per_shard {
            self.buf.charges.push(CoordCharge::ProbeGather {
                query,
                shard,
                count,
            });
        }
        out
    }

    fn poll(&mut self, query: QueryId, id: ObjectId) -> Option<ObjReport> {
        // Ids the world does not track — foreign or beyond the population —
        // get `None` without charging any traffic: there is no device to
        // page. World ids are dense, so the bounds check alone identifies
        // the device.
        if id.index() >= self.pos.len() {
            return None;
        }
        let (pos, vel) = (self.pos[id.index()], self.vel[id.index()]);
        let ask = DownlinkMsg::Probe {
            query,
            zone: Circle::new(pos, 0.0),
        };
        let bytes = if self.scoped { 0 } else { ask.size_bytes() };
        self.buf.stats.count_unicast(MsgKind::Probe, bytes);
        self.buf.charges.push(CoordCharge::RouteUnicast {
            query,
            pos,
            bytes: ask.size_bytes(),
        });
        let mut delivery = Delivery::Delivered;
        if self.is_offline(id.index()) {
            self.buf.stats.count_dropped();
            delivery = Delivery::Offline;
        } else if self.leg_lost(query, self.plan.map_or(0.0, |p| p.down_loss)) {
            delivery = Delivery::Lost;
        }
        if self.scoped {
            self.buf.staged.push((id, ask, delivery));
        }
        if delivery != Delivery::Delivered {
            return None;
        }
        let reply = UplinkMsg::ProbeReply { query, pos, vel };
        self.buf
            .stats
            .count_uplink(MsgKind::ProbeReply, reply.size_bytes());
        self.buf.charges.push(CoordCharge::RouteUplink {
            query,
            pos,
            bytes: reply.size_bytes(),
        });
        if self.leg_lost(query, self.plan.map_or(0.0, |p| p.up_loss)) {
            return None;
        }
        Some(ObjReport { id, pos, vel })
    }
}

/// A running episode: steps the world, drives the protocol, routes and
/// charges all traffic, and verifies answers.
pub struct Simulation {
    world: World,
    proto: Box<dyn Protocol>,
    specs: Vec<QuerySpec>,
    infra: GridIndex,
    inboxes: Vec<Vec<DownlinkMsg>>,
    verify: VerifyMode,
    metrics: EpisodeMetrics,
    tick: Tick,
    planned_ticks: u64,
    series: Option<crate::TickSeries>,
    /// Fault-injection layer; `None` under [`mknn_net::FaultPlan::none`], so
    /// the perfect-link fast path is the exact pre-fault code path.
    link: Option<FaultyLink>,
    /// Per query: how many consecutive oracle checks have been inexact
    /// (feeds the staleness metrics).
    stale_streak: Vec<u64>,
    /// The sharded server tier's routing overlay (DESIGN.md §9). Always
    /// present — at `shards = 1` every leg is intra-shard, so the overlay
    /// never charges and the episode is byte-identical to the pre-shard
    /// engine.
    coord: ShardCoordinator,
    /// Verify with the `O(N)`-per-query brute-force scan instead of the
    /// per-tick snapshot index (`MKNN_ORACLE=brute`). Results are
    /// byte-identical either way — the switch exists so the equivalence and
    /// speedup gates in `scripts/verify.sh` can run both paths.
    oracle_brute: bool,
    /// Worker pool for the chunked client phase (DESIGN.md §5.2). Resolved
    /// once at construction — from `SimConfig::client_threads` when pinned,
    /// else from `MKNN_THREADS` — so a mid-episode environment change cannot
    /// alter chunking.
    pool: mknn_util::Pool,
    /// Interest-scoped downlink replication (DESIGN.md §10): per-device
    /// delta/ack state, driving the frame batching in `route`. Only
    /// consulted when `scoped` is set.
    repl: ReplStore,
    /// Whether `SimConfig::downlink` selected the scoped byte model.
    scoped: bool,
    /// The downlink route's geocast interest set, refilled in place per
    /// geocast so scoping allocates nothing in steady state.
    scope_buf: Vec<Neighbor>,
    /// Per query: the answer list most recently pushed to its focal device
    /// (rank order for ordered protocols, canonical ascending-id order
    /// otherwise). The push trigger — replicate when the maintained answer
    /// differs from this — is mode-independent, so legacy and scoped
    /// episodes push at exactly the same ticks.
    last_sent: Vec<Vec<ObjectId>>,
    /// The episode's planned shard-crash windows (DESIGN.md §11), resolved
    /// once at construction from the fault plan — a pure function of
    /// `(plan, seed, shards, ticks)`, so reruns and thread counts agree.
    /// Empty without a link or under a crash-free plan.
    crashes: Vec<CrashWindow>,
    /// This tick's per-device offline mask, kept across ticks so the hot
    /// loop refills it in place instead of allocating O(N) every tick.
    /// Only meaningful during a tick of a faulty episode.
    offline_buf: Vec<bool>,
}

/// Salt for the fault layer's RNG stream: the link must not replay the
/// workload generator's draws even though both derive from the same
/// per-episode seed (which the sweep planner offsets per plan position, so
/// fault sequences stay byte-identical at any thread count).
const FAULT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

impl Simulation {
    /// Builds the world from `config`, registers the queries, and runs the
    /// protocol's init handshake (its traffic is charged like any other).
    ///
    /// When `config.fault` is a real plan, the protocol is told via
    /// [`Protocol::set_lossy`] before init, and [`VerifyMode::Assert`] is
    /// downgraded to [`VerifyMode::Record`] — under faults even a hardened
    /// exact method is transiently wrong, which is precisely what the
    /// recorded recall/staleness metrics measure. The init handshake itself
    /// always runs fault-free: query registration models a wired setup
    /// step, not mobile radio traffic.
    pub fn new(config: &SimConfig, mut proto: Box<dyn Protocol>) -> Self {
        let link = (!config.fault.is_none())
            .then(|| FaultyLink::new(config.fault, config.workload.seed ^ FAULT_SEED_SALT));
        let crashes = link
            .as_ref()
            .map(|l| l.crash_schedule(config.shards, config.ticks))
            .unwrap_or_default();
        if link.is_some() {
            proto.set_lossy(true);
        }
        let verify = if link.is_some() && config.verify == VerifyMode::Assert {
            VerifyMode::Record
        } else {
            config.verify
        };
        let world = config.workload.build();
        let bounds = world.bounds();
        let specs: Vec<QuerySpec> = config
            .focal_ids()
            .iter()
            .enumerate()
            .map(|(i, &focal)| QuerySpec {
                id: QueryId(i as u32),
                focal: ObjectId(focal),
                k: config.k,
            })
            .collect();
        // One bulk load instead of N upserts: identical structure (same
        // per-cell member order), no per-object reallocation churn.
        let infra =
            GridIndex::bulk_load(bounds, config.geo_cells, config.geo_cells, world.snapshot());
        let mut metrics = EpisodeMetrics {
            method: proto.name().to_string(),
            ticks: 0,
            n_objects: config.workload.n_objects,
            n_queries: config.n_queries,
            k: config.k,
            ..EpisodeMetrics::default()
        };
        let mut inboxes: Vec<Vec<DownlinkMsg>> = vec![Vec::new(); world.len()];

        // Shard tier: seed every ownership before any traffic flows (a
        // first sighting is registration, not a boundary crossing, so
        // nothing is charged here).
        let mut coord = ShardCoordinator::new(bounds, config.shards);
        for (i, &pos) in world.positions().iter().enumerate() {
            coord.track_object(
                ObjectId(i as u32),
                pos,
                world.velocities()[i],
                &mut metrics.net,
                None,
            );
        }
        for spec in &specs {
            let focal = world.position(spec.focal);
            coord.track_query(spec.id, focal, config.k, &mut metrics.net, None);
        }

        // Init handshake at tick 0.
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        let t0 = Instant::now();
        let scoped = config.downlink == DownlinkMode::Scoped;
        let pool = match config.client_threads {
            Some(t) => mknn_util::Pool::new(t),
            None => mknn_util::Pool::from_env(),
        };
        let mut repl = ReplStore::with_pool(pool);
        let mut last_sent = vec![Vec::new(); specs.len()];
        let mut builder = scoped.then(|| repl.begin_tick(0));
        // Registration runs through a one-shard probe like any server
        // phase. It has no link, so its deferred charges draw nothing.
        let mut buf = ShardBuf::default();
        proto.init(
            bounds,
            &world.objects(),
            &specs,
            &mut ShardProbe {
                infra: &infra,
                pos: world.positions(),
                vel: world.velocities(),
                offline: None,
                plan: None,
                tick: 0,
                scoped,
                coord: &coord,
                buf: &mut buf,
            },
            &mut outbox,
            &mut ops,
        );
        replay_shard_bufs(
            std::slice::from_mut(&mut buf),
            &mut metrics.net,
            &mut coord,
            None,
            builder.as_mut(),
        );
        // The init handshake is server-side setup work; the routing that
        // delivers its outbox is charged to the route split below. Both
        // feed `proto_seconds`, composed the same way as a stepped tick.
        let init_secs = t0.elapsed().as_secs_f64();
        metrics.server_seconds += init_secs;
        metrics.ops += ops;
        let t_route = Instant::now();
        let mut scope_buf = Vec::new();
        let scope_secs = route(
            &outbox,
            &infra,
            &mut inboxes,
            &mut metrics.net,
            None,
            &mut coord,
            builder.as_mut(),
            &mut scope_buf,
        );
        replicate_answers(
            proto.as_ref(),
            &specs,
            &mut last_sent,
            None,
            &mut metrics.net,
            builder.as_mut(),
        );
        let flush_secs = flush_timed(builder, &mut metrics.net);
        let route_secs = t_route.elapsed().as_secs_f64();
        book_downlink_clocks(&mut metrics, route_secs, scope_secs, flush_secs);
        metrics.route_seconds += route_secs;
        metrics.proto_seconds += init_secs + route_secs;
        metrics.shard_load = coord.loads();

        let n_queries = specs.len();
        Simulation {
            world,
            proto,
            specs,
            infra,
            inboxes,
            verify,
            metrics,
            tick: 0,
            planned_ticks: config.ticks,
            series: None,
            link,
            coord,
            stale_streak: vec![0; n_queries],
            oracle_brute: std::env::var("MKNN_ORACLE").as_deref() == Ok("brute"),
            pool,
            repl,
            scope_buf,
            scoped,
            last_sent,
            crashes,
            offline_buf: Vec::new(),
        }
    }

    /// The episode's planned shard-crash windows (empty without a
    /// crash-scheduling fault plan). Tests and experiments read this to
    /// align reconvergence measurements with the rebirth ticks.
    pub fn crash_windows(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// Applies this tick's planned crash-window edges (DESIGN.md §11).
    ///
    /// Rebirths run first: a shard whose window ends this tick runs the
    /// counted state-reconstruction sweep — the coordinator delivers held
    /// `Handoff` legs, charges one `Recover` leg per surviving source
    /// shard, and re-homes the replayed objects — then the protocol is
    /// handed the replay so index-based methods re-learn the block.
    /// New crashes follow: the coordinator drops the shard's object homes
    /// and homed queries and fails routing over to the covering fallback,
    /// and the protocol wipes the matching per-query server state. Windows
    /// are normalized per shard, so the two edge kinds never collide on
    /// the same shard in one tick.
    fn apply_crash_transitions(&mut self) {
        for wi in 0..self.crashes.len() {
            let w = self.crashes[wi];
            if w.until != self.tick {
                continue;
            }
            let block = self.coord.block_of(w.shard);
            // The replay set is every object currently inside the reborn
            // block — exactly what the surviving shards (which adopted the
            // block's movers) plus the coordinator's durable registry (the
            // parked remainder) can reconstruct between them.
            let replay: Vec<ObjReport> = (0..self.world.len())
                .filter(|&i| block.contains(self.world.positions()[i]))
                .map(|i| ObjReport {
                    id: ObjectId(i as u32),
                    pos: self.world.positions()[i],
                    vel: self.world.velocities()[i],
                })
                .collect();
            self.coord
                .recover(w.shard, &replay, &mut self.metrics.net, self.link.as_mut());
            self.proto.server_recover(w.shard, block, &replay);
        }
        for wi in 0..self.crashes.len() {
            let w = self.crashes[wi];
            if w.from != self.tick {
                continue;
            }
            let wiped = self.coord.crash(w.shard);
            self.metrics.shard_crashes += 1;
            self.proto
                .server_crash(w.shard, self.coord.block_of(w.shard), &wiped);
        }
        let down_now = self
            .crashes
            .iter()
            .filter(|w| w.from <= self.tick && self.tick < w.until)
            .count() as u64;
        self.metrics.crash_down_ticks += down_now;
    }

    /// The tick's ground-truth oracle, honoring the `MKNN_ORACLE` override.
    fn build_oracle(&self) -> SnapshotOracle {
        if self.oracle_brute {
            SnapshotOracle::build_bruteforce(&self.world)
        } else {
            SnapshotOracle::build(&self.world)
        }
    }

    /// Turns on per-tick time-series recording (see [`crate::TickSeries`]).
    /// Call before stepping; recording an already-running episode starts
    /// from the current tick.
    pub fn record_series(&mut self) {
        if self.series.is_none() {
            self.series = Some(crate::TickSeries::new());
        }
    }

    /// The recorded time series, when [`Simulation::record_series`] was
    /// called.
    pub fn series(&self) -> Option<&crate::TickSeries> {
        self.series.as_ref()
    }

    /// The registered query specs.
    pub fn specs(&self) -> &[QuerySpec] {
        &self.specs
    }

    /// The maintained answer of `query` right now.
    pub fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.proto.answer(query)
    }

    /// Immutable access to the ground-truth world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &EpisodeMetrics {
        &self.metrics
    }

    /// Advances the episode by one tick.
    pub fn step(&mut self) {
        let before = self.series.is_some().then(|| self.metrics.clone());
        self.tick += 1;
        self.metrics.ticks = self.tick;
        self.world.step();
        // Dirty-only index maintenance: an unmoved object's upsert was a
        // same-cell no-op anyway, so touching only `world.moved()` leaves
        // the grid byte-identical while skipping the (1 - move_prob)·N
        // redundant hash-and-compare passes per tick.
        for &i in self.world.moved() {
            self.infra
                .upsert(ObjectId(i), self.world.positions()[i as usize]);
        }

        if let Some(link) = self.link.as_mut() {
            link.begin_tick(self.tick, self.world.len());
        }

        // Crash-window edges before any tracking: a shard reborn this tick
        // must finish its reconstruction sweep (and a newly dead one must
        // be failed over) before movement hands objects around.
        if !self.crashes.is_empty() {
            self.apply_crash_transitions();
        }

        // Shard tier: movement first. Block crossings hand the object off
        // to its new owner; a focal crossing migrates the query's state to
        // its new home shard (members = k entries). Unmoved objects are
        // skipped: same position ⇒ same block ⇒ `track_object` is a pure
        // no-op (velocity only matters in a Handoff, which needs a
        // crossing).
        for &i in self.world.moved() {
            self.coord.track_object(
                ObjectId(i),
                self.world.positions()[i as usize],
                self.world.velocities()[i as usize],
                &mut self.metrics.net,
                self.link.as_mut(),
            );
        }
        let k = self.metrics.k;
        for qi in 0..self.specs.len() {
            let spec = self.specs[qi];
            let focal = self.world.position(spec.focal);
            self.coord
                .track_query(spec.id, focal, k, &mut self.metrics.net, self.link.as_mut());
        }

        let mut ops = OpCounters::default();
        let mut uplinks = Uplinks::new();

        // Client phase: each device acts on its own state + inbox. An
        // offline device neither processes nor sends; the downlinks sitting
        // in its inbox (delivered while it was still reachable) are lost.
        // Drops are counted up front (a commuting tally, so the count is
        // identical to the old interleaved accounting), then the whole
        // phase dispatches through the protocol's chunked batch path.
        // The mask lives in a persistent buffer refilled in place — the
        // former per-tick Vec allocation was O(N) in the hot loop.
        let t_client = Instant::now();
        self.offline_buf.clear();
        let offline: Option<&[bool]> = match self.link.as_ref() {
            Some(link) => {
                self.offline_buf
                    .extend((0..self.world.len()).map(|i| link.is_offline(i)));
                Some(&self.offline_buf)
            }
            None => None,
        };
        if let Some(mask) = offline {
            for (i, inbox) in self.inboxes.iter_mut().enumerate() {
                if mask[i] {
                    for _ in inbox.drain(..) {
                        self.metrics.net.count_dropped();
                    }
                }
            }
        }
        let ctx = mknn_net::ClientCtx {
            tick: self.tick,
            pos: self.world.positions(),
            vel: self.world.velocities(),
            max_speed: self.world.max_speeds(),
            inboxes: &self.inboxes,
            offline,
            pool: self.pool,
        };
        self.proto.client_phase(&ctx, &mut uplinks, &mut ops);
        // Every inbox was consumed (or dropped) this tick; `route` refills
        // them below for the next one.
        for inbox in self.inboxes.iter_mut() {
            inbox.clear();
        }
        let client_secs = t_client.elapsed().as_secs_f64();

        // Route phase, uplink side.
        let t_route = Instant::now();
        // Every transmission is charged to the sender, delivered or not.
        for (_, msg) in uplinks.iter() {
            self.metrics.net.count_uplink(msg.kind(), msg.size_bytes());
        }
        // Uplink leg of the fault layer: delayed messages from earlier
        // ticks arrive first (already charged when sent), then this tick's
        // batch runs the loss/duplication/delay gauntlet.
        let uplinks = if let Some(link) = self.link.as_mut() {
            let mut delivered = Vec::new();
            link.drain_due_up(&mut delivered);
            for (from, msg) in uplinks.iter() {
                link.transmit_up(from, *msg, &mut delivered, &mut self.metrics.net);
            }
            let mut faulted = Uplinks::new();
            for (from, msg) in delivered {
                faulted.send(from, msg);
            }
            faulted
        } else {
            uplinks
        };
        // Every *delivered* uplink terminates at the shard owning the
        // sender's block and is forwarded when its query is homed elsewhere.
        // The terminal shard picks the server partition that consumes the
        // message, splitting the global stream into per-shard task inputs
        // (each shard sees its slice in global arrival order).
        let g = self.coord.count() as usize;
        let mut split: Vec<Uplinks> = (0..g).map(|_| Uplinks::new()).collect();
        for (from, msg) in uplinks.iter() {
            let dest = self.coord.route_uplink(
                msg.query(),
                self.world.position(from),
                msg.size_bytes(),
                &mut self.metrics.net,
                self.link.as_mut(),
            );
            split[dest as usize].send(from, *msg);
        }
        let mut route_secs = t_route.elapsed().as_secs_f64();

        // Server phase: one task per shard, dispatched over the pool. Each
        // task drives the shard's partition of the protocol's server state
        // through a read-only [`ShardProbe`]; the coordinator's charges and
        // the scoped builder's stagings are deferred into per-shard buffers
        // and replayed in ascending shard order below, so the episode's
        // metrics are byte-identical at any thread count.
        let t_server = Instant::now();
        let mut outbox = Outbox::new();
        let mut builder = self.scoped.then(|| self.repl.begin_tick(self.tick));
        let homes: Vec<u32> = self
            .specs
            .iter()
            .map(|s| self.coord.effective_home(s.id))
            .collect();
        let mut bufs: Vec<ShardBuf> = (0..g).map(|_| ShardBuf::default()).collect();
        if let Some(link) = self.link.as_mut() {
            // Each shard's task draws probe fates from its homed queries'
            // streams; moving the streams out (and back afterwards) keeps
            // every draw on the same per-query sequence as the monolith.
            let mut groups: Vec<Vec<u32>> = vec![Vec::new(); g];
            for (qi, &home) in homes.iter().enumerate() {
                groups[home as usize].push(qi as u32);
            }
            for (buf, streams) in bufs.iter_mut().zip(link.split_query_streams(&groups)) {
                buf.streams = Some(streams);
            }
        }
        let plan = self.link.as_ref().map(|l| *l.plan());
        let offline_mask: Option<&[bool]> = self.link.is_some().then_some(&self.offline_buf);
        let mut tasks: Vec<ShardTask> = Vec::with_capacity(g);
        for (shard, (buf, up)) in bufs.iter_mut().zip(split).enumerate() {
            tasks.push(ShardTask {
                shard: shard as u32,
                uplinks: up,
                probe: Box::new(ShardProbe {
                    infra: &self.infra,
                    pos: self.world.positions(),
                    vel: self.world.velocities(),
                    offline: offline_mask,
                    plan,
                    tick: self.tick,
                    scoped: self.scoped,
                    coord: &self.coord,
                    buf,
                }),
                outbox: Outbox::new(),
                ops: OpCounters::default(),
                seconds: 0.0,
            });
        }
        {
            let coord = &self.coord;
            let route_fn = move |p: Point| coord.effective_shard_of(p);
            let mut phase = ServerPhase {
                tick: self.tick,
                homes: &homes,
                route: &route_fn,
                pool: self.pool,
                tasks: &mut tasks,
            };
            self.proto.server_phase(&mut phase);
        }
        // Merge in ascending shard order: outbox concatenation, op totals,
        // and the per-shard wall-time breakdown.
        if self.metrics.shard_seconds.len() < g {
            self.metrics.shard_seconds.resize(g, 0.0);
        }
        for mut task in tasks {
            outbox.append(&mut task.outbox);
            ops += task.ops;
            self.metrics.shard_seconds[task.shard as usize] += task.seconds;
        }
        replay_shard_bufs(
            &mut bufs,
            &mut self.metrics.net,
            &mut self.coord,
            self.link.as_mut(),
            builder.as_mut(),
        );
        if let Some(link) = self.link.as_mut() {
            link.restore_query_streams(bufs.into_iter().filter_map(|b| b.streams).collect());
        }
        let server_secs = t_server.elapsed().as_secs_f64();
        self.metrics.ops += ops;

        // Route phase, downlink side.
        let t_route = Instant::now();
        let scope_secs = route(
            &outbox,
            &self.infra,
            &mut self.inboxes,
            &mut self.metrics.net,
            self.link.as_mut(),
            &mut self.coord,
            builder.as_mut(),
            &mut self.scope_buf,
        );
        // Answer replication rides the same tick's frames: the focal device
        // of every query whose answer changed since its last push receives
        // the new list (whole in legacy mode, as a diff against its acked
        // copy in scoped mode).
        replicate_answers(
            self.proto.as_ref(),
            &self.specs,
            &mut self.last_sent,
            self.link.as_ref(),
            &mut self.metrics.net,
            builder.as_mut(),
        );
        let flush_secs = flush_timed(builder, &mut self.metrics.net);
        let down_secs = t_route.elapsed().as_secs_f64();
        book_downlink_clocks(&mut self.metrics, down_secs, scope_secs, flush_secs);
        route_secs += down_secs;
        self.metrics.client_seconds += client_secs;
        self.metrics.server_seconds += server_secs;
        self.metrics.route_seconds += route_secs;
        self.metrics.proto_seconds += client_secs + server_secs + route_secs;
        self.metrics.shard_load = self.coord.loads();

        if self.verify != VerifyMode::Off {
            self.verify_answers();
        }

        if let (Some(series), Some(before)) = (self.series.as_mut(), before) {
            series.push(crate::delta_sample(self.tick, &before, &self.metrics));
        }
    }

    fn verify_answers(&mut self) {
        let t0 = Instant::now();
        // One snapshot index answers all Q×2 oracle kNN queries of this
        // tick — O(N log N + Q·k·log N) instead of the former O(N·Q).
        let oracle = self.build_oracle();
        for (qi, spec) in self.specs.iter().enumerate() {
            let answer = self.proto.answer(spec.id);
            let true_center = self.world.position(spec.focal);
            let effective = self.proto.effective_center(spec.id).unwrap_or(true_center);
            let ck = check_answer(
                &self.world,
                &oracle,
                spec.focal,
                spec.k,
                answer,
                effective,
                true_center,
                self.proto.ordered_answers(),
            );
            self.metrics.exact_checks += 1;
            self.metrics.exact_ok += u64::from(ck.exact);
            self.metrics.recall_sum += ck.recall_vs_true;
            self.metrics.dist_error_sum += ck.dist_error;
            // Staleness is a *fault* metric: how long a lost message keeps
            // an answer wrong. On a perfect link an inexact method (e.g.
            // `periodic`) is approximate by design, not stale, and charging
            // it here would perturb the fault-free golden output.
            if self.link.is_some() {
                if ck.exact {
                    self.stale_streak[qi] = 0;
                } else {
                    self.stale_streak[qi] += 1;
                    self.metrics.staleness_sum += self.stale_streak[qi];
                    self.metrics.max_staleness =
                        self.metrics.max_staleness.max(self.stale_streak[qi]);
                }
            }
            if self.verify == VerifyMode::Assert && self.proto.guarantees_exact() && !ck.exact {
                let truth: Vec<_> = oracle
                    .knn_excluding(effective, spec.k, spec.focal)
                    .iter()
                    .map(|n| (n.id, n.dist()))
                    .collect();
                panic!(
                    "{}: inexact answer for {} at tick {}: got {:?}, oracle {:?} (effective {:?})",
                    self.proto.name(),
                    spec.id,
                    self.tick,
                    answer,
                    truth,
                    effective,
                );
            }
        }
        self.metrics.oracle_seconds += t0.elapsed().as_secs_f64();
    }

    /// Number of queries whose *current* maintained answer is not exact
    /// with respect to the method's effective center. Non-mutating; used by
    /// the chaos suite to assert reconvergence after a fault burst.
    pub fn inexact_queries(&self) -> usize {
        let oracle = self.build_oracle();
        self.specs
            .iter()
            .filter(|spec| {
                let true_center = self.world.position(spec.focal);
                let effective = self.proto.effective_center(spec.id).unwrap_or(true_center);
                !check_answer(
                    &self.world,
                    &oracle,
                    spec.focal,
                    spec.k,
                    self.proto.answer(spec.id),
                    effective,
                    true_center,
                    self.proto.ordered_answers(),
                )
                .exact
            })
            .count()
    }

    /// Runs the configured number of ticks and returns the final metrics.
    pub fn run(mut self) -> EpisodeMetrics {
        for _ in 0..self.planned_ticks {
            self.step();
        }
        self.metrics
    }
}

/// Replays each shard's deferred side effects against the real
/// coordinator, link and builder, in ascending shard order — deterministic
/// regardless of which worker ran which task when.
fn replay_shard_bufs(
    bufs: &mut [ShardBuf],
    stats: &mut NetStats,
    coord: &mut ShardCoordinator,
    mut link: Option<&mut FaultyLink>,
    mut builder: Option<&mut DownlinkBuilder>,
) {
    for buf in bufs {
        *stats += &buf.stats;
        for charge in buf.charges.drain(..) {
            let link = link.as_deref_mut();
            match charge {
                CoordCharge::ProbeScatter { query, zone } => {
                    coord.probe_scatter(query, &zone, stats, link);
                }
                CoordCharge::ProbeGather {
                    query,
                    shard,
                    count,
                } => coord.probe_gather(query, shard, count, stats, link),
                CoordCharge::RouteUnicast { query, pos, bytes } => {
                    coord.route_unicast(query, pos, bytes, stats, link);
                }
                CoordCharge::RouteUplink { query, pos, bytes } => {
                    coord.route_uplink(Some(query), pos, bytes, stats, link);
                }
            }
        }
        if let Some(b) = builder.as_deref_mut() {
            for (to, msg, delivery) in buf.staged.drain(..) {
                b.stage(to, msg, delivery);
            }
        }
    }
}

/// Answer replication (DESIGN.md §10): pushes each query's current answer
/// to its focal device whenever it differs from what was last pushed.
///
/// Like probes, answer pushes are harness-level accounting traffic — they
/// never enter an inbox and never consume fault-layer RNG, so legacy and
/// scoped episodes stay draw-for-draw identical. In legacy mode each push
/// is a unicast carrying the full member list; in scoped mode the logical
/// unicast is still counted (so message tallies match across modes) but the
/// bytes ride the tick's frame as a delta against the focal's acked copy.
/// The delivery outcome feeding the ack machine is churn-only (an offline
/// focal gaps), deterministic in both modes.
fn replicate_answers(
    proto: &dyn Protocol,
    specs: &[QuerySpec],
    last_sent: &mut [Vec<ObjectId>],
    link: Option<&FaultyLink>,
    stats: &mut NetStats,
    mut builder: Option<&mut DownlinkBuilder>,
) {
    let ordered = proto.ordered_answers();
    for (qi, spec) in specs.iter().enumerate() {
        let mut members = proto.answer(spec.id).to_vec();
        if !ordered {
            members.sort_unstable_by_key(|m| m.0);
        }
        if members == last_sent[qi] {
            continue;
        }
        match builder.as_deref_mut() {
            Some(b) => {
                stats.count_unicast(MsgKind::AnswerPush, 0);
                let delivery = if link.is_none_or(|l| !l.is_offline(spec.focal.index())) {
                    Delivery::Delivered
                } else {
                    Delivery::Offline
                };
                b.stage_answer(spec.focal, spec.id, members.clone(), ordered, delivery);
            }
            None => {
                let push = AnswerUpdate::Full {
                    query: spec.id,
                    members: members.clone(),
                };
                let bytes = (LINK_HEADER_BITS + push.wire_bits()).div_ceil(8);
                stats.count_unicast(MsgKind::AnswerPush, bytes);
            }
        }
        last_sent[qi] = members;
    }
}

/// One downlink delivery through the (possibly faulty) link, reporting
/// whether a copy reached the inbox this tick.
fn deliver_one(
    to: ObjectId,
    msg: &DownlinkMsg,
    inboxes: &mut [Vec<DownlinkMsg>],
    stats: &mut NetStats,
    link: Option<&mut FaultyLink>,
) -> bool {
    if let Some(link) = link {
        link.deliver_down(to.index(), *msg, inboxes, stats)
    } else if let Some(inbox) = inboxes.get_mut(to.index()) {
        inbox.push(*msg);
        true
    } else {
        false
    }
}

/// Classifies a delivery outcome for the ack state machine: an undelivered
/// copy to an offline device is a churn gap (full snapshots on rejoin),
/// an undelivered copy to an online device is plain loss/delay (the acked
/// baseline just stalls).
fn delivery_of(delivered: bool, to: ObjectId, link: Option<&FaultyLink>) -> Delivery {
    if delivered {
        Delivery::Delivered
    } else if link.is_some_and(|l| l.is_offline(to.index())) {
        Delivery::Offline
    } else {
        Delivery::Lost
    }
}

/// Routes an outbox: charges every transmission and fills device inboxes.
/// With a fault layer, due delayed downlinks are delivered first, then
/// every individual delivery (one per geocast/broadcast receiver) makes its
/// own fault draws, in deterministic recipient order — a geocast's
/// receivers in `(dist², id)` order from the zone center, as the grid's
/// range query yields them into `scope` (a buffer reused per geocast).
///
/// With a [`DownlinkBuilder`] (scoped mode), deliveries are *identical* —
/// same inboxes, same fault draws, same order — but bytes are not charged
/// per message: each delivery is staged on the builder, which the caller
/// flushes into per-device frames. Logical message counts (unicast,
/// geocast-cell, per-kind) are charged the same in both modes. Broadcasts
/// have no interest set and always use the legacy model.
///
/// Returns the seconds spent resolving geocast interest sets (one clock
/// read per geocast, none per copy).
#[allow(clippy::too_many_arguments)]
fn route(
    outbox: &Outbox,
    infra: &GridIndex,
    inboxes: &mut [Vec<DownlinkMsg>],
    stats: &mut NetStats,
    mut link: Option<&mut FaultyLink>,
    coord: &mut ShardCoordinator,
    mut builder: Option<&mut DownlinkBuilder>,
    scope: &mut Vec<Neighbor>,
) -> f64 {
    let mut scope_secs = 0.0;
    if let Some(link) = link.as_deref_mut() {
        link.drain_due_down(inboxes, stats);
    }
    for (recipient, msg) in outbox.iter() {
        match *recipient {
            Recipient::One(id) => {
                let bytes = if builder.is_some() {
                    0
                } else {
                    msg.size_bytes()
                };
                stats.count_unicast(msg.kind(), bytes);
                // A unicast into a foreign shard's block is forwarded there
                // over the backbone. Recipients the infrastructure does not
                // track have no block, hence no shard leg.
                if let Some(pos) = infra.position(id) {
                    coord.route_unicast(
                        msg.query(),
                        pos,
                        msg.size_bytes(),
                        stats,
                        link.as_deref_mut(),
                    );
                }
                let delivered = deliver_one(id, msg, inboxes, stats, link.as_deref_mut());
                if let Some(b) = builder.as_deref_mut() {
                    // Recipients without an inbox have no device to frame
                    // to (the logical charge above still stands).
                    if id.index() < inboxes.len() {
                        b.stage(id, *msg, delivery_of(delivered, id, link.as_deref()));
                    }
                }
            }
            Recipient::Geocast(zone) => {
                let cells = infra.cells_overlapping(&zone);
                let bytes = if builder.is_some() {
                    0
                } else {
                    msg.size_bytes()
                };
                stats.count_geocast(msg.kind(), bytes, cells);
                coord.route_geocast(msg.query(), &zone, stats, link.as_deref_mut());
                // Scope pass: the devices interested in this send are
                // exactly the zone's members (region members and imminent
                // entrants).
                let t_scope = Instant::now();
                infra.range_into(&zone, scope);
                scope_secs += t_scope.elapsed().as_secs_f64();
                for n in scope.iter() {
                    // Tolerant like the unicast arm: a recipient id the
                    // engine has no inbox for (e.g. an index entry for a
                    // device outside the episode population) gets no copy
                    // and no frame, not a panic.
                    let delivered = deliver_one(n.id, msg, inboxes, stats, link.as_deref_mut());
                    if let Some(b) = builder.as_deref_mut() {
                        if n.id.index() < inboxes.len() {
                            b.stage(n.id, *msg, delivery_of(delivered, n.id, link.as_deref()));
                        }
                    }
                }
            }
            Recipient::Broadcast => {
                stats.count_broadcast(msg.kind(), msg.size_bytes());
                coord.route_broadcast(msg.query(), stats, link.as_deref_mut());
                if let Some(link) = link.as_deref_mut() {
                    for i in 0..inboxes.len() {
                        link.deliver_down(i, *msg, inboxes, stats);
                    }
                } else {
                    for inbox in inboxes.iter_mut() {
                        inbox.push(*msg);
                    }
                }
            }
        }
    }
    scope_secs
}

/// Flushes the tick's frames (scoped mode only), returning its seconds.
fn flush_timed(builder: Option<DownlinkBuilder>, stats: &mut NetStats) -> f64 {
    let Some(b) = builder else { return 0.0 };
    let t = Instant::now();
    b.flush_frames(stats);
    t.elapsed().as_secs_f64()
}

/// Books one downlink pass of `pass_secs` into the route sub-clocks: its
/// scoping and flush seconds, and the rest of the pass as staging.
fn book_downlink_clocks(m: &mut EpisodeMetrics, pass_secs: f64, scope_secs: f64, flush_secs: f64) {
    m.scope_seconds += scope_secs;
    m.flush_seconds += flush_secs;
    m.stage_seconds += (pass_secs - scope_secs - flush_secs).max(0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_baselines::Centralized;
    use mknn_core::{Dknn, DknnParams};

    #[test]
    fn centralized_runs_exactly() {
        let cfg = SimConfig::small();
        let sim = Simulation::new(&cfg, Box::new(Centralized::new(16)));
        let m = sim.run();
        assert_eq!(m.exactness(), 1.0);
        assert_eq!(m.recall(), 1.0);
        // The firehose: roughly one uplink per moving object per tick.
        assert!(m.uplink_per_tick() > cfg.workload.n_objects as f64 * 0.5);
    }

    #[test]
    fn dknn_set_is_exact_and_cheaper() {
        let cfg = SimConfig::small();
        let params = DknnParams {
            v_max_obj: 20.0,
            v_max_q: 20.0,
            ..DknnParams::default()
        };
        let m = Simulation::new(&cfg, Box::new(Dknn::set(params))).run();
        assert_eq!(m.exactness(), 1.0, "set protocol must be exact: {m:?}");
        let c = Simulation::new(&cfg, Box::new(Centralized::new(16))).run();
        assert!(
            m.net.uplink_msgs < c.net.uplink_msgs,
            "distributed uplink {} should undercut centralized {}",
            m.net.uplink_msgs,
            c.net.uplink_msgs
        );
    }

    #[test]
    fn dknn_ordered_is_exact() {
        let cfg = SimConfig::small();
        let m = Simulation::new(&cfg, Box::new(Dknn::ordered(DknnParams::default()))).run();
        assert_eq!(m.exactness(), 1.0, "{m:?}");
    }

    #[test]
    fn dknn_buffered_is_exact() {
        let cfg = SimConfig::small();
        let m = Simulation::new(
            &cfg,
            Box::new(mknn_core::DknnBuffered::new(DknnParams::default(), 4)),
        )
        .run();
        assert_eq!(m.exactness(), 1.0, "{m:?}");
    }

    #[test]
    fn series_recording_matches_totals() {
        let cfg = SimConfig::small();
        let mut sim = Simulation::new(&cfg, Box::new(Dknn::set(DknnParams::default())));
        sim.record_series();
        for _ in 0..cfg.ticks {
            sim.step();
        }
        let series = sim.series().unwrap();
        assert_eq!(series.len(), cfg.ticks as usize);
        // Per-tick deltas must sum back to the episode totals minus the
        // init traffic (recording starts after init).
        let up_sum: u64 = series.samples().iter().map(|s| s.uplink).sum();
        assert_eq!(up_sum, sim.metrics().net.uplink_msgs);
        let checked: u64 = series.samples().iter().map(|s| s.checked_queries).sum();
        assert_eq!(checked, sim.metrics().exact_checks);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let cfg = SimConfig::small();
        let a = Simulation::new(&cfg, Box::new(Dknn::set(DknnParams::default()))).run();
        let b = Simulation::new(&cfg, Box::new(Dknn::set(DknnParams::default()))).run();
        assert_eq!(a.net, b.net);
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn poll_answers_none_for_ids_the_world_does_not_track() {
        let cfg = SimConfig::small();
        let world = cfg.workload.build();
        let infra = GridIndex::bulk_load(
            world.bounds(),
            cfg.geo_cells,
            cfg.geo_cells,
            world.snapshot(),
        );
        let n = world.len() as u32;
        let coord = ShardCoordinator::new(world.bounds(), 1);
        let mut buf = ShardBuf::default();
        let mut probe = ShardProbe {
            infra: &infra,
            pos: world.positions(),
            vel: world.velocities(),
            offline: None,
            plan: None,
            tick: 0,
            scoped: false,
            coord: &coord,
            buf: &mut buf,
        };
        // Beyond the population: no such device, no traffic charged.
        assert_eq!(probe.poll(QueryId(0), ObjectId(n)), None);
        assert_eq!(probe.poll(QueryId(0), ObjectId(n + 5)), None);
        assert_eq!(probe.buf.stats.total_msgs(), 0);
        assert!(probe.buf.charges.is_empty());
        // A tracked id answers, is charged, and reports its own identity.
        let rep = probe.poll(QueryId(0), ObjectId(3)).expect("tracked id");
        assert_eq!(rep.id, ObjectId(3));
        assert_eq!(probe.buf.stats.downlink_unicast_msgs, 1);
        assert_eq!(probe.buf.stats.uplink_msgs, 1);
    }

    #[test]
    fn route_sub_clocks_are_non_negative_and_fit_in_the_route_clock() {
        for downlink in [DownlinkMode::Scoped, DownlinkMode::Legacy] {
            let cfg = SimConfig {
                downlink,
                ..SimConfig::small()
            };
            let m = Simulation::new(&cfg, Box::new(Dknn::set(DknnParams::default()))).run();
            let parts = [m.scope_seconds, m.stage_seconds, m.flush_seconds];
            assert!(
                parts.iter().all(|s| s.is_finite() && *s >= 0.0),
                "{parts:?}"
            );
            // Slack for fp accumulation order only.
            let sum: f64 = parts.iter().sum();
            assert!(
                sum <= m.route_seconds + 1e-9,
                "{downlink:?}: {parts:?} sum past route {}",
                m.route_seconds
            );
            assert!(m.scope_seconds > 0.0 && m.stage_seconds > 0.0, "{parts:?}");
            assert_eq!(
                m.flush_seconds > 0.0,
                downlink == DownlinkMode::Scoped,
                "only the scoped downlink flushes frames"
            );
        }
    }

    #[test]
    fn route_skips_unknown_recipients_in_every_arm() {
        use mknn_geom::{Circle, Point, Rect};
        let mut infra = GridIndex::new(Rect::square(100.0), 4, 4);
        infra.upsert(ObjectId(0), Point::new(10.0, 10.0));
        // Indexed, but beyond the engine's inbox range: before the fix the
        // unicast arm skipped it silently while the geocast arm panicked.
        infra.upsert(ObjectId(9), Point::new(12.0, 12.0));
        let mut inboxes = vec![Vec::new(); 2];
        let msg = DownlinkMsg::RemoveRegion { query: QueryId(0) };
        let mut outbox = Outbox::new();
        outbox.send(Recipient::One(ObjectId(9)), msg);
        outbox.send(
            Recipient::Geocast(Circle::new(Point::new(11.0, 11.0), 50.0)),
            msg,
        );
        outbox.send(Recipient::Broadcast, msg);
        let mut stats = NetStats::default();
        let mut coord = ShardCoordinator::new(Rect::square(100.0), 1);
        route(
            &outbox,
            &infra,
            &mut inboxes,
            &mut stats,
            None,
            &mut coord,
            None,
            &mut Vec::new(),
        );
        // Device 0: hears the geocast and the broadcast. Device 1: only the
        // broadcast (it is not in the grid). Id 9: dropped in every arm.
        assert_eq!(inboxes[0].len(), 2);
        assert_eq!(inboxes[1].len(), 1);
    }

    #[test]
    fn sharded_episode_keeps_answers_and_device_traffic_identical() {
        let cfg = SimConfig::small();
        let single = Simulation::new(&cfg, Box::new(Dknn::set(DknnParams::default()))).run();
        let sharded_cfg = SimConfig { shards: 4, ..cfg };
        let sharded =
            Simulation::new(&sharded_cfg, Box::new(Dknn::set(DknnParams::default()))).run();
        // Device-facing traffic and answer quality are untouched by the
        // overlay; only the shard ledger differs.
        let mut device_view = sharded.clone();
        device_view.net.shard = Default::default();
        device_view.shard_load = single.shard_load.clone();
        assert_eq!(
            device_view.with_clock_zeroed(),
            single.clone().with_clock_zeroed()
        );
        assert_eq!(sharded.shard_load.len(), 4);
        assert!(sharded.net.shard.total_msgs() > 0, "cross-shard legs flow");
        assert!(
            sharded.net.shard.handoff_msgs > 0,
            "objects cross blocks in 60 ticks: {:?}",
            sharded.net.shard
        );
        assert_eq!(
            sharded.net.shard.retransmits, 0,
            "perfect backbone never retransmits"
        );
        // Load conservation: the single server processes everything.
        assert_eq!(single.shard_load.len(), 1);
    }

    #[test]
    fn faulty_episodes_are_deterministic_and_record_fault_traffic() {
        let cfg = SimConfig {
            fault: mknn_net::FaultPlan::chaos(),
            ..SimConfig::small()
        };
        // small() uses Assert, which the harness must downgrade under
        // faults instead of panicking on the first transient inexactness.
        let a = Simulation::new(&cfg, Box::new(Dknn::set(DknnParams::default()))).run();
        let b = Simulation::new(&cfg, Box::new(Dknn::set(DknnParams::default()))).run();
        assert_eq!(a.net, b.net);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.exact_ok, b.exact_ok);
        assert!(a.net.dropped_msgs > 0, "chaos must actually drop: {a:?}");
        assert!(a.exact_checks > 0);
    }
}
