//! The protocol contract between the simulation harness and a monitoring
//! method.
//!
//! A [`Protocol`] implementation bundles *both* halves of a distributed
//! method — the per-device client logic and the server logic — inside one
//! value, because the harness executes everything in-process. Distribution
//! is enforced by **information discipline**, which implementations must
//! follow and which the message-conservation tests check:
//!
//! * `client_tick` may read only the device's own ground-truth state
//!   ([`mknn_mobility::MovingObject`]), that device's protocol state, and
//!   the downlinks addressed to it; it communicates exclusively through
//!   [`Uplinks`].
//! * `server_tick` may read only server state and the tick's uplinks; it
//!   communicates exclusively through the [`Outbox`] and the synchronous
//!   [`ProbeService`] (which itself charges messages for every probe and
//!   reply).

use crate::{DownlinkMsg, QuerySpec, Recipient, UplinkMsg};
use mknn_geom::{Circle, ObjectId, Point, QueryId, Rect, Tick, Vector};
use mknn_mobility::MovingObject;
use mknn_util::Pool;

/// One tick's worth of client-side inputs, in struct-of-arrays layout.
///
/// The engine hands the whole device population to
/// [`Protocol::client_phase`] as parallel slices (position, velocity,
/// speed cap, per-device inbox) plus an optional offline mask from the
/// fault layer, so a protocol that wants to parallelize its per-device
/// work can chunk the index space `0..len()` directly over
/// [`Pool::map_chunks_mut`]. Device ids are dense: index `i` *is*
/// `ObjectId(i)`.
pub struct ClientCtx<'a> {
    /// The tick being processed (the world has already moved).
    pub tick: Tick,
    /// Per-device positions, indexed by `ObjectId::index`.
    pub pos: &'a [Point],
    /// Per-device velocities this tick.
    pub vel: &'a [Vector],
    /// Per-device speed caps.
    pub max_speed: &'a [f64],
    /// Per-device downlinks from the previous server tick. Offline
    /// devices' inboxes arrive empty (the engine drops and counts their
    /// messages before the phase).
    pub inboxes: &'a [Vec<DownlinkMsg>],
    /// Fault-layer offline mask for this tick (`None` on a perfect link).
    /// Offline devices run no client logic at all.
    pub offline: Option<&'a [bool]>,
    /// The worker pool a parallel implementation should dispatch through.
    /// `Pool` is a configuration value; passing it costs nothing.
    pub pool: Pool,
}

impl ClientCtx<'_> {
    /// Number of devices (all slices share this length).
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Returns `true` when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Whether device `i` is offline this tick.
    pub fn is_offline(&self, i: usize) -> bool {
        self.offline.is_some_and(|mask| mask[i])
    }

    /// Materializes device `i`'s ground-truth state.
    pub fn object(&self, i: usize) -> MovingObject {
        MovingObject {
            id: ObjectId(i as u32),
            pos: self.pos[i],
            vel: self.vel[i],
            max_speed: self.max_speed[i],
        }
    }
}

/// A device's reply to a probe, as collected by the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjReport {
    /// The replying device.
    pub id: ObjectId,
    /// Its position at the probe tick.
    pub pos: Point,
    /// Its velocity at the probe tick.
    pub vel: Vector,
}

/// The per-tick batch of device → server messages.
#[derive(Debug, Default)]
pub struct Uplinks {
    items: Vec<(ObjectId, UplinkMsg)>,
}

impl Uplinks {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one message from `from`.
    pub fn send(&mut self, from: ObjectId, msg: UplinkMsg) {
        self.items.push((from, msg));
    }

    /// The queued messages, in send order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &UplinkMsg)> {
        self.items.iter().map(|(id, m)| (*id, m))
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drops all messages (harness-internal, between ticks).
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Moves every message of `other` onto the end of this batch,
    /// preserving send order. Used by chunked client phases to merge
    /// per-chunk batches back together in chunk order, which keeps the
    /// combined uplink stream byte-identical to a sequential pass.
    pub fn append(&mut self, other: &mut Uplinks) {
        self.items.append(&mut other.items);
    }
}

/// The per-tick batch of server → device messages.
#[derive(Debug, Default)]
pub struct Outbox {
    items: Vec<(Recipient, DownlinkMsg)>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one downlink.
    pub fn send(&mut self, to: Recipient, msg: DownlinkMsg) {
        self.items.push((to, msg));
    }

    /// The queued downlinks, in send order.
    pub fn iter(&self) -> impl Iterator<Item = (&Recipient, &DownlinkMsg)> {
        self.items.iter().map(|(r, m)| (r, m))
    }

    /// Number of queued downlinks.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drops all downlinks (harness-internal, between ticks).
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Moves every downlink of `other` onto the end of this outbox,
    /// preserving send order. The engine uses it to merge per-shard
    /// outboxes in ascending shard-id order after a parallel server phase,
    /// which keeps the combined downlink stream deterministic at any
    /// thread count.
    pub fn append(&mut self, other: &mut Outbox) {
        self.items.append(&mut other.items);
    }
}

/// Synchronous probe channel provided by the harness.
///
/// A probe models the geocast-request / unicast-reply round trip the server
/// performs when it must (re)discover the population of a zone — initial
/// evaluation and region expansion. The harness charges the geocast and
/// every reply to [`crate::NetStats`] before returning, so probes are never
/// free.
pub trait ProbeService {
    /// Geocasts a probe over `zone` on behalf of `query` and returns the
    /// replies of every device inside it (excluding `exclude`, the focal
    /// object, which does not answer its own query's probes).
    fn probe(&mut self, query: QueryId, zone: Circle, exclude: ObjectId) -> Vec<ObjReport>;

    /// Unicast position request to one device (charged as one downlink
    /// probe plus one uplink reply). Returns `None` for unknown devices.
    fn poll(&mut self, query: QueryId, id: ObjectId) -> Option<ObjReport>;
}

/// One shard's slice of a partitioned server tick.
///
/// The engine builds one task per server shard: the uplinks routed to that
/// shard (query-scoped traffic goes to the query's home shard, `Position`
/// reports to the shard covering the reported position), a shard-local
/// [`ProbeService`] whose coordination charges are deferred and replayed in
/// shard order after the phase, and fresh per-shard accumulators. The
/// protocol consumes the task inside [`Protocol::server_phase`]; the engine
/// merges outboxes, ops, and stats back in ascending shard-id order.
pub struct ShardTask<'p> {
    /// The shard this task belongs to (its index in `ServerPhase::tasks`).
    pub shard: u32,
    /// The uplinks routed to this shard this tick, in global arrival order
    /// filtered to the shard.
    pub uplinks: Uplinks,
    /// Shard-local probe channel (safe to use from a worker thread).
    pub probe: Box<dyn ProbeService + Send + 'p>,
    /// Downlinks this shard emits this tick.
    pub outbox: Outbox,
    /// Computation charged by this shard this tick.
    pub ops: crate::OpCounters,
    /// Wall-clock seconds this shard's server work took (stamped by
    /// [`run_shard_tasks`], accumulated into the episode's per-shard
    /// timing breakdown).
    pub seconds: f64,
}

/// Everything a [`Protocol`] needs to run one partitioned server tick.
pub struct ServerPhase<'e, 'p> {
    /// The tick being processed.
    pub tick: Tick,
    /// Home shard per query id (dense, indexed by `QueryId::index`). The
    /// coordinator keeps this current across focal migrations and crash
    /// failover *before* the phase runs, so a protocol can re-home its
    /// per-query state by diffing against its own directory.
    pub homes: &'e [u32],
    /// Maps a position to the (effective) shard covering it — the same
    /// routing the engine used to split `Position` uplinks over the tasks.
    /// Protocols that partition an object index by position use it to
    /// place entries; it accounts for crash failover.
    pub route: &'e (dyn Fn(Point) -> u32 + Sync),
    /// The worker pool to dispatch per-shard work through.
    pub pool: Pool,
    /// One task per shard, ascending shard id.
    pub tasks: &'e mut [ShardTask<'p>],
}

/// Dispatches one closure per `(state, task)` pair over `pool`, stamping
/// each task's wall time.
///
/// This is the shared harness for partitioned server phases: a protocol
/// keeps a per-shard state vector, zips it with the phase's tasks, and
/// provides the per-shard tick body. Each invocation sees only its own
/// shard's state and task, so the dispatch is safe at any thread count;
/// determinism comes from the engine merging task outputs in ascending
/// shard-id order afterwards. `f` must not touch state it does not own —
/// cross-shard effects go through the probe service or are precomputed
/// sequentially before the dispatch.
pub fn run_shard_tasks<'p, S, F>(pool: Pool, states: &mut [S], tasks: &mut [ShardTask<'p>], f: F)
where
    S: Send,
    F: Fn(&mut S, &mut ShardTask<'p>) + Sync,
{
    debug_assert_eq!(states.len(), tasks.len());
    let jobs: Vec<(&mut S, &mut ShardTask<'p>)> = states.iter_mut().zip(tasks.iter_mut()).collect();
    pool.map_indexed(jobs, |_, (state, task)| {
        let t0 = std::time::Instant::now();
        f(state, task);
        task.seconds += t0.elapsed().as_secs_f64();
    });
}

/// A continuous moving-kNN monitoring method (client + server halves).
pub trait Protocol {
    /// Short method name used in experiment tables ("dknn-set",
    /// "centralized", …).
    fn name(&self) -> &'static str;

    /// One-time setup at tick 0: the server learns the query specs and may
    /// run initial probes; devices learn the static protocol parameters
    /// (grid geometry, thresholds) that real deployments ship at
    /// registration time.
    fn init(
        &mut self,
        bounds: Rect,
        objects: &[MovingObject],
        queries: &[QuerySpec],
        probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut crate::OpCounters,
    );

    /// Client logic for one device at tick `tick`, after the world moved.
    /// `inbox` holds the downlinks addressed to this device from the
    /// previous server tick (and installs from `init` on the first tick).
    fn client_tick(
        &mut self,
        tick: Tick,
        me: &MovingObject,
        inbox: &[DownlinkMsg],
        up: &mut Uplinks,
        ops: &mut crate::OpCounters,
    );

    /// Client logic for the whole device population at one tick.
    ///
    /// The default implementation is the sequential loop every method is
    /// correct under: ascending device id, skipping offline devices. A
    /// method whose per-device work is independent (dKNN band checks, the
    /// centralized position report) overrides this to chunk the id space
    /// over `ctx.pool`, merging per-chunk [`Uplinks`] in chunk order so
    /// the uplink stream — and therefore every downstream metric — stays
    /// byte-identical at any `MKNN_THREADS`. Implementations must
    /// preserve the sequential contract exactly: same uplinks in the same
    /// order, same op counts.
    fn client_phase(&mut self, ctx: &ClientCtx, up: &mut Uplinks, ops: &mut crate::OpCounters) {
        for i in 0..ctx.len() {
            if ctx.is_offline(i) {
                continue;
            }
            let me = ctx.object(i);
            self.client_tick(ctx.tick, &me, &ctx.inboxes[i], up, ops);
        }
    }

    /// Server logic for tick `tick`, consuming the tick's uplinks.
    fn server_tick(
        &mut self,
        tick: Tick,
        uplinks: &Uplinks,
        probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut crate::OpCounters,
    );

    /// Server logic for one tick of a *partitioned* server tier: one task
    /// per shard, each holding the uplinks routed to it.
    ///
    /// Every protocol in this workspace overrides this with real per-shard
    /// state (per-shard query maps, partial indexes) dispatched over
    /// `phase.pool` via [`run_shard_tasks`]; the contract is that answers,
    /// ops, and all device-facing traffic are byte-identical to the
    /// monolithic [`Protocol::server_tick`] at one shard, and invariant
    /// across shard and thread counts.
    ///
    /// The default implementation keeps unpartitioned (e.g. mock)
    /// protocols working: with one task it is exactly the monolithic tick;
    /// with several it merges the task uplinks in ascending shard order
    /// and runs the monolithic tick against shard 0's accumulators — the
    /// old "accounting overlay" semantics.
    fn server_phase(&mut self, phase: &mut ServerPhase<'_, '_>) {
        let t0 = std::time::Instant::now();
        if let [task] = phase.tasks {
            self.server_tick(
                phase.tick,
                &std::mem::take(&mut task.uplinks),
                task.probe.as_mut(),
                &mut task.outbox,
                &mut task.ops,
            );
            task.seconds += t0.elapsed().as_secs_f64();
            return;
        }
        let mut all = Uplinks::new();
        for task in phase.tasks.iter_mut() {
            all.append(&mut task.uplinks);
        }
        let first = &mut phase.tasks[0];
        self.server_tick(
            phase.tick,
            &all,
            first.probe.as_mut(),
            &mut first.outbox,
            &mut first.ops,
        );
        first.seconds += t0.elapsed().as_secs_f64();
    }

    /// The currently maintained answer of `query`: neighbor ids in
    /// canonical order (ascending distance, ties by id). The slice length
    /// may be < k only when fewer than k objects exist.
    fn answer(&self, query: QueryId) -> &[ObjectId];

    /// The query position the maintained answer is exact *with respect to*.
    ///
    /// Centralized methods return `None`: their answer refers to the focal
    /// object's true current position. Distributed methods return the
    /// broadcast-predicted region center — the protocol guarantees it stays
    /// within the configured drift threshold of the true focal position, and
    /// the harness verifies exactness against it.
    fn effective_center(&self, query: QueryId) -> Option<Point> {
        let _ = query;
        None
    }

    /// Whether the maintained answer preserves the *order* of the k
    /// neighbors (`true`) or only the set (`false`). Controls how the
    /// harness verifies answers against the oracle.
    fn ordered_answers(&self) -> bool {
        true
    }

    /// Whether the method guarantees tick-exact answers (with respect to
    /// [`Protocol::effective_center`]). Approximate methods (periodic
    /// re-evaluation) return `false`; the harness then records their
    /// accuracy instead of asserting it.
    fn guarantees_exact(&self) -> bool {
        true
    }

    /// Informs the method that its traffic rides a lossy transport (the
    /// harness calls this once, before [`Protocol::init`], when a non-empty
    /// [`crate::FaultPlan`] is configured). Hardened methods switch on their
    /// recovery machinery — acks, retransmission, leases, resync — which
    /// costs extra traffic and therefore stays off on a perfect link, where
    /// it would change the byte-exact message counts for no benefit. The
    /// default is a no-op: an unhardened method simply degrades.
    fn set_lossy(&mut self, lossy: bool) {
        let _ = lossy;
    }

    /// Server shard `shard`, covering `block`, crashed: all server-side
    /// state the failed node held is gone. `queries` lists the queries that
    /// were homed there (their per-query member/candidate/lease state is
    /// wiped); any object bookkeeping tied to positions inside `block` is
    /// lost too.
    ///
    /// The coordinator routes around the dead shard, so the logical server
    /// tier keeps serving — a hardened method re-establishes the wiped
    /// queries through its normal refresh machinery (probe + geocast),
    /// which is exactly the failover cost the experiments measure. The
    /// default is a no-op: a method with no per-query server state (or one
    /// that rebuilds from scratch every tick) loses nothing.
    fn server_crash(&mut self, shard: u32, block: Rect, queries: &[QueryId]) {
        let _ = (shard, block, queries);
    }

    /// Crashed shard `shard`, covering `block`, is back: the coordinator's
    /// state-reconstruction sweep replays the boundary objects the surviving
    /// shards covered for the dead block (`replay`, one entry per object
    /// currently inside `block`). Index-based methods re-learn the replayed
    /// positions into the reborn shard's partition; the default is a no-op
    /// for methods whose recovery rides the device-side machinery instead
    /// (announce-on-adopt, lease polls, ack-gated retransmits).
    fn server_recover(&mut self, shard: u32, block: Rect, replay: &[ObjReport]) {
        let _ = (shard, block, replay);
    }
}

/// Below this many devices, a chunked per-device pass (the parallel client
/// phase, the scoped downlink's frame flush) falls back to the sequential
/// loop: per-tick chunk dispatch overhead beats the win for small worlds,
/// and the small-world golden gates stay trivially on the sequential path.
pub const PAR_MIN_DEVICES: usize = 4096;

/// Runs a *stateless* per-device client body over the whole population,
/// chunked across `ctx.pool`.
///
/// This is the shared harness for protocols whose `client_tick` needs no
/// mutable per-device protocol state (e.g. the centralized baseline's
/// "report position if moved"). Each chunk accumulates its own
/// [`Uplinks`] and [`crate::OpCounters`]; chunks merge in chunk order, so
/// the combined uplink stream and counters are byte-identical to the
/// sequential loop at any thread count or chunk size. Populations below
/// [`PAR_MIN_DEVICES`] (or a one-thread pool) run sequentially.
pub fn parallel_client_phase<F>(
    ctx: &ClientCtx,
    up: &mut Uplinks,
    ops: &mut crate::OpCounters,
    f: F,
) where
    F: Fn(Tick, &MovingObject, &[DownlinkMsg], &mut Uplinks, &mut crate::OpCounters) + Sync,
{
    let n = ctx.len();
    let run_chunk =
        |range: std::ops::Range<usize>, up: &mut Uplinks, ops: &mut crate::OpCounters| {
            for i in range {
                if ctx.is_offline(i) {
                    continue;
                }
                let me = ctx.object(i);
                f(ctx.tick, &me, &ctx.inboxes[i], up, ops);
            }
        };
    if ctx.pool.threads() <= 1 || n < PAR_MIN_DEVICES {
        run_chunk(0..n, up, ops);
        return;
    }
    let chunk = ctx.pool.chunk_size(n);
    let ranges: Vec<std::ops::Range<usize>> = (0..n)
        .step_by(chunk)
        .map(|s| s..(s + chunk).min(n))
        .collect();
    let parts = ctx.pool.map_indexed(ranges, |_, range| {
        let mut up_c = Uplinks::new();
        let mut ops_c = crate::OpCounters::default();
        run_chunk(range, &mut up_c, &mut ops_c);
        (up_c, ops_c)
    });
    for (mut up_c, ops_c) in parts {
        up.append(&mut up_c);
        *ops += ops_c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MsgKind;

    #[test]
    fn mailboxes_queue_in_order() {
        let mut up = Uplinks::new();
        assert!(up.is_empty());
        up.send(
            ObjectId(1),
            UplinkMsg::Leave {
                query: QueryId(0),
                ver: 0,
                pos: Point::ORIGIN,
            },
        );
        up.send(
            ObjectId(2),
            UplinkMsg::Enter {
                query: QueryId(0),
                ver: 0,
                pos: Point::ORIGIN,
                vel: Vector::ZERO,
            },
        );
        assert_eq!(up.len(), 2);
        let froms: Vec<_> = up.iter().map(|(id, _)| id.0).collect();
        assert_eq!(froms, vec![1, 2]);
        let kinds: Vec<_> = up.iter().map(|(_, m)| m.kind()).collect();
        assert_eq!(kinds, vec![MsgKind::Leave, MsgKind::Enter]);
        up.clear();
        assert!(up.is_empty());
    }

    #[test]
    fn outbox_addresses_all_recipient_forms() {
        let mut out = Outbox::new();
        out.send(
            Recipient::One(ObjectId(3)),
            DownlinkMsg::ClearBand { query: QueryId(0) },
        );
        out.send(
            Recipient::Geocast(Circle::new(Point::ORIGIN, 5.0)),
            DownlinkMsg::RemoveRegion { query: QueryId(0) },
        );
        out.send(
            Recipient::Broadcast,
            DownlinkMsg::RemoveRegion { query: QueryId(1) },
        );
        assert_eq!(out.len(), 3);
        assert!(matches!(out.iter().next().unwrap().0, Recipient::One(_)));
    }
}
