//! The assembled DKNN protocol (client half + server half).

use crate::{ClientHalf, DknnParams, Mode, ParamError, ServerHalf};
use mknn_geom::{ObjectId, Point, QueryId, Rect, Tick};
use mknn_mobility::MovingObject;
use mknn_net::{
    DownlinkMsg, OpCounters, Outbox, ProbeService, Protocol, QuerySpec, ServerPhase,
    ShardedServers, Uplinks,
};

/// Distributed processing of moving k-nearest-neighbor queries — the
/// reproduction of the target paper's contribution.
///
/// Two semantics levels share one machinery:
///
/// * **Set mode** ([`Dknn::set`]) maintains the exact kNN *set* using only
///   region boundary crossings: a midpoint threshold `t` between the k-th
///   and (k+1)-th neighbor makes the set invariant under silent movement on
///   either side, so no position reports are needed until something crosses.
/// * **Ordered mode** ([`Dknn::ordered`]) additionally maintains the exact
///   neighbor *order* by assigning each member a response band (annulus);
///   internal order changes surface as band crossings, which the server
///   patches locally with at most one poll and two band installs.
///
/// Answers are exact with respect to the [effective query
/// center](Protocol::effective_center), which the protocol keeps within
/// [`DknnParams::query_drift`] meters of the focal object's true position.
#[derive(Debug)]
pub struct Dknn {
    params: DknnParams,
    mode: Mode,
    client: ClientHalf,
    /// One [`ServerHalf`] per shard of the deployed server tier; each
    /// partition owns exactly the per-query server state homed at its
    /// shard.
    servers: ShardedServers<ServerHalf>,
    lossy: bool,
}

impl Dknn {
    /// Set-semantics protocol (cheapest messaging).
    ///
    /// # Panics
    ///
    /// Panics when `params` fail [`DknnParams::validate`]; use
    /// [`Dknn::try_set`] to handle invalid parameters gracefully.
    pub fn set(params: DknnParams) -> Self {
        Self::try_set(params).expect("invalid DknnParams")
    }

    /// Order-preserving protocol.
    ///
    /// # Panics
    ///
    /// Panics when `params` fail [`DknnParams::validate`]; use
    /// [`Dknn::try_ordered`] to handle invalid parameters gracefully.
    pub fn ordered(params: DknnParams) -> Self {
        Self::try_ordered(params).expect("invalid DknnParams")
    }

    /// Fallible [`Dknn::set`]: rejects invalid parameters with the typed
    /// error instead of panicking.
    pub fn try_set(params: DknnParams) -> Result<Self, ParamError> {
        Self::with_mode(params, Mode::Set)
    }

    /// Fallible [`Dknn::ordered`].
    pub fn try_ordered(params: DknnParams) -> Result<Self, ParamError> {
        Self::with_mode(params, Mode::Ordered)
    }

    fn with_mode(params: DknnParams, mode: Mode) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(Dknn {
            params,
            mode,
            client: ClientHalf::new(params, 0),
            servers: ShardedServers::new(ServerHalf::new(params, mode)),
            lossy: false,
        })
    }

    /// The configured parameters.
    pub fn params(&self) -> &DknnParams {
        &self.params
    }

    /// Number of full refreshes performed so far (diagnostics).
    pub fn refreshes(&self) -> u64 {
        self.servers
            .shards()
            .iter()
            .map(|s| s.total_refreshes())
            .sum()
    }

    /// Number of locally patched band events (ordered mode diagnostics).
    pub fn band_fixes(&self) -> u64 {
        self.servers
            .shards()
            .iter()
            .map(|s| s.total_band_fixes())
            .sum()
    }

    /// Diagnostic: regions installed on device `idx` right now.
    pub fn client_regions(&self, idx: usize) -> usize {
        self.client.installed_regions(idx)
    }
}

impl Protocol for Dknn {
    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Set => "dknn-set",
            Mode::Ordered => "dknn-order",
        }
    }

    fn set_lossy(&mut self, lossy: bool) {
        self.lossy = lossy;
        self.client.set_lossy(lossy);
        for server in self.servers.shards_mut() {
            server.set_lossy(lossy);
        }
    }

    fn init(
        &mut self,
        bounds: Rect,
        objects: &[MovingObject],
        queries: &[QuerySpec],
        _probe: &mut dyn ProbeService,
        outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        self.client = ClientHalf::new(self.params, objects.len());
        self.client.set_lossy(self.lossy);
        for spec in queries {
            self.client.set_focal(spec.focal.index(), spec.id);
        }
        // Registration is a single-server act: the tier forks into its
        // partitions lazily at the first server phase.
        self.servers
            .reset(queries.len())
            .init(bounds, objects, queries, outbox, ops);
    }

    fn client_tick(
        &mut self,
        tick: Tick,
        me: &MovingObject,
        inbox: &[DownlinkMsg],
        up: &mut Uplinks,
        ops: &mut OpCounters,
    ) {
        self.client.tick(tick, me, inbox, up, ops);
    }

    fn client_phase(&mut self, ctx: &mknn_net::ClientCtx, up: &mut Uplinks, ops: &mut OpCounters) {
        // Per-device band/region checks are independent: chunk them over
        // the pool (byte-identical to the sequential loop by chunk-order
        // merge; see ClientHalf::tick_batch).
        self.client.tick_batch(ctx, up, ops);
    }

    fn server_phase(&mut self, phase: &mut ServerPhase<'_, '_>) {
        // Every partition ticks independently on the uplinks homed at its
        // shard; per-query state never crosses partitions mid-phase, so the
        // parallel dispatch is deterministic at any thread count.
        let tick = phase.tick;
        self.servers.run_phase(phase, |server, task| {
            let up = std::mem::take(&mut task.uplinks);
            server.tick(
                tick,
                &up,
                task.probe.as_mut(),
                &mut task.outbox,
                &mut task.ops,
            );
        });
    }

    fn server_crash(&mut self, _shard: u32, _block: Rect, queries: &[QueryId]) {
        // The crashed shard's member/band/answer state is gone; the focal
        // registry survives (durable coordinator metadata). Recovery rides
        // the ordinary refresh machinery: the next server tick probes and
        // re-establishes each wiped query. Each query lives in exactly one
        // partition, so wiping across the tier touches exactly its holder.
        for server in self.servers.shards_mut() {
            server.crash_queries(queries);
        }
    }

    // `server_recover` stays the default no-op: DKNN's server holds no
    // object index to re-learn — the reconstruction sweep's replayed
    // boundary objects only matter to methods that track positions.

    fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.servers.holder(query).answer(query)
    }

    fn effective_center(&self, query: QueryId) -> Option<Point> {
        self.servers.holder(query).effective_center(query)
    }

    fn ordered_answers(&self) -> bool {
        self.mode == Mode::Ordered
    }
}
