//! The centralized monitoring baseline.

use crate::partitioned::PartitionedTier;
use mknn_geom::{ObjectId, QueryId, Rect, Tick};
use mknn_mobility::MovingObject;
use mknn_net::{
    DownlinkMsg, OpCounters, Outbox, ProbeService, Protocol, QuerySpec, ServerPhase, UplinkMsg,
    Uplinks,
};

/// Centralized continuous kNN monitoring (the classic server-side
/// architecture of SEA-CNN / CPM, reduced to its communication pattern):
/// every device reports its position on every tick it moves, the server
/// keeps a uniform grid index current and re-evaluates each query each tick.
///
/// Answers are exact with respect to true positions. The price is the Θ(N)
/// uplink firehose — the quantity the distributed protocols eliminate.
///
/// Under a sharded deployment the server state partitions by ownership:
/// each shard indexes the objects reporting to it and answers its homed
/// queries by federated evaluation over all partitions.
#[derive(Debug)]
pub struct Centralized {
    tier: PartitionedTier,
}

impl Centralized {
    /// Creates the baseline with a `grid_res × grid_res` server index.
    pub fn new(grid_res: u32) -> Self {
        Centralized {
            tier: PartitionedTier::new(grid_res),
        }
    }
}

impl Default for Centralized {
    fn default() -> Self {
        Centralized::new(64)
    }
}

impl Protocol for Centralized {
    fn name(&self) -> &'static str {
        "centralized"
    }

    fn init(
        &mut self,
        bounds: Rect,
        objects: &[MovingObject],
        queries: &[QuerySpec],
        _probe: &mut dyn ProbeService,
        _outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        self.tier.init(bounds, objects, queries, ops);
    }

    fn client_tick(
        &mut self,
        _tick: Tick,
        me: &MovingObject,
        _inbox: &[DownlinkMsg],
        up: &mut Uplinks,
        ops: &mut OpCounters,
    ) {
        report_if_moved(me, up, ops);
    }

    fn client_phase(&mut self, ctx: &mknn_net::ClientCtx, up: &mut Uplinks, ops: &mut OpCounters) {
        // The per-device body is stateless, so the chunked harness runs it
        // over a zero-sized state per device.
        mknn_net::parallel_client_phase(
            ctx,
            &mut vec![(); ctx.len()],
            up,
            ops,
            |_, me, _, up, ops| report_if_moved(me, up, ops),
        );
    }

    fn server_phase(&mut self, phase: &mut ServerPhase<'_, '_>) {
        self.tier.server_phase(phase);
    }

    fn server_crash(&mut self, _shard: u32, block: Rect, queries: &[QueryId]) {
        // The crashed shard's slice of the position index is lost. Moving
        // devices re-teach their entries through the per-tick report
        // firehose; stationary ones stay dark until the reconstruction
        // sweep replays them at rebirth.
        self.tier.crash(block, queries);
    }

    fn server_recover(&mut self, shard: u32, _block: Rect, replay: &[mknn_net::ObjReport]) {
        // The counted `Recover` sweep re-announces every object inside the
        // reborn block; the index is whole again from this tick on.
        self.tier.recover(shard, replay);
    }

    fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.tier.answer(query)
    }
}

/// The centralized client: a device reports its position whenever it
/// moved this tick.
fn report_if_moved(me: &MovingObject, up: &mut Uplinks, ops: &mut OpCounters) {
    ops.client_ops += 1;
    if me.vel != mknn_geom::Vector::ZERO {
        up.send(
            me.id,
            UplinkMsg::Position {
                pos: me.pos,
                vel: me.vel,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_geom::{Circle, Point, Vector};
    use mknn_net::single_shard_phase;
    use mknn_net::ObjReport;

    struct NoProbe;
    impl ProbeService for NoProbe {
        fn probe(&mut self, _q: QueryId, _z: Circle, _e: ObjectId) -> Vec<ObjReport> {
            panic!("centralized must not probe")
        }
        fn poll(&mut self, _q: QueryId, _id: ObjectId) -> Option<ObjReport> {
            panic!("centralized must not poll")
        }
    }

    fn objs() -> Vec<MovingObject> {
        (0..6u32)
            .map(|i| MovingObject::at(ObjectId(i), Point::new(i as f64 * 10.0, 0.0), 5.0))
            .collect()
    }

    #[test]
    fn tracks_answers_through_updates() {
        let mut c = Centralized::new(8);
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k: 2,
        }];
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        c.init(
            Rect::square(100.0),
            &objs(),
            &queries,
            &mut NoProbe,
            &mut outbox,
            &mut ops,
        );
        assert_eq!(c.answer(QueryId(0)), &[ObjectId(1), ObjectId(2)]);

        // Object 5 teleports right next to the focal.
        let mut up = Uplinks::new();
        up.send(
            ObjectId(5),
            UplinkMsg::Position {
                pos: Point::new(1.0, 0.0),
                vel: Vector::ZERO,
            },
        );
        single_shard_phase(&mut c, 1, up, &mut NoProbe, &mut outbox, &mut ops);
        assert_eq!(c.answer(QueryId(0)), &[ObjectId(5), ObjectId(1)]);
    }

    #[test]
    fn moving_focal_recenters_query() {
        let mut c = Centralized::new(8);
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k: 2,
        }];
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        c.init(
            Rect::square(100.0),
            &objs(),
            &queries,
            &mut NoProbe,
            &mut outbox,
            &mut ops,
        );
        let mut up = Uplinks::new();
        up.send(
            ObjectId(0),
            UplinkMsg::Position {
                pos: Point::new(48.0, 0.0),
                vel: Vector::ZERO,
            },
        );
        single_shard_phase(&mut c, 1, up, &mut NoProbe, &mut outbox, &mut ops);
        assert_eq!(c.answer(QueryId(0)), &[ObjectId(5), ObjectId(4)]);
    }

    #[test]
    fn stationary_devices_stay_silent() {
        let mut c = Centralized::new(8);
        let mut up = Uplinks::new();
        let mut ops = OpCounters::default();
        let me = MovingObject::at(ObjectId(3), Point::new(1.0, 1.0), 5.0);
        c.client_tick(1, &me, &[], &mut up, &mut ops);
        assert!(up.is_empty());
        let mut moved = me;
        moved.vel = Vector::new(1.0, 0.0);
        c.client_tick(2, &moved, &[], &mut up, &mut ops);
        assert_eq!(up.len(), 1);
    }
}
