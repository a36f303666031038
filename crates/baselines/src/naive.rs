//! The naive per-tick probing strawman.

use mknn_geom::{Circle, ObjectId, Point, QueryId, Rect, Tick, Vector};
use mknn_mobility::MovingObject;
use mknn_net::{
    DownlinkMsg, OpCounters, Outbox, ProbeService, Protocol, QuerySpec, ServerPhase, ShardState,
    ShardedServers, UplinkMsg, Uplinks,
};
use std::collections::BTreeMap;

/// Per-query server record: the cached answer and the adaptive zone radius.
#[derive(Debug, Clone)]
struct NState {
    spec: QuerySpec,
    q_pos: Point,
    radius: f64,
    answer: Vec<ObjectId>,
}

/// The query records one shard hosts, keyed by query id (ascending
/// iteration keeps the G=1 byte trace identical to the historical
/// dense-`Vec` order).
#[derive(Debug, Default)]
struct NaiveShard {
    queries: BTreeMap<u32, NState>,
}

impl ShardState for NaiveShard {
    fn fork(&self) -> NaiveShard {
        NaiveShard::default()
    }

    fn move_query(&mut self, id: u32, to: &mut NaiveShard) {
        if let Some(q) = self.queries.remove(&id) {
            to.queries.insert(id, q);
        }
    }
}

/// Naive distributed processing: every tick, for every query, the server
/// geocasts a probe over an adaptive zone around the query position and
/// rebuilds the answer from the replies.
///
/// Exact and simple, but the probe fan-out (zone cells + ~k replies) is paid
/// *every tick for every query*, even when nothing moved — the monitoring
/// protocols exist precisely to amortize this.
///
/// The strawman's server state is purely per-query, so the sharded
/// deployment partitions it by query home: each shard probes for its homed
/// queries through its own probe channel.
#[derive(Debug)]
pub struct NaiveBroadcast {
    /// Zone radius multiplier applied to the last k-th distance.
    headroom: f64,
    /// Client-side registry (focal → query), shared by every device.
    specs: Vec<QuerySpec>,
    /// Per-shard query records.
    shards: ShardedServers<NaiveShard>,
    space_diag: f64,
    empty: Vec<ObjectId>,
}

impl NaiveBroadcast {
    /// Creates the baseline; `headroom > 1` is the zone over-size factor
    /// that absorbs movement between ticks.
    pub fn new(headroom: f64) -> Self {
        assert!(headroom > 1.0);
        NaiveBroadcast {
            headroom,
            specs: Vec::new(),
            shards: ShardedServers::new(NaiveShard::default()),
            space_diag: 1.0,
            empty: Vec::new(),
        }
    }

    /// One query's probe-until-k loop (identical on every shard).
    fn evaluate_state(
        state: &mut NState,
        probe: &mut dyn ProbeService,
        ops: &mut OpCounters,
        space_diag: f64,
        headroom: f64,
    ) {
        let center = state.q_pos;
        let mut r = state.radius.clamp(1.0, space_diag);
        let replies = loop {
            let replies = probe.probe(state.spec.id, Circle::new(center, r), state.spec.focal);
            ops.server_ops += replies.len() as u64 + 1;
            if replies.len() >= state.spec.k || r >= space_diag {
                break replies;
            }
            r = (r * 2.0).min(space_diag);
        };
        let mut scored: Vec<(f64, ObjectId)> = replies
            .iter()
            .map(|o| (o.pos.dist_sq(center), o.id))
            .collect();
        scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        state.answer = scored
            .iter()
            .take(state.spec.k)
            .map(|&(_, id)| id)
            .collect();
        // Next tick's zone: the current k-th distance plus headroom.
        if let Some(&(d2, _)) = scored.get(state.spec.k.saturating_sub(1)) {
            state.radius = d2.sqrt() * headroom;
        }
    }
}

impl Default for NaiveBroadcast {
    fn default() -> Self {
        NaiveBroadcast::new(1.5)
    }
}

impl Protocol for NaiveBroadcast {
    fn name(&self) -> &'static str {
        "naive-probe"
    }

    fn init(
        &mut self,
        bounds: Rect,
        objects: &[MovingObject],
        queries: &[QuerySpec],
        probe: &mut dyn ProbeService,
        _outbox: &mut Outbox,
        ops: &mut OpCounters,
    ) {
        self.space_diag = bounds.min.dist(bounds.max);
        self.specs = queries.to_vec();
        let shard = self.shards.reset(queries.len());
        for spec in queries {
            shard.queries.insert(
                spec.id.0,
                NState {
                    spec: *spec,
                    q_pos: objects[spec.focal.index()].pos,
                    radius: self.space_diag * 0.02,
                    answer: Vec::new(),
                },
            );
        }
        // Registration homes every query at shard 0, so this is the
        // ascending-id evaluation of the whole tier.
        for state in shard.queries.values_mut() {
            Self::evaluate_state(state, probe, ops, self.space_diag, self.headroom);
        }
    }

    fn client_tick(
        &mut self,
        _tick: Tick,
        me: &MovingObject,
        _inbox: &[DownlinkMsg],
        up: &mut Uplinks,
        _ops: &mut OpCounters,
    ) {
        // Only focal devices speak unprompted (probe replies are handled by
        // the harness's synchronous channel).
        for si in 0..self.specs.len() {
            let spec = self.specs[si];
            if spec.focal == me.id && me.vel != Vector::ZERO {
                up.send(
                    me.id,
                    UplinkMsg::QueryMove {
                        query: spec.id,
                        pos: me.pos,
                        vel: me.vel,
                    },
                );
            }
        }
    }

    fn server_phase(&mut self, phase: &mut ServerPhase<'_, '_>) {
        // Each shard ingests its homed QueryMoves and probes for its homed
        // queries through its own probe channel — per-query state never
        // crosses shards mid-phase.
        let (space_diag, headroom) = (self.space_diag, self.headroom);
        self.shards.run_phase(phase, |shard, task| {
            let up = std::mem::take(&mut task.uplinks);
            for (from, msg) in up.iter() {
                if let UplinkMsg::QueryMove { query, pos, .. } = msg {
                    if let Some(q) = shard.queries.get_mut(&query.0) {
                        if q.spec.focal == from {
                            q.q_pos = *pos;
                        }
                    }
                }
            }
            for state in shard.queries.values_mut() {
                Self::evaluate_state(
                    state,
                    task.probe.as_mut(),
                    &mut task.ops,
                    space_diag,
                    headroom,
                );
            }
        });
    }

    fn server_crash(&mut self, _shard: u32, _block: Rect, queries: &[QueryId]) {
        // The strawman keeps only the cached answer and the adaptive zone
        // radius per query; both are rebuilt by next tick's probe, so a
        // crash costs one tick of answer loss plus the re-grown zone. Each
        // query lives in exactly one shard, so the sweep touches exactly
        // its holder.
        for shard in self.shards.shards_mut() {
            for &q in queries {
                if let Some(state) = shard.queries.get_mut(&q.0) {
                    state.answer.clear();
                    state.radius = self.space_diag * 0.02;
                }
            }
        }
    }

    fn answer(&self, query: QueryId) -> &[ObjectId] {
        self.shards
            .holder(query)
            .queries
            .get(&query.0)
            .map_or(&self.empty, |q| q.answer.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mknn_net::single_shard_phase;
    use mknn_net::ObjReport;

    struct TableProbe {
        positions: Vec<Point>,
        probes: u32,
    }

    impl ProbeService for TableProbe {
        fn probe(&mut self, _q: QueryId, zone: Circle, exclude: ObjectId) -> Vec<ObjReport> {
            self.probes += 1;
            self.positions
                .iter()
                .enumerate()
                .filter(|&(i, p)| ObjectId(i as u32) != exclude && zone.contains(*p))
                .map(|(i, p)| ObjReport {
                    id: ObjectId(i as u32),
                    pos: *p,
                    vel: Vector::ZERO,
                })
                .collect()
        }
        fn poll(&mut self, _q: QueryId, _id: ObjectId) -> Option<ObjReport> {
            None
        }
    }

    fn objs() -> Vec<MovingObject> {
        (0..8u32)
            .map(|i| MovingObject::at(ObjectId(i), Point::new(i as f64 * 100.0, 0.0), 5.0))
            .collect()
    }

    #[test]
    fn probes_until_k_found_then_tracks() {
        let mut n = NaiveBroadcast::default();
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k: 3,
        }];
        let mut probe = TableProbe {
            positions: objs().iter().map(|o| o.pos).collect(),
            probes: 0,
        };
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        n.init(
            Rect::square(10_000.0),
            &objs(),
            &queries,
            &mut probe,
            &mut outbox,
            &mut ops,
        );
        assert_eq!(
            n.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(2), ObjectId(3)]
        );
        assert!(probe.probes >= 1);

        // Every subsequent tick probes again even with zero movement.
        let before = probe.probes;
        let up = Uplinks::new();
        single_shard_phase(&mut n, 1, up, &mut probe, &mut outbox, &mut ops);
        assert!(probe.probes > before);
        assert_eq!(
            n.answer(QueryId(0)),
            &[ObjectId(1), ObjectId(2), ObjectId(3)]
        );
    }

    #[test]
    fn query_move_recenters() {
        let mut n = NaiveBroadcast::default();
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k: 2,
        }];
        let mut probe = TableProbe {
            positions: objs().iter().map(|o| o.pos).collect(),
            probes: 0,
        };
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        n.init(
            Rect::square(10_000.0),
            &objs(),
            &queries,
            &mut probe,
            &mut outbox,
            &mut ops,
        );
        let mut up = Uplinks::new();
        up.send(
            ObjectId(0),
            UplinkMsg::QueryMove {
                query: QueryId(0),
                pos: Point::new(690.0, 0.0),
                vel: Vector::ZERO,
            },
        );
        single_shard_phase(&mut n, 1, up, &mut probe, &mut outbox, &mut ops);
        assert_eq!(n.answer(QueryId(0)), &[ObjectId(7), ObjectId(6)]);
    }

    #[test]
    fn server_learns_the_focal_position_only_from_query_move() {
        let mut n = NaiveBroadcast::default();
        let queries = [QuerySpec {
            id: QueryId(0),
            focal: ObjectId(0),
            k: 2,
        }];
        let mut probe = TableProbe {
            positions: objs().iter().map(|o| o.pos).collect(),
            probes: 0,
        };
        let mut outbox = Outbox::new();
        let mut ops = OpCounters::default();
        n.init(
            Rect::square(10_000.0),
            &objs(),
            &queries,
            &mut probe,
            &mut outbox,
            &mut ops,
        );
        // The focal drives to the far end and sends its QueryMove, but the
        // uplink is lost: the server phase never sees it.
        let mut moved = objs()[0];
        moved.pos = Point::new(690.0, 0.0);
        moved.vel = Vector::new(690.0, 0.0);
        let mut up = Uplinks::new();
        n.client_tick(1, &moved, &[], &mut up, &mut ops);
        assert_eq!(up.len(), 1, "the focal reports its move");
        single_shard_phase(&mut n, 1, Uplinks::new(), &mut probe, &mut outbox, &mut ops);
        // The answer is still the kNN of the last position the server heard.
        assert_eq!(n.answer(QueryId(0)), &[ObjectId(1), ObjectId(2)]);
    }
}
