//! The traced run: per-layer numbers, timed from outside the program.
//!
//! - Client, server, route and oracle times are deltas of the engine's
//!   public `EpisodeMetrics` clocks; counts are deltas of `NetStats` and
//!   `OpCounters`.
//! - World step, index maintenance and shard tracking run inside `step()`
//!   without a clock of their own. A twin — a second world built from the
//!   same `WorkloadSpec`, a grid index and a link-less `ShardCoordinator` —
//!   re-drives those public calls in lockstep with `step()` and is timed.
//!   The world evolves independently of the protocol, so the twin sees the
//!   positions the engine sees; the run checks that at the end.
//! - Kernel probes time single public calls on inputs taken from the
//!   workload's world at tick 0.

use crate::bench::{self, Options, Outcome, Stepper, WARMUP_TICKS};
use crate::report;
use mknn_core::ShardCoordinator;
use mknn_geom::{Circle, ObjectId, QueryId};
use mknn_index::GridIndex;
use mknn_mobility::World;
use mknn_net::{Delivery, DownlinkMsg, NetStats, QuerySpec, ReplStore, Wire};
use mknn_sim::{percentile, EpisodeMetrics, SimConfig};
use mknn_util::bits::{BitReader, BitWriter};
use std::hint::black_box;
use std::time::Instant;

/// Minimum seconds each kernel probe repeats its input for.
const KERNEL_SECONDS: f64 = 0.05;

/// The untimed engine work `step()` does outside the protocol phases.
struct Twin {
    world: World,
    index: GridIndex,
    coord: ShardCoordinator,
    stats: NetStats,
    specs: Vec<QuerySpec>,
}

/// Seconds and counts the twin accumulates.
#[derive(Debug, Default)]
struct TwinTimes {
    mobility: f64,
    index: f64,
    shard: f64,
    moved: u64,
}

impl Twin {
    /// Mirrors the engine's set-up of world, index and shard ownership.
    fn new(config: &SimConfig, specs: &[QuerySpec]) -> Twin {
        let world = config.workload.build();
        let bounds = world.bounds();
        let index =
            GridIndex::bulk_load(bounds, config.geo_cells, config.geo_cells, world.snapshot());
        let mut coord = ShardCoordinator::new(bounds, config.shards);
        let mut stats = NetStats::default();
        for (i, &pos) in world.positions().iter().enumerate() {
            coord.track_object(
                ObjectId(i as u32),
                pos,
                world.velocities()[i],
                &mut stats,
                None,
            );
        }
        for s in specs {
            coord.track_query(s.id, world.position(s.focal), s.k, &mut stats, None);
        }
        Twin {
            world,
            index,
            coord,
            stats,
            specs: specs.to_vec(),
        }
    }

    /// One tick of world step, dirty-only index upserts and shard
    /// tracking, each timed into `t`.
    fn advance(&mut self, t: &mut TwinTimes) {
        let t0 = Instant::now();
        self.world.step();
        let t1 = Instant::now();
        let pos = self.world.positions();
        for &i in self.world.moved() {
            self.index.upsert(ObjectId(i), pos[i as usize]);
        }
        let t2 = Instant::now();
        let vel = self.world.velocities();
        for &i in self.world.moved() {
            self.coord.track_object(
                ObjectId(i),
                pos[i as usize],
                vel[i as usize],
                &mut self.stats,
                None,
            );
        }
        for s in &self.specs {
            self.coord
                .track_query(s.id, pos[s.focal.index()], s.k, &mut self.stats, None);
        }
        let t3 = Instant::now();
        t.mobility += (t1 - t0).as_secs_f64();
        t.index += (t2 - t1).as_secs_f64();
        t.shard += (t3 - t2).as_secs_f64();
        t.moved += self.world.moved().len() as u64;
    }
}

/// Per-item nanoseconds of the hot kernels.
#[derive(Debug, Default)]
struct Kernels {
    range_ns_per_hit: f64,
    stage_ns_per_copy: f64,
    flush_ns_per_frame: f64,
    encode_ns_per_item: f64,
    decode_ns_per_item: f64,
    problems: Vec<String>,
}

/// Repeats `pass` until `KERNEL_SECONDS` have elapsed (at least twice);
/// returns total seconds and the summed item counts `pass` reported.
fn repeat(mut pass: impl FnMut() -> (f64, u64)) -> (f64, u64) {
    let (mut secs, mut items, mut n) = (0.0, 0, 0);
    while secs < KERNEL_SECONDS || n < 2 {
        let (s, i) = pass();
        secs += s;
        items += i;
        n += 1;
    }
    (secs, items)
}

fn ns_per(secs: f64, items: u64) -> f64 {
    secs * 1e9 / items.max(1) as f64
}

/// Times the range, downlink staging/flush and wire kernels on the
/// regions a query of the workload would install at tick 0: every object
/// within the radius expected to hold 4k objects around each focal point.
fn probe_kernels(world: &World, index: &GridIndex, specs: &[QuerySpec]) -> Kernels {
    let mut k = Kernels::default();
    let density = world.len() as f64 / world.bounds().area();
    let kk = specs.first().map_or(1, |s| s.k);
    let radius = (4.0 * kk as f64 / (std::f64::consts::PI * density)).sqrt();
    let zones: Vec<(QueryId, ObjectId, Circle)> = specs
        .iter()
        .map(|s| (s.id, s.focal, Circle::new(world.position(s.focal), radius)))
        .collect();

    let (secs, hits) = repeat(|| {
        let t = Instant::now();
        let hits: usize = zones
            .iter()
            .map(|(_, _, z)| black_box(index.range(z)).len())
            .sum();
        (t.elapsed().as_secs_f64(), hits as u64)
    });
    k.range_ns_per_hit = ns_per(secs, hits);

    // One InstallRegion per (query, device in its zone).
    let mut sends: Vec<(ObjectId, DownlinkMsg)> = Vec::new();
    for &(query, focal, zone) in &zones {
        for hit in index.range(&zone) {
            sends.push((
                hit.id,
                DownlinkMsg::InstallRegion {
                    query,
                    ver: 0,
                    center: zone.center,
                    vel: world.velocities()[focal.index()],
                    r_out: radius,
                },
            ));
        }
    }

    // Each round is one tick of the replication layer; from the second
    // round on the devices hold acked state, so frames carry deltas.
    let mut store = ReplStore::new();
    let mut round = 0u64;
    let (mut stage_secs, mut copies) = (0.0, 0u64);
    let (flush_secs, frames) = repeat(|| {
        round += 1;
        let mut builder = store.begin_tick(round);
        let t = Instant::now();
        for (to, msg) in &sends {
            let mut msg = *msg;
            if let DownlinkMsg::InstallRegion { ver, .. } = &mut msg {
                *ver = round;
            }
            builder.stage(*to, msg, Delivery::Delivered);
        }
        stage_secs += t.elapsed().as_secs_f64();
        copies += sends.len() as u64;
        let mut stats = NetStats::default();
        let t = Instant::now();
        builder.flush_frames(&mut stats);
        (t.elapsed().as_secs_f64(), stats.frames)
    });
    k.stage_ns_per_copy = ns_per(stage_secs, copies);
    k.flush_ns_per_frame = ns_per(flush_secs, frames);

    let mut bytes = Vec::new();
    let (secs, items) = repeat(|| {
        let mut w = BitWriter::new();
        let t = Instant::now();
        for (_, msg) in &sends {
            msg.encode(&mut w);
        }
        let secs = t.elapsed().as_secs_f64();
        bytes = w.finish().0;
        (secs, sends.len() as u64)
    });
    k.encode_ns_per_item = ns_per(secs, items);
    let (secs, items) = repeat(|| {
        let mut r = BitReader::new(&bytes);
        let t = Instant::now();
        let decoded = (0..sends.len())
            .filter(|_| black_box(DownlinkMsg::decode(&mut r)).is_some())
            .count();
        let secs = t.elapsed().as_secs_f64();
        if decoded != sends.len() {
            k.problems.push(format!(
                "wire decode returned {decoded} of {} messages",
                sends.len()
            ));
        }
        (secs, sends.len() as u64)
    });
    k.decode_ns_per_item = ns_per(secs, items);
    if sends.is_empty() {
        k.problems
            .push("kernel probe found no devices in range".into());
    }
    k
}

/// Window deltas of the engine's public clocks and counters.
fn window(start: &EpisodeMetrics, end: &EpisodeMetrics, ticks: f64, m: &mut report::Metrics) {
    let per = |a: u64, b: u64| (a - b) as f64 / ticks;
    let ms = |a: f64, b: f64| (a - b) * 1e3 / ticks;
    let (sn, en) = (&start.net, &end.net);
    let (ss, es) = (&sn.shard, &en.shard);

    m.set("shard.handoff_msgs", per(es.handoff_msgs, ss.handoff_msgs));
    m.set("shard.legs", per(es.total_msgs(), ss.total_msgs()));
    m.set("shard.recover_msgs", per(es.recover_msgs, ss.recover_msgs));
    let loads: Vec<f64> = end
        .shard_load
        .iter()
        .enumerate()
        .map(|(i, &l)| (l - start.shard_load.get(i).copied().unwrap_or(0)) as f64 / ticks)
        .collect();
    m.set("shard.load_p99", percentile(&loads, 99.0));

    m.set("client.ms", ms(end.client_seconds, start.client_seconds));
    m.set("client.ops", per(end.ops.client_ops, start.ops.client_ops));
    m.set("client.uplinks", per(en.uplink_msgs, sn.uplink_msgs));

    let server_ms = ms(end.server_seconds, start.server_seconds);
    let shard_ms: Vec<f64> = end
        .shard_seconds
        .iter()
        .enumerate()
        .map(|(i, &s)| ms(s, start.shard_seconds.get(i).copied().unwrap_or(0.0)))
        .collect();
    m.set("server.ms", server_ms);
    m.set(
        "server.shard_ms_max",
        shard_ms.iter().copied().fold(0.0, f64::max),
    );
    m.set(
        "server.concurrency",
        shard_ms.iter().sum::<f64>() / server_ms.max(1e-12),
    );
    m.set("server.ops", per(end.ops.server_ops, start.ops.server_ops));

    m.set("route.ms", ms(end.route_seconds, start.route_seconds));
    let frames = en.frames - sn.frames;
    let down_bytes = en.downlink_bytes - sn.downlink_bytes;
    m.set("downlink.frames", frames as f64 / ticks);
    m.set(
        "downlink.bytes_per_frame",
        down_bytes as f64 / frames.max(1) as f64,
    );
    m.set(
        "downlink.header_share",
        (en.frame_header_bytes - sn.frame_header_bytes) as f64 / down_bytes.max(1) as f64,
    );
    m.set(
        "downlink.full_fallbacks",
        per(en.delta_full_fallbacks, sn.delta_full_fallbacks),
    );
    m.set(
        "downlink.geocast_pages",
        per(en.downlink_geocast_msgs, sn.downlink_geocast_msgs),
    );
    m.set("downlink.ack_bytes", per(en.ack_bytes, sn.ack_bytes));

    m.set("fault.dropped", per(en.dropped_msgs, sn.dropped_msgs));
    m.set("fault.dup", per(en.dup_msgs, sn.dup_msgs));
    m.set("fault.delayed", per(en.delayed_msgs, sn.delayed_msgs));
    m.set(
        "fault.retransmits",
        per(
            end.ops.retransmits + es.retransmits,
            start.ops.retransmits + ss.retransmits,
        ),
    );

    m.set("oracle.ms", ms(end.oracle_seconds, start.oracle_seconds));
    m.set("oracle.checks", per(end.exact_checks, start.exact_checks));
}

/// The traced run. After the warm-up, the episode steps in lockstep with
/// the twin through the first half of the ticks, and at least through the
/// gate window (so the crash and recovery legs of `chaos-200k-g4` fall
/// inside it), while the engine's clocks and counters are read around that
/// window. The remaining ticks step the episode alone; their step-time
/// median is the untraced reference for `trace.overhead_pct`.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let config = opts.config();
    let (sim, _) = bench::setup(opts);
    let specs = sim.specs().to_vec();
    let gate_ticks = opts.workload.gate_ticks(opts.scale);
    let mut st = Stepper::new(sim, gate_ticks);

    let mut twin = Twin::new(&config, &specs);
    let mut kernels = probe_kernels(&twin.world, &twin.index, &specs);
    out.problems.append(&mut kernels.problems);

    let total = opts.total_ticks();
    let traced_until = (WARMUP_TICKS + (total - WARMUP_TICKS) / 2).max(gate_ticks);
    let untraced_until = total.max(traced_until + 2);
    while st.tick() < WARMUP_TICKS {
        st.step();
        twin.advance(&mut TwinTimes::default());
    }
    let start = st.sim.metrics().clone();
    let mut times = TwinTimes::default();
    let mut traced_ms = Vec::new();
    while st.tick() < traced_until {
        traced_ms.push(st.step() * 1e3);
        twin.advance(&mut times);
    }
    let end = st.sim.metrics().clone();
    if twin.world.positions() != st.sim.world().positions() {
        out.problems
            .push("the twin world diverged from the episode's".into());
    }
    drop(twin);
    let mut plain_ms = Vec::new();
    while st.tick() < untraced_until {
        plain_ms.push(st.step() * 1e3);
    }
    st.finish(opts, &mut out);

    let ticks = traced_ms.len() as f64;
    let m = &mut out.metrics;
    m.set("mobility.step_ms", times.mobility * 1e3 / ticks);
    m.set("mobility.moved", times.moved as f64 / ticks);
    m.set("index.upsert_ms", times.index * 1e3 / ticks);
    m.set("index.upserts", times.moved as f64 / ticks);
    m.set("shard.track_ms", times.shard * 1e3 / ticks);
    window(&start, &end, ticks, m);
    m.set("index.range_ns_per_hit", kernels.range_ns_per_hit);
    m.set("downlink.stage_ns_per_copy", kernels.stage_ns_per_copy);
    m.set("downlink.flush_ns_per_frame", kernels.flush_ns_per_frame);
    m.set("wire.encode_ns_per_item", kernels.encode_ns_per_item);
    m.set("wire.decode_ns_per_item", kernels.decode_ns_per_item);

    let step_ms = traced_ms.iter().sum::<f64>() / ticks;
    let layers_ms: f64 = [
        "mobility.step_ms",
        "index.upsert_ms",
        "shard.track_ms",
        "client.ms",
        "server.ms",
        "route.ms",
        "oracle.ms",
    ]
    .iter()
    .map(|n| m.get(n).unwrap_or(0.0))
    .sum();
    m.set("trace.coverage", layers_ms / step_ms);
    m.set("engine.untraced_ms", step_ms - layers_ms);
    let plain = percentile(&plain_ms, 50.0);
    m.set(
        "trace.overhead_pct",
        (percentile(&traced_ms, 50.0) - plain) / plain * 100.0,
    );
    out.detail
        .push(("untraced_ticks".into(), plain_ms.len().to_string()));
    out.detail
        .push(("traced_ticks".into(), traced_ms.len().to_string()));
    out
}
