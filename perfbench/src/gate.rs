//! The correctness gate: the clock-free statistics of a run's first
//! `gate_ticks` ticks, compared with the values pinned in `pins.txt`.
//!
//! The simulator is deterministic for a given configuration, so a change
//! that only speeds it up must leave every one of these numbers identical.

use crate::workload::{Scale, Workload};
use mknn_sim::EpisodeMetrics;

/// The pinned statistics, one row per (workload, scale, seed).
pub const PINS: &str = include_str!("../pins.txt");

/// Simulated statistics of an episode prefix: no clock enters them.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Ticks stepped.
    pub ticks: u64,
    /// All messages, init handshake included.
    pub msgs: u64,
    /// Device → server messages.
    pub uplink_msgs: u64,
    /// Bytes in both directions.
    pub bytes: u64,
    /// Oracle checks that found the answer exact.
    pub exact_ok: u64,
    /// Oracle checks made.
    pub exact_checks: u64,
    /// Sum of per-check recall against the true kNN.
    pub recall_sum: f64,
    /// Full-snapshot re-sends forced by replication gaps.
    pub full_fallbacks: u64,
    /// Inter-shard legs.
    pub shard_legs: u64,
    /// Deliveries lost by the fault layer.
    pub dropped: u64,
    /// Extra copies delivered by the fault layer.
    pub dup: u64,
    /// Deliveries held back by the fault layer.
    pub delayed: u64,
    /// Device-side critical-uplink retransmissions.
    pub retransmits: u64,
}

/// Field names in `pins.txt` column order (after workload, scale, seed).
pub const FIELDS: [&str; 13] = [
    "ticks",
    "msgs",
    "uplink_msgs",
    "bytes",
    "exact_ok",
    "exact_checks",
    "recall_sum",
    "full_fallbacks",
    "shard_legs",
    "dropped",
    "dup",
    "delayed",
    "retransmits",
];

impl SimStats {
    /// The statistics accumulated in `m`.
    pub fn of(m: &EpisodeMetrics) -> SimStats {
        SimStats {
            ticks: m.ticks,
            msgs: m.net.total_msgs(),
            uplink_msgs: m.net.uplink_msgs,
            bytes: m.net.total_bytes(),
            exact_ok: m.exact_ok,
            exact_checks: m.exact_checks,
            recall_sum: m.recall_sum,
            full_fallbacks: m.net.delta_full_fallbacks,
            shard_legs: m.net.shard.total_msgs(),
            dropped: m.net.dropped_msgs,
            dup: m.net.dup_msgs,
            delayed: m.net.delayed_msgs,
            retransmits: m.ops.retransmits,
        }
    }

    /// Messages per tick.
    pub fn msgs_per_tick(&self) -> f64 {
        self.msgs as f64 / self.ticks.max(1) as f64
    }

    /// Uplink messages per tick.
    pub fn uplink_msgs_per_tick(&self) -> f64 {
        self.uplink_msgs as f64 / self.ticks.max(1) as f64
    }

    /// Bytes per tick.
    pub fn bytes_per_tick(&self) -> f64 {
        self.bytes as f64 / self.ticks.max(1) as f64
    }

    /// Share of oracle checks that were exact.
    pub fn exactness(&self) -> f64 {
        self.exact_ok as f64 / self.exact_checks.max(1) as f64
    }

    /// Mean recall against the true kNN.
    pub fn recall(&self) -> f64 {
        self.recall_sum / self.exact_checks.max(1) as f64
    }

    fn values(&self) -> [String; 13] {
        [
            self.ticks.to_string(),
            self.msgs.to_string(),
            self.uplink_msgs.to_string(),
            self.bytes.to_string(),
            self.exact_ok.to_string(),
            self.exact_checks.to_string(),
            // `{:?}` round-trips an f64 exactly.
            format!("{:?}", self.recall_sum),
            self.full_fallbacks.to_string(),
            self.shard_legs.to_string(),
            self.dropped.to_string(),
            self.dup.to_string(),
            self.delayed.to_string(),
            self.retransmits.to_string(),
        ]
    }

    /// The `pins.txt` row pinning these statistics.
    pub fn pin_row(&self, workload: &str, scale: Scale, seed: u64) -> String {
        format!(
            "{workload} {} {seed} {}",
            scale.name(),
            self.values().join(" ")
        )
    }

    fn parse(fields: &[&str]) -> Result<SimStats, String> {
        if fields.len() != FIELDS.len() {
            return Err(format!(
                "expected {} values, got {}",
                FIELDS.len(),
                fields.len()
            ));
        }
        let int = |i: usize| {
            fields[i]
                .parse::<u64>()
                .map_err(|e| format!("{}: {e}", FIELDS[i]))
        };
        Ok(SimStats {
            ticks: int(0)?,
            msgs: int(1)?,
            uplink_msgs: int(2)?,
            bytes: int(3)?,
            exact_ok: int(4)?,
            exact_checks: int(5)?,
            recall_sum: fields[6]
                .parse::<f64>()
                .map_err(|e| format!("recall_sum: {e}"))?,
            full_fallbacks: int(7)?,
            shard_legs: int(8)?,
            dropped: int(9)?,
            dup: int(10)?,
            delayed: int(11)?,
            retransmits: int(12)?,
        })
    }
}

/// One row of `pins.txt`.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// Workload name.
    pub workload: String,
    /// Scale name.
    pub scale: String,
    /// Workload seed.
    pub seed: u64,
    /// The pinned statistics.
    pub stats: SimStats,
}

/// Parses a pin table: one row per line, `#` starts a comment.
pub fn parse_pins(text: &str) -> Result<Vec<Pin>, String> {
    let mut pins = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 3 {
            return Err(format!("pins line {}: too few fields", no + 1));
        }
        let seed = fields[2]
            .parse::<u64>()
            .map_err(|e| format!("pins line {}: seed: {e}", no + 1))?;
        let stats =
            SimStats::parse(&fields[3..]).map_err(|e| format!("pins line {}: {e}", no + 1))?;
        pins.push(Pin {
            workload: fields[0].to_string(),
            scale: fields[1].to_string(),
            seed,
            stats,
        });
    }
    Ok(pins)
}

/// The pinned statistics for (`workload`, `scale`, `seed`) in `pins`.
pub fn find<'a>(pins: &'a [Pin], workload: &str, scale: Scale, seed: u64) -> Option<&'a SimStats> {
    pins.iter()
        .find(|p| p.workload == workload && p.scale == scale.name() && p.seed == seed)
        .map(|p| &p.stats)
}

/// Checks a run's gate statistics. Returns every problem found; an empty
/// list passes.
///
/// Without a pin for the seed only the invariants are checked: every tick
/// checked every query, the fault counters are zero on a perfect link, and
/// there every check is exact (the workloads' methods guarantee exactness).
pub fn check(
    w: &Workload,
    scale: Scale,
    queries: usize,
    stats: &SimStats,
    pin: Option<&SimStats>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(pin) = pin {
        for ((name, got), want) in FIELDS.iter().zip(stats.values()).zip(pin.values()) {
            if got != want {
                problems.push(format!("{name}: got {got}, pinned {want}"));
            }
        }
    }
    let ticks = w.gate_ticks(scale);
    if stats.ticks != ticks {
        problems.push(format!("gate covers {} ticks, want {ticks}", stats.ticks));
    }
    if stats.exact_checks != ticks * queries as u64 {
        problems.push(format!(
            "{} oracle checks in {ticks} ticks of {queries} queries",
            stats.exact_checks
        ));
    }
    if w.perfect_link() {
        if stats.exact_ok != stats.exact_checks {
            problems.push(format!("exactness {} on a perfect link", stats.exactness()));
        }
        let faults = stats.dropped + stats.dup + stats.delayed + stats.retransmits;
        if faults != 0 {
            problems.push(format!("{faults} fault events on a perfect link"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_pin_table_parses() {
        let pins = parse_pins(PINS).expect("pins.txt parses");
        for p in &pins {
            assert!(Workload::by_name(&p.workload).is_some(), "{}", p.workload);
            assert!(Scale::parse(&p.scale).is_some(), "{}", p.scale);
        }
    }

    #[test]
    fn every_workload_is_pinned_on_the_default_and_held_out_seeds() {
        use crate::workload::{DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};
        let pins = parse_pins(PINS).unwrap();
        for w in &WORKLOADS {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let pin = find(&pins, w.name, Scale::Full, seed);
                assert_eq!(pin.map(|p| p.ticks), Some(w.gate_ticks(Scale::Full)));
            }
        }
    }

    #[test]
    fn rows_round_trip() {
        let s = SimStats {
            ticks: 5,
            msgs: 10,
            uplink_msgs: 3,
            bytes: 99,
            exact_ok: 40,
            exact_checks: 50,
            recall_sum: 0.1 + 0.2,
            full_fallbacks: 1,
            shard_legs: 2,
            dropped: 3,
            dup: 4,
            delayed: 5,
            retransmits: 6,
        };
        let row = s.pin_row("dknn-1m", Scale::Tiny, 9);
        let pins = parse_pins(&row).unwrap();
        assert_eq!(pins[0].stats, s);
        assert_eq!(pins[0].seed, 9);
    }
}
