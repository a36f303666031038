//! The named workloads and the `SimConfig` each one generates from a seed.

use mknn_mobility::{Motion, Placement, SpeedDist, WorkloadSpec};
use mknn_net::FaultPlan;
use mknn_sim::{DownlinkMode, Method, SimConfig, VerifyMode};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of development: a later speed claim is confirmed on it
/// after being worked out on other seeds.
pub const HELD_OUT_SEED: u64 = 20_071;

/// Queries registered in every workload.
pub const QUERIES: usize = 100;

/// Neighbours per query in every workload.
pub const K: usize = 10;

/// Population size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workload as defined (1M or 200k objects).
    Full,
    /// One thousandth of the population and ten queries, for the
    /// benchmark's own tests.
    Tiny,
}

impl Scale {
    /// Parses `full` or `tiny`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    /// The name `parse` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    DknnSet,
    DknnBuffer,
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    kind: Kind,
    n_objects: usize,
    shards: u32,
    chaos: bool,
    /// Ticks whose simulated statistics the correctness gate pins (the
    /// episode length handed to the simulator). A run always steps at least
    /// this far, whatever `--seconds` says.
    gate_ticks: u64,
    /// Seconds one `step()` took on the reference host (2 cores) when the
    /// benchmark was defined. It turns `--seconds` into a tick count.
    step_s: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "dknn-1m",
        kind: Kind::DknnSet,
        n_objects: 1_000_000,
        shards: 1,
        chaos: false,
        gate_ticks: 8,
        step_s: 1.05,
    },
    Workload {
        name: "chaos-200k-g4",
        kind: Kind::DknnBuffer,
        n_objects: 200_000,
        shards: 4,
        chaos: true,
        gate_ticks: 120,
        step_s: 0.38,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether the workload runs over a perfect link, where every oracle
    /// check of its exact method must pass.
    pub fn perfect_link(&self) -> bool {
        !self.chaos
    }

    /// Ticks covered by the correctness gate at `scale`.
    pub fn gate_ticks(&self, scale: Scale) -> u64 {
        match scale {
            Scale::Full => self.gate_ticks,
            Scale::Tiny => 5,
        }
    }

    /// Timed ticks of a run asked to measure for `seconds`: the number the
    /// reference host steps in that time. The count depends on nothing
    /// else, so every commit and host times the same ticks of the same
    /// episode (step cost drifts as replication state grows, so timing
    /// until a deadline would favour slower code).
    pub fn timed_ticks(&self, seconds: f64, scale: Scale) -> u64 {
        let step_s = match scale {
            Scale::Full => self.step_s,
            Scale::Tiny => 0.001,
        };
        ((seconds / step_s).round() as u64).max(2)
    }

    /// Object population at `scale`.
    fn n_objects(&self, scale: Scale) -> usize {
        match scale {
            Scale::Full => self.n_objects,
            Scale::Tiny => self.n_objects / 1000,
        }
    }

    /// The episode configuration generated from `seed`, with the client
    /// and server pools pinned to `width` workers.
    pub fn config(&self, seed: u64, scale: Scale, width: usize) -> SimConfig {
        let fault = if self.chaos {
            FaultPlan {
                crash_count: 2,
                crash_min: 5,
                crash_max: 10,
                ..FaultPlan::chaos()
            }
        } else {
            FaultPlan::none()
        };
        SimConfig {
            workload: WorkloadSpec {
                n_objects: self.n_objects(scale),
                space_side: 10_000.0,
                placement: Placement::Uniform,
                speeds: SpeedDist::Uniform {
                    min: 5.0,
                    max: 20.0,
                },
                motion: Motion::RandomWaypoint,
                move_prob: 1.0,
                seed,
                speed_overrides: Vec::new(),
            },
            n_queries: match scale {
                Scale::Full => QUERIES,
                Scale::Tiny => QUERIES / 10,
            },
            k: K,
            ticks: self.gate_ticks(scale),
            geo_cells: 64,
            verify: VerifyMode::Record,
            fault,
            shards: self.shards,
            client_threads: Some(width),
            downlink: DownlinkMode::Scoped,
        }
    }

    /// The monitoring method, parameterised for `config`.
    pub fn method(&self, config: &SimConfig) -> Method {
        let params = config.dknn_params();
        match self.kind {
            Kind::DknnSet => Method::DknnSet(params),
            Kind::DknnBuffer => Method::DknnBuffer { params, buffer: 3 },
        }
    }
}

/// The pool width the benchmark pins: two workers, or fewer on a host with
/// fewer cores.
pub fn pool_width() -> usize {
    host_cores().min(2)
}

/// Cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_validate_and_carry_the_seed() {
        for w in &WORKLOADS {
            for scale in [Scale::Full, Scale::Tiny] {
                let cfg = w.config(7, scale, 2);
                assert_eq!(cfg.validate(), Ok(()), "{}", w.name);
                assert_eq!(cfg.workload.seed, 7);
                assert_eq!(cfg.fault.is_none(), w.perfect_link());
            }
        }
    }

    #[test]
    fn names_resolve() {
        for w in &WORKLOADS {
            assert_eq!(Workload::by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(Workload::by_name("nope").is_none());
    }
}
