//! One benchmark run: set-up, the timed tick loop, and the correctness
//! gate. The traced variant lives in [`crate::trace`].

use crate::gate::{self, SimStats};
use crate::report::{self, Metrics};
use crate::workload::{Scale, Workload};
use mknn_sim::{percentile, EpisodeMetrics, SimConfig, Simulation};
use std::time::Instant;

/// How many times an untraced run builds the simulation; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 3;

/// Ticks stepped before the timed ones: the first step after the init
/// handshake is not representative.
pub const WARMUP_TICKS: u64 = 1;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of `step()` time to measure on the reference host; see
    /// [`Workload::timed_ticks`].
    pub seconds: f64,
    /// Population scale.
    pub scale: Scale,
    /// Worker-pool width.
    pub width: usize,
}

impl Options {
    /// The generated episode configuration.
    pub fn config(&self) -> SimConfig {
        self.workload.config(self.seed, self.scale, self.width)
    }

    /// Ticks stepped in all: the warm-up, then the timed ticks, and never
    /// fewer than the gate window.
    pub fn total_ticks(&self) -> u64 {
        let timed = self.workload.timed_ticks(self.seconds, self.scale);
        (WARMUP_TICKS + timed).max(self.workload.gate_ticks(self.scale))
    }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: Metrics,
    /// Oracle checks made over the whole run.
    pub attempted: u64,
    /// Checks that failed (inexact on a perfect link).
    pub failed: u64,
    /// Correctness problems; empty when the run is correct.
    pub problems: Vec<String>,
    /// Extra `"key": value` JSON members for the detail line.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Builds the simulation; returns it with the seconds `Simulation::new`
/// took.
pub fn setup(opts: &Options) -> (Simulation, f64) {
    let config = opts.config();
    let proto = opts.workload.method(&config).build();
    let t = Instant::now();
    let sim = Simulation::new(&config, proto);
    (sim, t.elapsed().as_secs_f64())
}

/// A simulation stepped one timed tick at a time, keeping a copy of the
/// metrics at the end of the gate window.
pub struct Stepper {
    /// The episode.
    pub sim: Simulation,
    gate_ticks: u64,
    gate: Option<EpisodeMetrics>,
}

impl Stepper {
    /// Wraps `sim`; the gate closes after `gate_ticks` ticks.
    pub fn new(sim: Simulation, gate_ticks: u64) -> Stepper {
        Stepper {
            sim,
            gate_ticks,
            gate: None,
        }
    }

    /// Ticks stepped so far.
    pub fn tick(&self) -> u64 {
        self.sim.metrics().ticks
    }

    /// Steps once; returns the seconds `step()` took.
    pub fn step(&mut self) -> f64 {
        let t = Instant::now();
        self.sim.step();
        let secs = t.elapsed().as_secs_f64();
        if self.tick() == self.gate_ticks {
            self.gate = Some(self.sim.metrics().clone());
        }
        secs
    }

    /// Checks the gate window and the whole run; fills `attempted`,
    /// `failed` and `problems`, and returns the gate statistics.
    pub fn finish(&self, opts: &Options, out: &mut Outcome) -> Option<SimStats> {
        let w = opts.workload;
        let all = self.sim.metrics();
        out.attempted = all.exact_checks;
        if w.perfect_link() {
            out.failed = all.exact_checks - all.exact_ok;
        }
        let Some(gate) = self.gate.as_ref() else {
            out.problems
                .push("the run ended before the gate window".into());
            return None;
        };
        let stats = SimStats::of(gate);
        let pins = match gate::parse_pins(gate::PINS) {
            Ok(p) => p,
            Err(e) => {
                out.problems.push(e);
                Vec::new()
            }
        };
        let pin = gate::find(&pins, w.name, opts.scale, opts.seed);
        let queries = self.sim.specs().len();
        out.problems
            .extend(gate::check(w, opts.scale, queries, &stats, pin));
        out.detail
            .push(("pinned".into(), pin.is_some().to_string()));
        out.detail.push((
            "pin_row".into(),
            report::quote(&stats.pin_row(w.name, opts.scale, opts.seed)),
        ));
        Some(stats)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), when the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The untraced run: end-to-end metrics only.
///
/// The first set-up builds the episode that is stepped; peak memory is read
/// when it ends. The further set-ups run after it is freed, so peak memory
/// is one episode's.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let (sim, first_setup) = setup(opts);
    let n = sim.world().len();
    let mut st = Stepper::new(sim, opts.workload.gate_ticks(opts.scale));
    let mut step_ms = Vec::new();
    while st.tick() < opts.total_ticks() {
        let secs = st.step();
        if st.tick() > WARMUP_TICKS {
            step_ms.push(secs * 1e3);
        }
    }
    let peak = peak_rss_mib();
    let gate = st.finish(opts, &mut out);
    drop(st);
    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPEATS {
        setups.push(setup(opts).1);
    }

    let m = &mut out.metrics;
    m.set("setup_s", percentile(&setups, 50.0));
    m.set("tick_ms_p50", percentile(&step_ms, 50.0));
    let spent_s: f64 = step_ms.iter().sum::<f64>() / 1e3;
    m.set(
        "object_ticks_per_s",
        n as f64 * step_ms.len() as f64 / spent_s,
    );
    match peak {
        Some(mib) => m.set("peak_rss_mb", mib),
        None => out.problems.push("VmHWM is not available".into()),
    }
    if let Some(g) = gate {
        m.set("msgs_per_tick", g.msgs_per_tick());
        m.set("uplink_msgs_per_tick", g.uplink_msgs_per_tick());
        m.set("bytes_per_tick", g.bytes_per_tick());
        m.set("exactness", g.exactness());
        m.set("recall", g.recall());
    }
    out.detail
        .push(("setup_s".into(), report::numbers(&setups)));
    out.detail
        .push(("tick_ms".into(), report::numbers(&step_ms)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_read() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }
}
