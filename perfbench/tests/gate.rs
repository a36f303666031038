//! The correctness gate accepts the pinned statistics of a tiny run and
//! rejects any perturbed pinned value.

use mknn_sim::Simulation;
use perfbench::gate::{self, SimStats, FIELDS};
use perfbench::workload::{Scale, DEFAULT_SEED, WORKLOADS};

/// Steps a tiny episode through its gate window.
fn gate_stats(w: &perfbench::workload::Workload) -> (SimStats, usize) {
    let config = w.config(DEFAULT_SEED, Scale::Tiny, 2);
    let mut sim = Simulation::new(&config, w.method(&config).build());
    for _ in 0..w.gate_ticks(Scale::Tiny) {
        sim.step();
    }
    (SimStats::of(sim.metrics()), sim.specs().len())
}

/// `s` with the `i`-th pinned field nudged by one unit.
fn perturbed(s: &SimStats, i: usize) -> SimStats {
    let mut p = s.clone();
    match FIELDS[i] {
        "ticks" => p.ticks += 1,
        "msgs" => p.msgs += 1,
        "uplink_msgs" => p.uplink_msgs += 1,
        "bytes" => p.bytes += 1,
        "exact_ok" => p.exact_ok += 1,
        "exact_checks" => p.exact_checks += 1,
        "recall_sum" => p.recall_sum += 1e-9,
        "full_fallbacks" => p.full_fallbacks += 1,
        "shard_legs" => p.shard_legs += 1,
        "dropped" => p.dropped += 1,
        "dup" => p.dup += 1,
        "delayed" => p.delayed += 1,
        "retransmits" => p.retransmits += 1,
        other => panic!("no perturbation for {other}"),
    }
    p
}

#[test]
fn pinned_tiny_runs_pass_and_every_perturbed_pin_is_rejected() {
    let pins = gate::parse_pins(gate::PINS).unwrap();
    for w in &WORKLOADS {
        let (stats, queries) = gate_stats(w);
        let pin = gate::find(&pins, w.name, Scale::Tiny, DEFAULT_SEED)
            .unwrap_or_else(|| panic!("{} has a tiny pin", w.name));
        assert_eq!(
            gate::check(w, Scale::Tiny, queries, &stats, Some(pin)),
            Vec::<String>::new(),
            "{}",
            w.name
        );
        for (i, field) in FIELDS.iter().enumerate() {
            let bad = perturbed(pin, i);
            let problems = gate::check(w, Scale::Tiny, queries, &stats, Some(&bad));
            assert!(
                problems.iter().any(|p| p.starts_with(&format!("{field}:"))),
                "{}: perturbing {field} went unnoticed: {problems:?}",
                w.name
            );
        }
    }
}

#[test]
fn invariants_hold_without_a_pin() {
    for w in &WORKLOADS {
        let (stats, queries) = gate_stats(w);
        assert!(gate::check(w, Scale::Tiny, queries, &stats, None).is_empty());
        if w.perfect_link() {
            let mut inexact = stats.clone();
            inexact.exact_ok -= 1;
            assert!(!gate::check(w, Scale::Tiny, queries, &inexact, None).is_empty());
        }
    }
}
