//! The repository benchmark: host time per simulated tick at one million
//! moving objects, end to end and layer by layer, on named workloads driven
//! through the public `mknn_sim::Simulation` API (`Simulation::new`, then
//! `step()` once per tick). See `README.md` next to this package.

#![deny(missing_docs)]

pub mod bench;
pub mod gate;
pub mod report;
pub mod trace;
pub mod workload;

use bench::{Options, Outcome};

/// The detail line printed before the result: what ran, on how many
/// workers, and every correctness problem found.
pub fn detail_line(opts: &Options, trace: bool, out: &Outcome) -> String {
    let mut members = vec![
        ("workload".to_string(), report::quote(opts.workload.name)),
        ("seed".to_string(), opts.seed.to_string()),
        ("scale".to_string(), report::quote(opts.scale.name())),
        ("trace".to_string(), u8::from(trace).to_string()),
        ("seconds".to_string(), report::number(opts.seconds)),
        ("pool_width".to_string(), opts.width.to_string()),
        ("nproc".to_string(), workload::host_cores().to_string()),
        (
            "build_profile".to_string(),
            report::quote(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("problems".to_string(), report::strings(&out.problems)),
    ];
    members.extend(out.detail.iter().cloned());
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}: {v}", report::quote(k)))
        .collect();
    format!("{{\"detail\": {{{}}}}}", body.join(", "))
}

/// The result line: every metric of the run's table, or an error naming a
/// metric that was not measured.
pub fn result_line(trace: bool, out: &Outcome) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let metrics = out.metrics.to_json(table)?;
    Ok(report::result_line(
        out.correct(),
        out.attempted,
        out.failed,
        &metrics,
    ))
}
