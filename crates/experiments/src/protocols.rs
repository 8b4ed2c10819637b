//! The coherence-protocol sweep (`jetty-repro protocols`): the paper's
//! bystander-filter methodology re-run under MOESI, MESI and MSI.
//!
//! The paper evaluates JETTY on one fixed platform — MOESI at subblock
//! grain (§4.1) — but snoop-filter coverage is a function of the protocol.
//! Without an `Owned` state, a dirty copy snooped by a read must downgrade
//! to a *clean* `Shared` and push its data to memory, and without an
//! `Exclusive` state every first store pays a bus upgrade; both change the
//! reference stream on the bus, hence the would-miss profile every filter
//! is scored against, hence coverage and energy.
//!
//! One suite per protocol runs the paper's best hybrid
//! (HJ(IJ-10x4x7, EJ-32x4)) as a bystander and the table reports, per
//! application and protocol: coverage, the would-miss share of snoops, the
//! Figure-6a-style snoop-side energy reduction, and the protocol-dependent
//! memory-writeback traffic energy
//! ([`SmpEnergyModel::memory_writeback_energy`]) that MOESI's `Owned`
//! state keeps off the bus.
//!
//! This suite is an *extension* of the reproduction, not one of the
//! paper's exhibits, so `jetty-repro all` does not include it.

use jetty_core::FilterSpec;
use jetty_energy::{AccessMode, ProtocolEnergy, SmpEnergyModel};
use jetty_sim::ProtocolKind;

use crate::engine::Engine;
use crate::error::JettyError;
use crate::results::{Cell, TableData};
use crate::runner::{average, AppRun, RunOptions};

/// The filter every protocol suite carries: the paper's best hybrid.
fn swept_spec() -> FilterSpec {
    FilterSpec::hybrid_scalar(10, 4, 7, 32, 4)
}

/// The suite options (and cache key) for one protocol of the sweep.
pub fn protocol_options(scale: f64, check: bool, protocol: ProtocolKind) -> RunOptions {
    RunOptions::paper()
        .with_scale(scale)
        .with_specs(vec![swept_spec()])
        .with_protocol(protocol)
        .with_check(check)
}

/// Renders the per-application coverage + energy table across MOESI, MESI
/// and MSI.
pub fn protocols_table(engine: &Engine, scale: f64, check: bool) -> Result<TableData, JettyError> {
    let label = swept_spec().label();
    let model = SmpEnergyModel::paper_node();
    let mut suites = Vec::with_capacity(ProtocolKind::ALL.len());
    for &p in ProtocolKind::ALL.iter() {
        suites.push((p, engine.run_suite(&protocol_options(scale, check, p))?));
    }

    let mut t = TableData::new(
        "protocols",
        format!(
            "Protocol sweep: {label} coverage and energy under MOESI/MESI/MSI \
             (memWB = memory write traffic, uJ)"
        ),
    );
    let mut headers = vec!["App".to_string()];
    for (protocol, _) in &suites {
        headers.push(format!("{protocol} cov"));
        headers.push(format!("{protocol} miss"));
        headers.push(format!("{protocol} dE"));
        headers.push(format!("{protocol} memWB"));
    }
    t.headers(headers);

    // One typed record per run: the renderer decides how the fractions and
    // joules turn into percent and microjoules. The swept spec is the one
    // the suite's own options carry, so a missing report is a harness bug,
    // not a reachable failure.
    #[allow(clippy::expect_used)]
    let energy = |r: &AppRun| -> ProtocolEnergy {
        let report = r.report(&label).expect("swept spec missing from bank");
        model.protocol_energy(&r.run, report, AccessMode::Serial)
    };

    let apps = suites[0].1.len();
    for i in 0..apps {
        let mut row = vec![Cell::label(suites[0].1[i].profile.abbrev)];
        for (_, runs) in &suites {
            let r = &runs[i];
            let e = energy(r);
            row.push(Cell::Ratio(r.coverage(&label)));
            row.push(Cell::Ratio(r.run.snoop_miss_fraction_of_snoops()));
            row.push(Cell::Ratio(e.snoop_reduction));
            row.push(Cell::EnergyUj(e.memory_writeback_uj()));
        }
        t.row(row);
    }
    let mut avg = vec![Cell::label("AVG")];
    for (_, runs) in &suites {
        avg.push(Cell::Ratio(average(runs, |r| r.coverage(&label))));
        avg.push(Cell::Ratio(average(runs, |r| r.run.snoop_miss_fraction_of_snoops())));
        avg.push(Cell::Ratio(average(runs, |r| energy(r).snoop_reduction)));
        avg.push(Cell::EnergyUj(average(runs, |r| energy(r).memory_writeback_uj())));
    }
    t.row(avg);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_renders_all_protocol_columns() {
        let t = protocols_table(&Engine::new(2), 0.002, false).unwrap();
        assert_eq!(t.len(), 11); // 10 apps + AVG
        let s = t.render();
        for name in ["MOESI cov", "MESI cov", "MSI cov", "MSI memWB"] {
            assert!(s.contains(name), "missing column {name}: {s}");
        }
        assert!(s.contains("AVG"));
    }

    #[test]
    fn moesi_dominates_memory_traffic_avoidance() {
        // The Owned state keeps dirty supplies off the memory bus, so the
        // MOESI suite must never pay more memory writebacks than MESI on
        // the same workload.
        let engine = Engine::new(2);
        let moesi = engine.run_suite(&protocol_options(0.002, false, ProtocolKind::Moesi)).unwrap();
        let mesi = engine.run_suite(&protocol_options(0.002, false, ProtocolKind::Mesi)).unwrap();
        for (m, e) in moesi.iter().zip(mesi.iter()) {
            assert_eq!(m.run.nodes.snoop_memory_writebacks, 0, "{}", m.profile.abbrev);
            assert!(
                m.run.nodes.memory_writebacks() <= e.run.nodes.memory_writebacks(),
                "{}: MOESI {} > MESI {}",
                m.profile.abbrev,
                m.run.nodes.memory_writebacks(),
                e.run.nodes.memory_writebacks()
            );
        }
    }

    #[test]
    fn protocol_suites_are_distinct_cache_keys() {
        let a = protocol_options(0.01, false, ProtocolKind::Moesi);
        let b = protocol_options(0.01, false, ProtocolKind::Mesi);
        let c = protocol_options(0.01, false, ProtocolKind::Msi);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }
}
