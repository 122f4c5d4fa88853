//! The benchmark's own guarantees: its inputs are a function of the seed,
//! and observing a run from outside (sliced `run_until`, the counting CC
//! wrapper, span recording) does not change what is simulated.

use fabricbench::probe::{counting_factory, Callback, CcProbe};
use fabricbench::{
    cells, check, outputs, plain_factory, run_sliced, setup, sim_digest, Config, Workload,
};
use netsim::units::Duration;
use std::sync::Arc;

/// Runs one cell and returns its digest, after checking its outputs.
fn digest(cfg: &Config, probe: Option<&Arc<CcProbe>>) -> u64 {
    let factory = match probe {
        Some(p) => counting_factory(plain_factory(cfg.workload), Arc::clone(p)),
        None => plain_factory(cfg.workload),
    };
    let mut s = setup(cfg, &factory);
    if probe.is_some() {
        let mut slices = Vec::new();
        run_sliced(
            &mut s.tb.net,
            cfg.end(),
            Duration::from_millis(1),
            &mut slices,
        );
        let horizon_us = cfg.workload.horizon().as_micros_f64().round() as usize;
        let expected = horizon_us.div_ceil(1000);
        assert_eq!(slices.len(), expected, "one slice per simulated ms");
    } else {
        s.tb.net.run_until(cfg.end());
    }
    let out = outputs(cfg, &s);
    assert_eq!(check(cfg, &s, &out.goodputs), Vec::<String>::new());
    assert_eq!(s.aborted_operations(), 0);
    sim_digest(&s.tb.net, &out.report)
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    for w in Workload::ALL {
        let a = Config::new(w, 7);
        assert_eq!(digest(&a, None), digest(&a, None), "{}", w.name());
        let b = Config::new(w, 8);
        assert_ne!(digest(&a, None), digest(&b, None), "{}", w.name());
    }
}

#[test]
fn cells_follow_the_seed() {
    for w in Workload::ALL {
        let seeds = |s| cells(w, s).iter().map(|c| c.seed).collect::<Vec<_>>();
        assert_eq!(seeds(3), seeds(3));
        assert_ne!(seeds(3), seeds(4));
        assert_eq!(seeds(3).len(), w.cells());
    }
}

#[test]
fn traced_run_simulates_the_same_thing() {
    for w in Workload::ALL {
        let cfg = Config::new(w, 11);
        let probe = CcProbe::new();
        assert_eq!(
            digest(&cfg, None),
            digest(&cfg, Some(&probe)),
            "sliced run with the counting wrapper diverged on {}",
            w.name()
        );
        assert!(probe.calls(Callback::Rate) > 0);
        if w != Workload::PfcVictim {
            assert!(probe.calls(Callback::Cnp) > 0, "{}", w.name());
            assert!(probe.calls(Callback::Timer) > 0, "{}", w.name());
        }
    }
}

#[test]
fn span_recording_does_not_change_the_simulation() {
    for w in Workload::ALL {
        let on = Config {
            spans: true,
            ..Config::new(w, 5)
        };
        let off = Config { spans: false, ..on };
        assert_eq!(digest(&on, None), digest(&off, None), "{}", w.name());
    }
}
