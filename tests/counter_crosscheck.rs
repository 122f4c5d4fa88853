//! Cross-check of every fabric-wide counter against the stores that own
//! the counts: the per-node counters (`SwitchStats` per switch,
//! `FlowStats` per flow) and the fault layer's `FaultStats`.
//! `Network::metric` derives each total from its store; this test sums
//! the stores independently, from the public accessors. Each switch
//! counter summed over the switches, and each transport counter summed
//! over the flows, must equal the total of the same name. Completed
//! messages must equal `completions`, and aborted flows `qp_teardowns`.
//! The fault counters must equal `link_transitions`, `storm_pauses` and,
//! as link plus CRC drops, `fault_drops`.
//!
//! Four scenarios share the check, chosen so that every compared
//! counter is nonzero in at least one of them: a DCQCN victim run, a
//! PFC-only incast, a fault run (unroutable destination, a link flap
//! and a pause storm under the watchdog), and a lossy-mode incast.

use dcqcn::prelude::*;
use experiments::common::CcChoice;
use experiments::scenarios::{unfairness_scenario, victim_scenario};
use netsim::prelude::*;
use netsim::topology::{star, ClosTestbed, LinkParams};
use std::collections::BTreeMap;

/// Every derived counter the cross-check compares, by name.
const COMPARED: [&str; 18] = [
    "pause_tx",
    "resume_tx",
    "pause_rx",
    "drops_pool",
    "drops_lossy",
    "ecn_marks",
    "forwarded",
    "watchdog_trips",
    "watchdog_restores",
    "cnps_sent",
    "nacks_sent",
    "retx_pkts",
    "timeouts",
    "completions",
    "qp_teardowns",
    "fault_drops",
    "link_transitions",
    "storm_pauses",
];

/// Sums the per-node counters over `switches` and `flows`, asserts each
/// sum equals the derived total, and returns the sums by name.
/// `flows` must list every flow of the run, or the sums fall short.
fn cross_check(
    net: &Network,
    switches: &[NodeId],
    flows: &[FlowId],
) -> BTreeMap<&'static str, u64> {
    let mut sums: BTreeMap<&'static str, u64> = COMPARED.iter().map(|&n| (n, 0)).collect();
    let mut add = |name: &'static str, v: u64| *sums.get_mut(name).unwrap() += v;
    for &s in switches {
        let st = net.switch_stats(s);
        add("pause_tx", st.pause_tx);
        add("resume_tx", st.resume_tx);
        add("pause_rx", st.pause_rx);
        add("drops_pool", st.drops_pool);
        add("drops_lossy", st.drops_lossy);
        add("ecn_marks", st.ecn_marks);
        add("forwarded", st.forwarded);
        add("watchdog_trips", st.watchdog_trips);
        add("watchdog_restores", st.watchdog_restores);
    }
    for &f in flows {
        let st = net.flow_stats(f);
        add("cnps_sent", st.cnps_sent);
        add("nacks_sent", st.nacks_sent);
        add("retx_pkts", st.retx_pkts);
        add("timeouts", st.timeouts);
        add("completions", st.completions.len() as u64);
        add("qp_teardowns", u64::from(st.aborted));
    }
    let fs = net.fault_stats();
    add("fault_drops", fs.link_drops + fs.crc_drops);
    add("link_transitions", fs.transitions);
    add("storm_pauses", fs.storm_pauses);
    for (&name, &sum) in &sums {
        assert_eq!(
            net.metric(name),
            sum,
            "{name}: derived total vs per-node sum"
        );
    }
    sums
}

fn assert_exercised(sums: &BTreeMap<&'static str, u64>, names: &[&str]) {
    for name in names {
        assert!(sums[name] > 0, "scenario leaves {name} at 0: {sums:?}");
    }
}

fn clos_switches(tb: &ClosTestbed) -> Vec<NodeId> {
    tb.tors
        .iter()
        .chain(&tb.leaves)
        .chain(&tb.spines)
        .copied()
        .collect()
}

const VICTIM_EXERCISES: &[&str] = &["ecn_marks", "forwarded", "cnps_sent"];
const INCAST_EXERCISES: &[&str] = &["pause_tx", "resume_tx", "pause_rx", "forwarded"];
const FAULT_EXERCISES: &[&str] = &[
    "drops_pool",
    "watchdog_trips",
    "watchdog_restores",
    "retx_pkts",
    "timeouts",
    "qp_teardowns",
    "fault_drops",
    "link_transitions",
    "storm_pauses",
];
const LOSSY_EXERCISES: &[&str] = &["drops_lossy", "nacks_sent", "retx_pkts", "completions"];

#[test]
fn scenarios_exercise_every_compared_counter() {
    let exercised: Vec<&str> = [
        VICTIM_EXERCISES,
        INCAST_EXERCISES,
        FAULT_EXERCISES,
        LOSSY_EXERCISES,
    ]
    .concat();
    for name in COMPARED {
        assert!(exercised.contains(&name), "no scenario exercises {name}");
    }
}

/// The Figure 9 victim scenario under DCQCN: marks and CNPs, no PAUSE.
#[test]
fn stores_agree_on_a_dcqcn_victim_run() {
    let (tb, victim) = victim_scenario(CcChoice::dcqcn_paper(), 2, 1, Duration::from_millis(10));
    // Flow ids are dense from 0 in creation order; the victim is last.
    let flows: Vec<FlowId> = (0..=victim.0).map(FlowId).collect();
    let sums = cross_check(&tb.net, &clos_switches(&tb), &flows);
    assert_exercised(&sums, VICTIM_EXERCISES);
}

/// The Figure 3 incast under PFC alone: PAUSE and RESUME cascade.
#[test]
fn stores_agree_on_a_pfc_only_incast() {
    let (tb, flows) = unfairness_scenario(CcChoice::None, 1, Duration::from_millis(20));
    let sums = cross_check(&tb.net, &clos_switches(&tb), &flows);
    assert_exercised(&sums, INCAST_EXERCISES);
}

/// Faults on a star: the sender of one flow sees its access link flap
/// (frames in flight are lost), then the flow's receiver loses its
/// access link for good, so failover leaves the switch without a route
/// (pool-class drops) and the sender times out, retransmits and tears
/// the QP down; a second receiver pause-storms its link and trips the
/// watchdog.
#[test]
fn stores_agree_under_faults() {
    let host = HostConfig {
        cnp_interval: None,
        rto: Duration::from_micros(200),
        max_retries: 2,
        ..HostConfig::default()
    };
    let switch = SwitchConfig::paper_default().with_watchdog(PfcWatchdogConfig {
        threshold: Duration::from_micros(200),
        recovery: Duration::from_micros(800),
    });
    let mut s = star(4, LinkParams::default(), host, switch, 5);
    let h = s.hosts.clone();
    let flows: Vec<FlowId> = [(h[0], h[1]), (h[2], h[3])]
        .iter()
        .map(|&(src, dst)| {
            let f = s
                .net
                .add_flow(src, dst, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
            s.net.send_message(f, u64::MAX, Time::ZERO);
            f
        })
        .collect();
    let flap = s.net.link_between(h[0], s.switch).unwrap();
    let cut = s.net.link_between(h[1], s.switch).unwrap();
    let plan = FaultPlan::new()
        .link_flap(
            flap,
            Time::from_micros(500),
            Duration::from_micros(50),
            Duration::from_micros(200),
            1,
        )
        .link_down(Time::from_millis(1), cut)
        .pause_storm(
            h[3],
            DATA_PRIORITY,
            Time::from_millis(1),
            Time::from_millis(4),
            Duration::from_micros(20),
        );
    s.net.install_faults(&plan, FaultConfig::default());
    s.net.run_until(Time::from_millis(10));
    let sums = cross_check(&s.net, &[s.switch], &flows);
    assert_exercised(&sums, FAULT_EXERCISES);
}

/// A DCQCN incast on a lossy-mode switch: the start transient overflows
/// the egress limit and NAK-driven go-back-N recovers.
#[test]
fn stores_agree_on_a_lossy_incast() {
    let params = DcqcnParams::paper();
    let mut s = star(
        9,
        LinkParams::default(),
        dcqcn_host_config(params),
        SwitchConfig::paper_default()
            .with_red(red_deployed())
            .without_pfc(),
        3,
    );
    let dst = s.hosts[8];
    let flows: Vec<FlowId> = (0..8)
        .map(|i| {
            let f = s
                .net
                .add_flow(s.hosts[i], dst, DATA_PRIORITY, dcqcn(params));
            s.net.send_message(f, 2_000_000, Time::ZERO);
            f
        })
        .collect();
    s.net.run_until(Time::from_millis(30));
    let sums = cross_check(&s.net, &[s.switch], &flows);
    assert_exercised(&sums, LOSSY_EXERCISES);
}
