//! §3.3's DCQCN-vs-TIMELY contrast as executable assertions.

use baselines::timely::{timely, timely_host_config, TimelyParams};
use dcqcn::prelude::*;
use netsim::prelude::*;
use netsim::topology::{star, LinkParams};

/// Congestion-control factory handed to `Network::add_flow`.
type CcFactory = Box<dyn Fn(Bandwidth) -> Box<dyn CongestionControl>>;

/// TIMELY alone on a clean fabric holds near line rate (its RTT sits
/// below T_low, so it only ever increases).
#[test]
fn timely_alone_runs_at_line_rate() {
    let mut s = star(
        2,
        LinkParams::default(),
        timely_host_config(),
        SwitchConfig::paper_default(),
        1,
    );
    let f = s.net.add_flow(
        s.hosts[0],
        s.hosts[1],
        DATA_PRIORITY,
        timely(TimelyParams::default_40g()),
    );
    s.net.send_message(f, u64::MAX, Time::ZERO);
    s.net.run_until(Time::from_millis(20));
    let gbps = s.net.flow_stats(f).delivered_bytes as f64 * 8.0 / 20e-3 / 1e9;
    assert!(gbps > 35.0, "clean-path TIMELY: {gbps:.1} Gbps");
}

/// TIMELY under *forward* congestion does reduce its rate (it is a real
/// congestion controller, not a strawman): a 4:1 TIMELY incast keeps the
/// queue bounded well below the PFC regime.
#[test]
fn timely_controls_forward_congestion() {
    let mut s = star(
        5,
        LinkParams::default(),
        timely_host_config(),
        SwitchConfig::paper_default(),
        2,
    );
    let dst = s.hosts[4];
    let flows: Vec<FlowId> = (0..4)
        .map(|i| {
            s.net.add_flow(
                s.hosts[i],
                dst,
                DATA_PRIORITY,
                timely(TimelyParams::default_40g()),
            )
        })
        .collect();
    for &f in &flows {
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    s.net.run_until(Time::from_millis(60));
    let total: f64 = flows
        .iter()
        .map(|&f| s.net.flow_stats(f).delivered_bytes as f64 * 8.0 / 60e-3 / 1e9)
        .sum();
    assert!(total > 25.0, "TIMELY incast utilization: {total:.1}");
    // TIMELY's whole point: it backs off before PFC has to act.
    let st = s.net.switch_stats(s.switch);
    assert!(
        st.pause_tx < 1000,
        "RTT control kept PFC mostly idle ({} pauses)",
        st.pause_tx
    );
}

/// The §3.3 contrast: reverse-path congestion (which inflates measured
/// RTT but leaves the forward path clear) throttles TIMELY and not DCQCN.
#[test]
fn reverse_congestion_hurts_timely_not_dcqcn() {
    let run = |use_timely: bool| -> f64 {
        let (host, mk): (HostConfig, CcFactory) = if use_timely {
            (
                timely_host_config(),
                Box::new(timely(TimelyParams::default_40g())),
            )
        } else {
            (
                dcqcn_host_config(DcqcnParams::paper()),
                Box::new(dcqcn(DcqcnParams::paper())),
            )
        };
        let mut s = star(
            6,
            LinkParams::default(),
            host,
            SwitchConfig::paper_default().with_red(red_deployed()),
            13,
        );
        let fwd = s.net.add_flow(s.hosts[0], s.hosts[1], DATA_PRIORITY, &mk);
        s.net.send_message(fwd, u64::MAX, Time::ZERO);
        // Reverse 3:1 incast into the measured flow's *source* host.
        for i in 2..5 {
            let rf = s.net.add_flow(s.hosts[i], s.hosts[0], DATA_PRIORITY, |l| {
                Box::new(NoCc::new(l))
            });
            s.net.send_message(rf, u64::MAX, Time::from_millis(20));
        }
        s.net
            .enable_sampling(Duration::from_micros(200), SamplerConfig::default());
        s.net.run_until(Time::from_millis(60));
        s.net
            .goodput_gbps(fwd, Time::from_millis(30), Time::from_millis(60))
    };
    let dcqcn_rate = run(false);
    let timely_rate = run(true);
    assert!(
        dcqcn_rate > 30.0,
        "DCQCN ignores reverse congestion: {dcqcn_rate:.1}"
    );
    assert!(
        timely_rate < dcqcn_rate / 3.0,
        "TIMELY throttles on inflated RTT: {timely_rate:.1} vs {dcqcn_rate:.1}"
    );
}
