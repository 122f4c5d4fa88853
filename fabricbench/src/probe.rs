//! Per-layer observation from outside the simulator: a forwarding
//! [`CongestionControl`] that counts and times every callback the host
//! NIC makes into the CC layer. The wrapped algorithm sees exactly the
//! calls it would see unwrapped, so the simulation is unchanged (the
//! digest tests pin this); only host time grows, by the two clock reads
//! per callback that `bench.trace_overhead_pct` reports.

use netsim::cc::{CcActions, CcAuditInfo, CcFactory, CongestionControl};
use netsim::units::{Bandwidth, Duration, Time};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The CC callbacks the probe tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// `rate()`: the NIC asks for the permitted sending rate.
    Rate,
    /// `window()`.
    Window,
    /// `on_send()`: bytes went on the wire.
    Send,
    /// `on_ack()`.
    Ack,
    /// `on_cnp()`: a congestion notification reached the sender.
    Cnp,
    /// `on_qcn_feedback()`.
    QcnFeedback,
    /// `on_timer()`: an armed CC timer fired.
    Timer,
    /// `on_loss()`.
    Loss,
    /// `reset()`: an idle flow restarts.
    Reset,
}

const NUM_CALLBACKS: usize = 9;

/// Counters shared by every wrapped flow of one run. Each counter is a
/// statistic that publishes no other data, so `Relaxed` suffices; the
/// simulation runs on one thread anyway.
#[derive(Debug, Default)]
pub struct CcProbe {
    calls: [AtomicU64; NUM_CALLBACKS],
    busy_ns: AtomicU64,
}

impl CcProbe {
    /// A fresh probe with every counter at zero.
    pub fn new() -> Arc<CcProbe> {
        Arc::new(CcProbe::default())
    }

    /// Calls made to `cb` so far.
    pub fn calls(&self, cb: Callback) -> u64 {
        self.calls[cb as usize].load(Ordering::Relaxed)
    }

    /// Host time spent inside the wrapped algorithms, all callbacks, less
    /// `floor` per call: the probe's own cost, as [`timing_floor`]
    /// measures it.
    pub fn busy(&self, floor: std::time::Duration) -> std::time::Duration {
        let calls: u64 = self.calls.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let raw = self.busy_ns.load(Ordering::Relaxed);
        let own = calls.saturating_mul(floor.as_nanos() as u64);
        std::time::Duration::from_nanos(raw.saturating_sub(own))
    }

    fn record(&self, cb: Callback, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.calls[cb as usize].fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// The median host time the probe records around a callback that does
/// nothing: the part of its clock reads and bookkeeping that lands inside
/// the timed window. On hosts where reading the clock is slow this is a
/// large share of a cheap callback, so [`CcProbe::busy`] subtracts it.
pub fn timing_floor() -> std::time::Duration {
    const SAMPLES: usize = 20_001;
    let probe = CcProbe::default();
    let mut ns: Vec<u64> = (0..SAMPLES)
        .map(|_| {
            let before = probe.busy_ns.load(Ordering::Relaxed);
            timed(&probe, Callback::Rate, || std::hint::black_box(()));
            probe.busy_ns.load(Ordering::Relaxed) - before
        })
        .collect();
    ns.sort_unstable();
    std::time::Duration::from_nanos(ns[SAMPLES / 2])
}

/// Wraps `inner` so every flow it builds reports into `probe`.
pub fn counting_factory(inner: CcFactory, probe: Arc<CcProbe>) -> CcFactory {
    Box::new(move |line| {
        Box::new(Counting {
            inner: inner(line),
            probe: Arc::clone(&probe),
        })
    })
}

struct Counting {
    inner: Box<dyn CongestionControl>,
    probe: Arc<CcProbe>,
}

/// Runs one callback and records its count and host time.
#[inline]
fn timed<R>(probe: &CcProbe, cb: Callback, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let r = f();
    probe.record(cb, started);
    r
}

impl CongestionControl for Counting {
    fn rate(&self) -> Bandwidth {
        timed(&self.probe, Callback::Rate, || self.inner.rate())
    }

    fn window(&self) -> Option<u64> {
        timed(&self.probe, Callback::Window, || self.inner.window())
    }

    fn on_cnp(&mut self, now: Time, actions: &mut CcActions) {
        timed(&self.probe, Callback::Cnp, || {
            self.inner.on_cnp(now, actions)
        })
    }

    fn on_ack(
        &mut self,
        now: Time,
        acked_bytes: u64,
        acked_pkts: u32,
        marked: u32,
        rtt: Option<Duration>,
        actions: &mut CcActions,
    ) {
        timed(&self.probe, Callback::Ack, || {
            self.inner
                .on_ack(now, acked_bytes, acked_pkts, marked, rtt, actions)
        })
    }

    fn on_qcn_feedback(&mut self, now: Time, fb: u8, actions: &mut CcActions) {
        timed(&self.probe, Callback::QcnFeedback, || {
            self.inner.on_qcn_feedback(now, fb, actions)
        })
    }

    fn on_send(&mut self, now: Time, bytes: u64, actions: &mut CcActions) {
        timed(&self.probe, Callback::Send, || {
            self.inner.on_send(now, bytes, actions)
        })
    }

    fn on_loss(&mut self, now: Time, actions: &mut CcActions) {
        timed(&self.probe, Callback::Loss, || {
            self.inner.on_loss(now, actions)
        })
    }

    fn on_timer(&mut self, now: Time, id: u32, actions: &mut CcActions) {
        timed(&self.probe, Callback::Timer, || {
            self.inner.on_timer(now, id, actions)
        })
    }

    fn reset(&mut self, now: Time, actions: &mut CcActions) {
        timed(&self.probe, Callback::Reset, || {
            self.inner.reset(now, actions)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn audit_info(&self) -> Option<CcAuditInfo> {
        self.inner.audit_info()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::cc::no_cc_factory;

    #[test]
    fn forwards_and_counts() {
        let probe = CcProbe::new();
        let f = counting_factory(no_cc_factory(), Arc::clone(&probe));
        let mut cc = f(Bandwidth::gbps(40));
        let mut a = CcActions::default();
        assert_eq!(cc.rate(), Bandwidth::gbps(40));
        assert_eq!(cc.window(), None);
        cc.on_send(Time::ZERO, 1000, &mut a);
        cc.on_send(Time::ZERO, 1000, &mut a);
        cc.on_cnp(Time::ZERO, &mut a);
        assert_eq!(cc.name(), "none");
        assert_eq!(probe.calls(Callback::Rate), 1);
        assert_eq!(probe.calls(Callback::Send), 2);
        assert_eq!(probe.calls(Callback::Cnp), 1);
        assert_eq!(probe.calls(Callback::Timer), 0);
        let floor = timing_floor();
        assert!(probe.busy(floor) <= probe.busy(std::time::Duration::ZERO));
    }
}
