//! Run-wide measurements that no per-node store owns.
//!
//! Every event counter of the fabric lives in exactly one place: the
//! per-switch `SwitchStats`, the per-flow `FlowStats` or the fault
//! layer's `FaultStats`. Fabric-wide totals (`ecn_marks`, `pause_tx`,
//! …) are sums over those stores, derived on demand by
//! `Network::metric` and the report builders. [`Metrics`] holds only
//! what has no other home: the convergence-audit tallies, the shared
//! buffer high-water mark and the four distribution histograms. Every
//! field is plain data, so a hot-path update is one field access.

use super::hist::Histogram;

/// The simulator's run-wide measurements (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Post-fault convergence audits run (`Network::check_convergence`).
    pub convergence_checks: u64,
    /// Violations those audits found.
    pub convergence_violations: u64,
    /// Highest shared-buffer occupancy seen at any switch, in bytes.
    pub peak_buffer_bytes: u64,
    /// Egress queue depth (bytes) seen by each data packet at enqueue.
    pub queue_depth_bytes: Histogram,
    /// Gap (µs) between consecutive CNPs of one flow at its NP.
    pub cnp_interarrival_us: Histogram,
    /// Message completion time (µs).
    pub fct_us: Histogram,
    /// How long (µs) a paused transmitter stayed paused.
    pub pause_duration_us: Histogram,
}

impl Metrics {
    /// Raises the buffer high-water mark to `bytes` if it is higher.
    #[inline]
    pub fn raise_peak_buffer(&mut self, bytes: u64) {
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(bytes);
    }

    /// The histograms as `(name, histogram)`, in report order.
    pub fn histograms(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("queue_depth_bytes", &self.queue_depth_bytes),
            ("cnp_interarrival_us", &self.cnp_interarrival_us),
            ("fct_us", &self.fct_us),
            ("pause_duration_us", &self.pause_duration_us),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_buffer_is_a_high_water_mark() {
        let mut m = Metrics::default();
        m.raise_peak_buffer(10);
        m.raise_peak_buffer(5);
        assert_eq!(m.peak_buffer_bytes, 10);
    }
}
