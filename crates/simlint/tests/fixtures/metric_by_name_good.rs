pub struct Network {
    switches: Vec<u64>,
    paused: bool,
}

impl Network {
    /// A fabric-wide total by name: walks every switch.
    pub fn metric(&self, _name: &str) -> u64 {
        self.switches.iter().sum()
    }

    pub fn run_until(&mut self) {
        // The hot path reads the store that owns the count.
        self.paused = self.switches[0] > 0;
    }
}

/// Reporting after the run is cold, so the by-name total is fine.
pub fn report(net: &Network) -> u64 {
    net.metric("pause_tx")
}
