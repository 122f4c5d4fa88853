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
        self.paused = self.metric("pause_tx") > 0;
    }
}
