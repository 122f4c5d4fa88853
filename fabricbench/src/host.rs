//! What the numbers were measured on: the host fingerprint printed with
//! every result, and the process's resident memory. Results whose host
//! fingerprints differ are never compared.

use std::path::Path;

/// The host and build a result was measured with.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPU model name.
    pub cpu: String,
    /// Cores available to this process.
    pub cores: usize,
    /// Toolchain that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile and optimisation level of the build.
    pub profile: &'static str,
    /// Commit of the measured tree, when it is a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and of the tree at `root`.
    pub fn detect(root: &Path) -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cpu,
            cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: env!("FABRICBENCH_RUSTC"),
            profile: env!("FABRICBENCH_PROFILE"),
            commit: git_commit(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The part that decides comparability: everything but the commit,
    /// which differs by design between a parent and its change.
    pub fn host_key(&self) -> String {
        format!(
            "{} | {} cores | {} | {}",
            self.cpu, self.cores, self.rustc, self.profile
        )
    }
}

/// The commit `HEAD` names, read from `root/.git` without running git
/// (so nothing outside the tree is consulted).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`), at most
/// `max` of them, spread evenly over the list. Empty when unknown.
pub fn allowed_cpus(max: usize) -> Vec<u32> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        match (lo.trim().parse::<u32>(), hi.trim().parse::<u32>()) {
            (Ok(lo), Ok(hi)) if lo <= hi => cpus.extend(lo..=hi),
            _ => return Vec::new(),
        }
    }
    let step = cpus.len().div_ceil(max.max(1)).max(1);
    cpus.into_iter().step_by(step).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_cpus_is_bounded() {
        let cpus = allowed_cpus(4);
        assert!(cpus.len() <= 4);
        assert!(cpus.windows(2).all(|w| w[0] < w[1]));
    }
}
