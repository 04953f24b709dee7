//! The host as the benchmark found it: cores, caches, the file system
//! under the checkpoint directory, the commit, peak memory.  All read from
//! `/proc`, `/sys` and `.git`; anything unreadable is reported as
//! `unknown` rather than guessed.

use std::fs;
use std::path::Path;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `L2 Unified 2048K`-style entries of cpu0, in sysfs order.
pub fn caches() -> Vec<String> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &Path, f: &str| fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string());
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = base.join(format!("index{index}"));
        if let (Ok(level), Ok(kind), Ok(size)) =
            (read(&dir, "level"), read(&dir, "type"), read(&dir, "size"))
        {
            out.push(format!("L{level} {kind} {size}"));
        }
    }
    out
}

/// File-system type and device of the mount holding `path` (the longest
/// mount point that prefixes it in `/proc/mounts`).
pub fn filesystem(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), format!("{kind} on {dev}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, desc)| desc)
}

/// The checked-out commit, from the nearest `.git` above the working
/// directory; `unknown` in an exported tree.
pub fn git_commit() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if let Ok(head) = fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let commit = match head.strip_prefix("ref: ") {
                Some(reference) => fs::read_to_string(git.join(reference)).ok(),
                None => Some(head.to_string()),
            };
            return commit.map_or("unknown".into(), |c| c.trim().to_string());
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

/// Peak resident set of this process (VmHWM) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
