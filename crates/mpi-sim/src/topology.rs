//! Cluster topology: hosts, slots and the hostfile.
//!
//! The paper's `repairComm` (its Fig. 5) determines where to respawn a
//! failed rank by indexing the **hostfile** with `failedRank / SLOTS` and
//! passing the resulting host name to `MPI_Comm_spawn_multiple` via an
//! `MPI_Info` object, so failed ranks come back on the physical node they
//! occupied before the failure (preserving load balance). This module
//! reproduces the same mechanics; the spawn spec carries the hostfile
//! index that name stands for (`SpawnSpec::on_host`).

use crate::error::{Error, Result};

/// One line of the hostfile: a named node with a fixed number of slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Node name, e.g. `"node007"`.
    pub name: String,
    /// Number of MPI slots (typically cores) the node offers.
    pub slots: usize,
}

/// An ordered list of hosts, as Open MPI's `--hostfile` would see it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hostfile {
    hosts: Vec<Host>,
}

impl Hostfile {
    /// Build a uniform hostfile of `n_hosts` nodes with `slots` slots each,
    /// named `prefix000`, `prefix001`, ...
    pub fn uniform(prefix: &str, n_hosts: usize, slots: usize) -> Self {
        let hosts = (0..n_hosts).map(|i| Host { name: format!("{prefix}{i:03}"), slots }).collect();
        Hostfile { hosts }
    }

    /// Build from explicit hosts.
    pub fn new(hosts: Vec<Host>) -> Self {
        Hostfile { hosts }
    }

    /// Parse the Open MPI hostfile syntax subset `name slots=K` (one host
    /// per line; missing `slots=` defaults to 1; `#` comments allowed).
    pub fn parse(text: &str) -> Result<Self> {
        let mut hosts = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap().to_string();
            let mut slots = 1;
            for p in parts {
                if let Some(v) = p.strip_prefix("slots=") {
                    slots = v.parse::<usize>().map_err(|_| {
                        Error::InvalidArg(format!("hostfile line {}: bad slots '{p}'", lineno + 1))
                    })?;
                } else {
                    return Err(Error::InvalidArg(format!(
                        "hostfile line {}: unexpected token '{p}'",
                        lineno + 1
                    )));
                }
            }
            hosts.push(Host { name, slots });
        }
        if hosts.is_empty() {
            return Err(Error::InvalidArg("hostfile has no hosts".into()));
        }
        Ok(Hostfile { hosts })
    }

    /// Render in the same syntax [`Hostfile::parse`] accepts.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for h in &self.hosts {
            s.push_str(&format!("{} slots={}\n", h.name, h.slots));
        }
        s
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True if there are no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Total number of slots across all hosts.
    pub fn total_slots(&self) -> usize {
        self.hosts.iter().map(|h| h.slots).sum()
    }

    /// The hosts, in hostfile order.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Index of the host a given *initial* world rank is placed on under
    /// block placement — the paper's `hostfileLineIndex = failedRank / SLOTS`
    /// with per-host slot counts generalized to non-uniform hostfiles.
    pub fn host_of_rank(&self, rank: usize) -> Result<usize> {
        let mut r = rank;
        for (i, h) in self.hosts.iter().enumerate() {
            if r < h.slots {
                return Ok(i);
            }
            r -= h.slots;
        }
        Err(Error::InvalidArg(format!(
            "rank {rank} exceeds hostfile capacity {}",
            self.total_slots()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_block_placement_matches_paper_formula() {
        // Paper: SLOTS = 12 per host; hostfileLineIndex = failedRank / 12.
        let hf = Hostfile::uniform("node", 36, 12);
        assert_eq!(hf.total_slots(), 432); // the OPL cluster
        for rank in [0, 11, 12, 35, 431] {
            assert_eq!(hf.host_of_rank(rank).unwrap(), rank / 12);
        }
        assert!(hf.host_of_rank(432).is_err());
    }

    #[test]
    fn parse_and_render_roundtrip() {
        let text = "n0 slots=12\nn1 slots=12\n# spare\nn2 slots=4\n";
        let hf = Hostfile::parse(text).unwrap();
        assert_eq!(hf.len(), 3);
        assert_eq!(hf.hosts()[2].slots, 4);
        let hf2 = Hostfile::parse(&hf.render()).unwrap();
        assert_eq!(hf, hf2);
    }

    #[test]
    fn parse_defaults_and_errors() {
        let hf = Hostfile::parse("solo\n").unwrap();
        assert_eq!(hf.hosts()[0].slots, 1);
        assert!(Hostfile::parse("").is_err());
        assert!(Hostfile::parse("n0 slots=x\n").is_err());
        assert!(Hostfile::parse("n0 bogus\n").is_err());
    }

    #[test]
    fn non_uniform_placement() {
        let hf = Hostfile::new(vec![
            Host { name: "a".into(), slots: 2 },
            Host { name: "b".into(), slots: 3 },
        ]);
        assert_eq!(hf.host_of_rank(0).unwrap(), 0);
        assert_eq!(hf.host_of_rank(1).unwrap(), 0);
        assert_eq!(hf.host_of_rank(2).unwrap(), 1);
        assert_eq!(hf.host_of_rank(4).unwrap(), 1);
    }
}
