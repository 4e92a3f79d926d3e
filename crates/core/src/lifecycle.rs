//! The VNI lifecycle as one executable model — the only place the
//! paper's VNI rules are written as code. ARCHITECTURE.md § "VNI
//! lifecycle state machine" says where it runs; nothing in the
//! simulated stack consults it.
//!
//! A VNI is [`Phase::Free`], [`Phase::Held`] or [`Phase::Quarantined`].
//! [`Lifecycle::apply`] accepts only the legal transitions:
//!
//! * `acquire` of a free VNI, or of a quarantined one whose window has
//!   passed (§III-C1: "we only hand out a VNI after it has been released
//!   for more than 30 seconds");
//! * `release`, `add_user:` and `remove_user:` of a held VNI;
//! * `quarantine_expire` of a quarantined VNI after its window.
//!
//! Every transition is one audit entry (§III-C2), so a
//! [`replay`](Lifecycle::replay) of the [`VniDb`](crate::VniDb) audit
//! log must accept every entry and end in the database's rows.
//! [`Lifecycle::orphans`] projects the model onto the nodes.
//!
//! ```
//! use shs_des::SimDur;
//! use slingshot_k8s::{lifecycle::{Lifecycle, Rule}, AuditEntry};
//!
//! let mut model = Lifecycle::new(SimDur::from_secs(30));
//! let at = |s: u64, ev: &str| AuditEntry { at_ns: s * 1_000_000_000, event: ev.into(), vni: 9 };
//! assert!(model.apply(&at(0, "acquire")).and(model.apply(&at(5, "release"))).is_ok());
//! let reissued = model.apply(&at(34, "acquire")).unwrap_err(); // 29 s after its release
//! assert_eq!((reissued.seq, reissued.rule), (2, Rule::AcquireInQuarantine));
//! ```

use std::collections::{BTreeMap, BTreeSet};

use shs_des::{SimDur, SimTime};
use shs_fabric::Vni;
use shs_k8s::kinds;

use crate::cluster::Cluster;
use crate::vni_db::{AuditEntry, VniRow, VniState};

/// Where one VNI is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Phase {
    /// Never allocated, or its quarantine was swept.
    Free,
    /// Allocated; `users` are the jobs attached to a claim-owned VNI,
    /// in the order they were added.
    Held {
        /// Attached users.
        users: Vec<String>,
    },
    /// Released at `since_ns`; unusable until the window passes.
    Quarantined {
        /// Release instant (ns).
        since_ns: u64,
    },
}

/// Which rule an audit entry or a database row broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `acquire` of a VNI that is already held.
    AcquireHeld,
    /// `acquire` of a quarantined VNI before its window passed.
    AcquireInQuarantine,
    /// `release`, `add_user:` or `remove_user:` of a VNI not held.
    NotHeld,
    /// `quarantine_expire` of a VNI that is not quarantined.
    ExpireNotQuarantined,
    /// `quarantine_expire` before the window passed.
    ExpireEarly,
    /// An event the lifecycle does not know.
    UnknownEvent,
    /// The database row disagrees with the replayed state.
    RowDiverged,
}

/// A transition the model rejects, or a row it contradicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Audit seq of the entry; for [`Rule::RowDiverged`], the seq the
    /// next entry would take.
    pub seq: u64,
    /// The VNI.
    pub vni: u16,
    /// Entry time; for [`Rule::RowDiverged`], the last entry's.
    pub at_ns: u64,
    /// The rule broken.
    pub rule: Rule,
}

/// A node resource the model does not justify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Orphan {
    /// A `cni:` CXI service whose pod no longer exists.
    Service {
        /// Node name.
        node: String,
        /// The service label (`cni:<ns>_<pod>`).
        label: String,
    },
    /// A switch grant on the node's NIC that no CXI service on the node
    /// carries, or whose VNI the model does not hold.
    Grant {
        /// Node name.
        node: String,
        /// The granted VNI.
        vni: u16,
    },
}

/// The replayed lifecycle of every VNI one audit log names.
#[derive(Debug, Clone, Default)]
pub struct Lifecycle {
    quarantine_ns: u64,
    /// Every VNI that is not free.
    vnis: BTreeMap<u16, Phase>,
    next_seq: u64,
    last_at_ns: u64,
}

impl Lifecycle {
    /// Every VNI free, under a `quarantine` window.
    pub fn new(quarantine: SimDur) -> Self {
        Lifecycle { quarantine_ns: quarantine.as_nanos(), ..Default::default() }
    }

    /// Replay a whole log from seq 0 and compare the end state with the
    /// database's `rows`: the model, every entry it rejected, and every
    /// VNI whose row disagrees ([`Rule::RowDiverged`]) — a held VNI needs
    /// an allocated row with the same users, a quarantined one a
    /// quarantined row with the same release instant, a free one none.
    pub fn replay(
        quarantine: SimDur,
        audit: &[AuditEntry],
        rows: &[VniRow],
    ) -> (Self, Vec<Violation>) {
        let mut model = Lifecycle::new(quarantine);
        let mut violations: Vec<Violation> =
            audit.iter().filter_map(|e| model.apply(e).err()).collect();
        let by_vni: BTreeMap<u16, &VniRow> = rows.iter().map(|r| (r.vni, r)).collect();
        let vnis: BTreeSet<u16> = by_vni.keys().chain(model.vnis.keys()).copied().collect();
        let diverged = |vni: &u16| match (model.phase(*vni), by_vni.get(vni)) {
            (Phase::Free, None) => false,
            (Phase::Held { users }, Some(row)) => {
                row.state != VniState::Allocated || &row.users != users
            }
            (Phase::Quarantined { since_ns }, Some(row)) => {
                row.state != VniState::Quarantined { released_at_ns: *since_ns }
            }
            _ => true,
        };
        let (seq, at_ns) = (model.next_seq, model.last_at_ns);
        let at = |vni| Violation { seq, vni, at_ns, rule: Rule::RowDiverged };
        violations.extend(vnis.into_iter().filter(diverged).map(at));
        (model, violations)
    }

    /// Apply the next audit entry. A rejected entry still moves its VNI
    /// to the state the entry names, so one bad transition is reported
    /// once, not again at every later entry.
    pub fn apply(&mut self, e: &AuditEntry) -> Result<(), Violation> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.last_at_ns = e.at_ns;
        let phase = self.vnis.remove(&e.vni).unwrap_or(Phase::Free);
        let unless = |legal: bool, rule| (!legal).then_some(rule);
        let (next, broken) = match (e.event.as_str(), phase) {
            ("acquire", p) => {
                let rule = match p {
                    Phase::Held { .. } => Rule::AcquireHeld,
                    _ => Rule::AcquireInQuarantine,
                };
                (Phase::Held { users: vec![] }, unless(self.reusable_from(&p, e.at_ns), rule))
            }
            ("release", p) => {
                let held = matches!(p, Phase::Held { .. });
                (Phase::Quarantined { since_ns: e.at_ns }, unless(held, Rule::NotHeld))
            }
            ("quarantine_expire", p @ Phase::Quarantined { .. }) => {
                (Phase::Free, unless(self.reusable_from(&p, e.at_ns), Rule::ExpireEarly))
            }
            ("quarantine_expire", _) => (Phase::Free, Some(Rule::ExpireNotQuarantined)),
            (event, Phase::Held { mut users }) => {
                let broken = if let Some(user) = event.strip_prefix("add_user:") {
                    if !users.iter().any(|u| u == user) {
                        users.push(user.to_string());
                    }
                    None
                } else if let Some(user) = event.strip_prefix("remove_user:") {
                    users.retain(|u| u != user);
                    None
                } else {
                    Some(Rule::UnknownEvent)
                };
                (Phase::Held { users }, broken)
            }
            (event, p) => {
                let user_op = event.starts_with("add_user:") || event.starts_with("remove_user:");
                (p, Some(if user_op { Rule::NotHeld } else { Rule::UnknownEvent }))
            }
        };
        if next != Phase::Free {
            self.vnis.insert(e.vni, next);
        }
        broken.map_or(Ok(()), |rule| Err(Violation { seq, vni: e.vni, at_ns: e.at_ns, rule }))
    }

    /// Whether a VNI in `phase` may be handed out at `now_ns`: it is
    /// free, or quarantined and its window has passed.
    fn reusable_from(&self, phase: &Phase, now_ns: u64) -> bool {
        match phase {
            Phase::Free => true,
            Phase::Quarantined { since_ns } => {
                now_ns >= since_ns.saturating_add(self.quarantine_ns)
            }
            Phase::Held { .. } => false,
        }
    }

    /// The phase of `vni`.
    pub fn phase(&self, vni: u16) -> &Phase {
        self.vnis.get(&vni).unwrap_or(&Phase::Free)
    }

    /// Whether `acquire` may hand out `vni` at `now`.
    pub fn reusable(&self, vni: u16, now: SimTime) -> bool {
        self.reusable_from(self.phase(vni), now.as_nanos())
    }

    /// Quarantined VNIs whose window has passed at `now`, ascending —
    /// what a sweep at `now` frees.
    pub fn expired(&self, now: SimTime) -> impl Iterator<Item = u16> + '_ {
        self.iter().filter(move |(vni, _)| self.reusable(*vni, now)).map(|(vni, _)| vni)
    }

    /// Every VNI that is not free, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &Phase)> + '_ {
        self.vnis.iter().map(|(&vni, phase)| (vni, phase))
    }

    /// Node resources the model does not justify: `cni:` CXI services
    /// whose pod is gone, and switch grants on a node's NIC that no CXI
    /// service on that node carries or whose VNI is not held. The
    /// global VNI, which every node's default service holds, is outside
    /// the lifecycle.
    pub fn orphans(&self, cluster: &Cluster) -> Vec<Orphan> {
        let mut orphans = Vec::new();
        for node in &cluster.nodes {
            let name = &node.inner.name;
            let services = node.inner.device.driver.services();
            for svc in services {
                let Some(sandbox) = svc.label.strip_prefix("cni:") else { continue };
                let Some((ns, pod)) = sandbox.split_once('_') else { continue };
                if cluster.api.get(kinds::POD, ns, pod).is_none() {
                    orphans.push(Orphan::Service { node: name.clone(), label: svc.label.clone() });
                }
            }
            let Some((sw, port)) = cluster.fabric.attachment(node.inner.nic) else { continue };
            for vni in cluster.fabric.switch_at(sw).vnis_on(port).filter(|&v| v != Vni::GLOBAL) {
                let carried = services.iter().any(|s| s.vnis.contains(&vni));
                if !carried || !matches!(self.phase(vni.raw()), Phase::Held { .. }) {
                    orphans.push(Orphan::Grant { node: name.clone(), vni: vni.raw() });
                }
            }
        }
        orphans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(log: &[(u64, &str)]) -> Vec<(u64, Rule)> {
        let mut model = Lifecycle::new(SimDur::from_secs(30));
        let entry =
            |&(at_ns, event): &(u64, &str)| AuditEntry { at_ns, event: event.into(), vni: 7 };
        let broken = log.iter().filter_map(|e| model.apply(&entry(e)).err());
        broken.map(|v| (v.seq, v.rule)).collect()
    }

    const S: u64 = 1_000_000_000;

    #[test]
    fn reuse_exactly_at_the_window_is_legal() {
        assert_eq!(rules(&[(0, "acquire"), (5 * S, "release"), (35 * S, "acquire")]), []);
    }

    #[test]
    fn reuse_one_nanosecond_early_is_illegal() {
        let log = [(0, "acquire"), (5 * S, "release"), (35 * S - 1, "acquire")];
        assert_eq!(rules(&log), [(2, Rule::AcquireInQuarantine)]);
    }

    #[test]
    fn acquiring_a_held_vni_is_illegal() {
        let log = [(0, "acquire"), (S, "add_user:t/a"), (2 * S, "acquire")];
        assert_eq!(rules(&log), [(2, Rule::AcquireHeld)]);
    }

    #[test]
    fn an_early_quarantine_expire_is_illegal() {
        let on_time = [(0, "acquire"), (S, "release"), (31 * S, "quarantine_expire")];
        assert_eq!(rules(&on_time), []);
        let early = [(0, "acquire"), (S, "release"), (31 * S - 1, "quarantine_expire")];
        assert_eq!(rules(&early), [(2, Rule::ExpireEarly)]);
    }
}
