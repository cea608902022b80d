//! The rep validator: a rep counts only when the program's outputs are
//! correct. The virtual clock and the error are deterministic, so the
//! checks are exact.

use ftsg_core::app::keys;
use ftsg_core::{RecoveryPolicy, Technique};
use ulfm_sim::Report;

/// What a healthy rep of one invocation must report.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    pub technique: Technique,
    pub policy: RecoveryPolicy,
    /// Processes launched, idle spares included.
    pub launch_world: usize,
    /// Kills the fault plan injects (0 for the failure-free reference).
    pub kills: usize,
}

/// The values every rep of a run must reproduce to the last bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub makespan: f64,
    pub repair: f64,
    pub restore: f64,
    pub err_l1: f64,
}

impl Fingerprint {
    /// Read the four gated virtual quantities off a report.
    pub fn of(report: &Report) -> Result<Self, String> {
        let get =
            |key: &str| report.get_f64(key).ok_or_else(|| format!("report key `{key}` is missing"));
        Ok(Fingerprint {
            makespan: report.makespan,
            // `T_RECONSTRUCT` already contains the failed-list time.
            repair: get(keys::T_RECONSTRUCT)?,
            restore: get(keys::T_RECOVERY)? + get(keys::T_CKPT)?,
            err_l1: get(keys::ERR_L1)?,
        })
    }

    fn bits(&self) -> [u64; 4] {
        [self.makespan, self.repair, self.restore, self.err_l1].map(f64::to_bits)
    }
}

/// The paper's robustness envelope (its Fig. 10): an approximate recovery
/// may cost at most this factor of the failure-free error.
pub const ERROR_ENVELOPE: f64 = 10.0;

/// Check one rep. `reference_err` is the failure-free run's `err_l1`;
/// `first` the fingerprint of the run's first kill rep, once there is one.
pub fn validate(
    report: &Report,
    expect: &Expect,
    reference_err: Option<f64>,
    first: Option<&Fingerprint>,
) -> Result<Fingerprint, String> {
    if !report.app_errors.is_empty() {
        return Err(format!("application errors: {:?}", report.app_errors));
    }
    let fp = Fingerprint::of(report)?;
    let n_failed = report.get_f64(keys::N_FAILED).unwrap_or(f64::NAN);
    if n_failed != expect.kills as f64 || report.procs_failed != expect.kills {
        return Err(format!(
            "{} kills injected, {n_failed} repaired, {} processes failed",
            expect.kills, report.procs_failed
        ));
    }
    let created = match expect.policy {
        // Promotion is one split: nothing is spawned.
        RecoveryPolicy::SpareSubstitute => expect.launch_world,
        _ => expect.launch_world + expect.kills,
    };
    if report.procs_created != created {
        return Err(format!(
            "{} processes created, {created} expected under {}",
            report.procs_created,
            expect.policy.label()
        ));
    }
    if !(fp.err_l1.is_finite() && fp.err_l1 > 0.0 && fp.makespan.is_finite()) {
        return Err(format!("degenerate result: {fp:?}"));
    }
    if let Some(reference) = reference_err {
        match expect.technique {
            Technique::CheckpointRestart | Technique::BuddyCheckpoint => {
                if fp.err_l1.to_bits() != reference.to_bits() {
                    return Err(format!(
                        "exact recovery must reproduce the failure-free error: {:e} vs {reference:e}",
                        fp.err_l1
                    ));
                }
            }
            Technique::ResamplingCopying | Technique::AlternateCombination => {
                if fp.err_l1 > ERROR_ENVELOPE * reference {
                    return Err(format!(
                        "error {:e} is outside {ERROR_ENVELOPE}x the failure-free {reference:e}",
                        fp.err_l1
                    ));
                }
            }
        }
    }
    if let Some(first) = first {
        if fp.bits() != first.bits() {
            return Err(format!("reps of one run disagree: {fp:?} vs {first:?}"));
        }
    }
    Ok(fp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use ulfm_sim::{MetricsReport, Value};

    const REFERENCE: f64 = 2.5e-6;

    fn expect(technique: Technique, policy: RecoveryPolicy) -> Expect {
        Expect { technique, policy, launch_world: 20, kills: 2 }
    }

    /// A fabricated healthy report of a two-kill run.
    fn report(policy: RecoveryPolicy, err: f64) -> Report {
        let mut values = HashMap::new();
        for (key, v) in [
            (keys::T_RECONSTRUCT, 45.0),
            (keys::T_RECOVERY, 1.0e-4),
            (keys::T_CKPT, 0.25),
            (keys::ERR_L1, err),
            (keys::N_FAILED, 2.0),
        ] {
            values.insert(key.to_string(), Value::F64(v));
        }
        Report {
            values,
            app_errors: Vec::new(),
            procs_created: if policy == RecoveryPolicy::SpareSubstitute { 20 } else { 22 },
            procs_failed: 2,
            makespan: 58.75,
            comm_hidden: 0.0,
            comm_exposed: 0.0,
            io_hidden: 0.0,
            io_exposed: 0.0,
            trace: Vec::new(),
            trace_dropped: 0,
            metrics: MetricsReport::default(),
            timelines: Vec::new(),
        }
    }

    fn ulp_up(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    #[test]
    fn healthy_reports_pass() {
        let respawn = RecoveryPolicy::Respawn;
        for technique in [Technique::CheckpointRestart, Technique::AlternateCombination] {
            let r = report(respawn, REFERENCE);
            let fp = validate(&r, &expect(technique, respawn), Some(REFERENCE), None).unwrap();
            assert_eq!(fp.restore, 1.0e-4 + 0.25);
            assert_eq!(fp.repair, 45.0);
            validate(&r, &expect(technique, respawn), Some(REFERENCE), Some(&fp)).unwrap();
        }
        let spare = RecoveryPolicy::SpareSubstitute;
        let r = report(spare, 9.9 * REFERENCE);
        validate(&r, &expect(Technique::ResamplingCopying, spare), Some(REFERENCE), None).unwrap();
    }

    #[test]
    fn wrong_failure_count_is_rejected() {
        let pol = RecoveryPolicy::Respawn;
        let e = expect(Technique::AlternateCombination, pol);
        let mut r = report(pol, REFERENCE);
        r.values.insert(keys::N_FAILED.to_string(), Value::F64(1.0));
        assert!(validate(&r, &e, Some(REFERENCE), None).unwrap_err().contains("kills injected"));
        let mut r = report(pol, REFERENCE);
        r.procs_failed = 3;
        assert!(validate(&r, &e, Some(REFERENCE), None).is_err());
    }

    #[test]
    fn application_errors_are_rejected() {
        let pol = RecoveryPolicy::Respawn;
        let mut r = report(pol, REFERENCE);
        r.app_errors.push("ftsg application failed: boom".into());
        let err = validate(&r, &expect(Technique::AlternateCombination, pol), None, None);
        assert!(err.unwrap_err().contains("application errors"));
    }

    #[test]
    fn wrong_process_count_is_rejected_under_both_policies() {
        // Respawn must have spawned one replacement per kill …
        let respawn = RecoveryPolicy::Respawn;
        let mut r = report(respawn, REFERENCE);
        r.procs_created = 20;
        let e = expect(Technique::AlternateCombination, respawn);
        assert!(validate(&r, &e, None, None).unwrap_err().contains("processes created"));
        // … and spare substitution must have spawned nothing.
        let spare = RecoveryPolicy::SpareSubstitute;
        let mut r = report(spare, REFERENCE);
        r.procs_created = 22;
        let e = expect(Technique::ResamplingCopying, spare);
        assert!(validate(&r, &e, None, None).unwrap_err().contains("processes created"));
    }

    #[test]
    fn checkpoint_restart_error_must_be_bit_equal() {
        let pol = RecoveryPolicy::Respawn;
        let r = report(pol, ulp_up(REFERENCE));
        let e = expect(Technique::CheckpointRestart, pol);
        assert!(validate(&r, &e, Some(REFERENCE), None).unwrap_err().contains("exact recovery"));
    }

    #[test]
    fn approximate_recovery_is_held_to_the_envelope() {
        for (technique, pol) in [
            (Technique::AlternateCombination, RecoveryPolicy::Respawn),
            (Technique::ResamplingCopying, RecoveryPolicy::SpareSubstitute),
        ] {
            let r = report(pol, 10.5 * REFERENCE);
            let err = validate(&r, &expect(technique, pol), Some(REFERENCE), None);
            assert!(err.unwrap_err().contains("outside"));
        }
    }

    #[test]
    fn a_one_ulp_drift_between_reps_is_rejected() {
        let pol = RecoveryPolicy::Respawn;
        let e = expect(Technique::AlternateCombination, pol);
        let first = validate(&report(pol, REFERENCE), &e, Some(REFERENCE), None).unwrap();
        let mut r = report(pol, REFERENCE);
        r.makespan = ulp_up(r.makespan);
        assert!(validate(&r, &e, Some(REFERENCE), Some(&first)).unwrap_err().contains("disagree"));
        let mut r = report(pol, REFERENCE);
        r.values.insert(keys::T_RECONSTRUCT.to_string(), Value::F64(ulp_up(45.0)));
        assert!(validate(&r, &e, Some(REFERENCE), Some(&first)).is_err());
    }

    #[test]
    fn missing_keys_and_degenerate_values_are_rejected() {
        let pol = RecoveryPolicy::Respawn;
        let e = expect(Technique::AlternateCombination, pol);
        let mut r = report(pol, REFERENCE);
        r.values.remove(keys::ERR_L1);
        assert!(validate(&r, &e, None, None).unwrap_err().contains("missing"));
        assert!(validate(&report(pol, f64::NAN), &e, None, None).is_err());
        assert!(validate(&report(pol, 0.0), &e, None, None).is_err());
    }
}
