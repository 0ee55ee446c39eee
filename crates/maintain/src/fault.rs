//! Fault injection for crash-safety and fault-domain testing.
//!
//! A [`FaultPlan`] is a cheap, cloneable handle that maintenance code
//! threads through its commit paths. Production code constructs the
//! default (disarmed) plan, in which every [`FaultPlan::hit`] is a no-op;
//! tests arm a named injection point so that the nth time execution
//! reaches it, a fault fires — simulating a failure at exactly that
//! moment. Two fault shapes are supported:
//!
//! - **crash** ([`FaultPlan::arm`]): fires [`MaintainError::Injected`]
//!   once, then disarms. Models a hard stop, and the one shape of a
//!   storage fault: nothing retries it. At a log or save point the
//!   warehouse rejects the batch (or the save), rolls it back and
//!   dead-letters it; a real log backend maps every failed write or
//!   `fsync` onto the same path, because a retried `fsync` that succeeds
//!   proves nothing about the pages the failed one dropped.
//! - **panic** ([`FaultPlan::arm_panic`]): panics at the point, modelling
//!   a summary's fold dying mid-prepare. The scheduler catches it around
//!   that summary's step and treats it as a quarantine-worthy engine
//!   failure.
//!
//! Points have plain names (`warehouse.wal.append`); engine-level points
//! are additionally checked under a `point@scope` name (scope = summary
//! view name) via [`FaultPlan::hit_scoped`], so a test can target one
//! summary's engine and leave the others alone.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::error::{MaintainError, Result};

/// What an armed point does when its countdown elapses.
#[derive(Debug)]
enum FaultKind {
    /// Hard crash: `MaintainError::Injected`, fires once.
    Crash,
    /// Panics at the point, fires once.
    Panic,
}

/// What a traversal of an armed point produced, resolved while the
/// plan's lock is held; panics are raised only after it is released.
enum Fired {
    None,
    Error(MaintainError),
    Panic(String),
}

#[derive(Debug)]
struct Armed {
    point: String,
    /// Traversals to let through before firing (0 = fire on next).
    after: u64,
    kind: FaultKind,
}

#[derive(Debug, Default)]
struct Inner {
    armed: Vec<Armed>,
    /// Every point name that `hit` has been called with, in order —
    /// lets tests enumerate the injection points a scenario traverses.
    /// Scoped hits record the *generic* name so the traversal log stays
    /// stable across view renames.
    seen: Vec<String>,
}

/// A shared, optionally-armed fault plan.
///
/// The default plan carries no state at all (`None` inside), so the hot
/// path in production pays only an `Option` check per injection point.
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "FaultPlan(disarmed)"),
            Some(i) => {
                let inner = i.lock().expect("fault plan poisoned");
                write!(f, "FaultPlan(armed: {:?})", inner.armed)
            }
        }
    }
}

impl FaultPlan {
    /// A plan that records traversed points and can be armed.
    pub fn recording() -> Self {
        FaultPlan {
            inner: Some(Arc::new(Mutex::new(Inner::default()))),
        }
    }

    fn push(&mut self, point: &str, after: u64, kind: FaultKind) {
        let inner = self
            .inner
            .get_or_insert_with(|| Arc::new(Mutex::new(Inner::default())));
        inner
            .lock()
            .expect("fault plan poisoned")
            .armed
            .push(Armed {
                point: point.to_string(),
                after,
                kind,
            });
    }

    /// Arms `point` so that the `nth` traversal (0-based) fails with
    /// [`MaintainError::Injected`]. Arming the same point again queues an
    /// additional firing.
    pub fn arm(&mut self, point: &str, nth: u64) {
        self.push(point, nth, FaultKind::Crash);
    }

    /// Arms `point` so that the `nth` traversal (0-based) panics,
    /// modelling code dying mid-operation.
    pub fn arm_panic(&mut self, point: &str, nth: u64) {
        self.push(point, nth, FaultKind::Panic);
    }

    fn fire(inner: &mut Inner, pos: usize, fired_as: &str) -> Fired {
        match inner.armed.remove(pos).kind {
            FaultKind::Crash => Fired::Error(MaintainError::Injected {
                point: fired_as.to_string(),
            }),
            // The caller panics *after* releasing the plan's lock, so the
            // plan stays usable once the panic is caught.
            FaultKind::Panic => Fired::Panic(format!("injected panic at fault point '{fired_as}'")),
        }
    }

    fn hit_inner(&self, point: &str, scope: Option<&str>) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let fired = {
            let mut inner = inner.lock().expect("fault plan poisoned");
            inner.seen.push(point.to_string());
            // A scoped arm (`point@scope`) takes precedence over a
            // generic one.
            let scoped_fired = scope.and_then(|scope| {
                let scoped = format!("{point}@{scope}");
                let pos = inner.armed.iter().position(|a| a.point == scoped)?;
                if inner.armed[pos].after == 0 {
                    Some(Self::fire(&mut inner, pos, &scoped))
                } else {
                    inner.armed[pos].after -= 1;
                    Some(Fired::None)
                }
            });
            match scoped_fired {
                Some(fired) => fired,
                None => match inner.armed.iter().position(|a| a.point == point) {
                    None => Fired::None,
                    Some(pos) => {
                        if inner.armed[pos].after == 0 {
                            Self::fire(&mut inner, pos, point)
                        } else {
                            inner.armed[pos].after -= 1;
                            Fired::None
                        }
                    }
                },
            }
        };
        match fired {
            Fired::None => Ok(()),
            Fired::Error(e) => Err(e),
            Fired::Panic(message) => panic!("{message}"),
        }
    }

    /// An injection point. Fires if the point is armed and its countdown
    /// has elapsed; records the traversal and returns `Ok(())` otherwise.
    pub fn hit(&self, point: &str) -> Result<()> {
        self.hit_inner(point, None)
    }

    /// An injection point that also answers to `point@scope` — used by
    /// per-summary engines so tests can target one engine. The traversal
    /// log records the generic `point`.
    pub(crate) fn hit_scoped(&self, point: &str, scope: &str) -> Result<()> {
        self.hit_inner(point, Some(scope))
    }

    /// Whether `point` fires (returns an error or panics) on its next
    /// traversal.
    pub fn is_armed(&self, point: &str) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner
                .lock()
                .expect("fault plan poisoned")
                .armed
                .iter()
                .any(|a| a.point == point),
        }
    }

    /// The distinct point names traversed so far, in first-seen order.
    /// Empty for a plan that was never armed or created via `recording`.
    pub fn points_seen(&self) -> Vec<String> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let inner = inner.lock().expect("fault plan poisoned");
        let mut out: Vec<String> = Vec::new();
        for p in &inner.seen {
            if !out.contains(p) {
                out.push(p.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_a_no_op() {
        let plan = FaultPlan::default();
        for _ in 0..10 {
            assert!(plan.hit("anything").is_ok());
        }
        assert!(plan.points_seen().is_empty());
        assert!(!plan.is_armed("anything"));
    }

    #[test]
    fn armed_point_fires_on_nth_traversal() {
        let mut plan = FaultPlan::default();
        plan.arm("commit", 2);
        assert!(plan.hit("commit").is_ok());
        assert!(plan.hit("other").is_ok());
        assert!(plan.hit("commit").is_ok());
        let err = plan.hit("commit").unwrap_err();
        assert_eq!(
            err,
            MaintainError::Injected {
                point: "commit".into()
            }
        );
        // Fires once, then disarms.
        assert!(plan.hit("commit").is_ok());
    }

    #[test]
    fn clones_share_state() {
        let mut plan = FaultPlan::recording();
        let observer = plan.clone();
        plan.arm("x", 0);
        assert!(observer.is_armed("x"));
        assert!(observer.hit("x").is_err());
        assert!(!plan.is_armed("x"));
        assert_eq!(plan.points_seen(), vec!["x".to_string()]);
    }

    #[test]
    fn seen_points_dedupe_in_order() {
        let plan = FaultPlan::recording();
        for p in ["a", "b", "a", "c", "b"] {
            plan.hit(p).unwrap();
        }
        assert_eq!(
            plan.points_seen(),
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
        );
    }

    #[test]
    fn scoped_arm_only_hits_matching_scope() {
        let mut plan = FaultPlan::recording();
        plan.arm("apply@sales", 0);
        // A different scope sails through.
        assert!(plan.hit_scoped("apply", "revenue").is_ok());
        // The matching scope fires, reporting the scoped name.
        let err = plan.hit_scoped("apply", "sales").unwrap_err();
        assert_eq!(
            err,
            MaintainError::Injected {
                point: "apply@sales".into()
            }
        );
        // Traversal log records the generic point name only.
        assert_eq!(plan.points_seen(), vec!["apply".to_string()]);
    }

    #[test]
    fn generic_arm_still_fires_through_scoped_hit() {
        let mut plan = FaultPlan::default();
        plan.arm("apply", 0);
        assert!(plan.hit_scoped("apply", "sales").is_err());
    }

    #[test]
    #[should_panic(expected = "injected panic at fault point 'boom'")]
    fn armed_panic_panics() {
        let mut plan = FaultPlan::default();
        plan.arm_panic("boom", 0);
        let _ = plan.hit("boom");
    }
}
