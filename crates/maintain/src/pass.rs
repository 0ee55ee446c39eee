//! One batch over the shared stores and the summaries that read them.
//!
//! The stores belong to the batch, the summaries each to themselves. Per
//! table group, in batch order:
//!
//! * **Root group.** Each distinct root store of the table groups the
//!   group's occurrences into runs and folds them once; then every summary
//!   rooted there folds the same runs into its own `V`, one after the
//!   other.
//! * **Dimension group.** Change by change: every subscriber retracts the
//!   tuples the change joins while the store holds the old row, `ΔX_T` is
//!   applied to each store of the table once, then every subscriber
//!   inserts them under the new row.
//!
//! The whole batch runs on the calling thread and stays open behind one
//! handle, [`PreparedBatch`], until the caller commits it or rolls it
//! back; dropping the handle rolls it back. A store kernel failing rejects
//! the batch: the stores and every summary are rolled back. A summary
//! failing — an error or a panic — is rolled back alone and sits out the
//! rest of the batch; the caller decides whether that rejects the batch or
//! quarantines the summary.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use md_relation::{Change, TableId};

use crate::engine::{reject, DimStep, SummaryEngine};
use crate::error::{MaintainError, Result};
use crate::registry::{DimDelta, RootBatch, StoreId, StoreRegistry};

/// Why a summary's part of a batch failed.
struct Failure {
    /// The error, a rejection naming the offending change where one is to
    /// blame.
    error: MaintainError,
    /// The payload of a panic the fold raised, for a caller that resumes
    /// the unwind.
    panic: Option<Box<dyn Any + Send>>,
}

/// One summary's part in a batch: its engine and, once it failed, why.
struct Subscriber<'e> {
    engine: &'e mut SummaryEngine,
    failure: Option<Failure>,
}

impl Subscriber<'_> {
    fn alive(&self) -> bool {
        self.failure.is_none()
    }

    /// Runs `step` on the engine unless its part failed already. A failure
    /// — an error or a caught panic — rolls the engine's part back and is
    /// kept.
    fn step(&mut self, step: impl FnOnce(&mut SummaryEngine) -> Result<()>) {
        if !self.alive() {
            return;
        }
        let engine = &mut *self.engine;
        let failure = match catch_unwind(AssertUnwindSafe(|| step(engine))) {
            Ok(Ok(())) => return,
            Ok(Err(error)) => Failure { error, panic: None },
            Err(payload) => Failure {
                error: MaintainError::InvariantViolation(format!(
                    "prepare panicked: {}",
                    panic_message(payload.as_ref())
                )),
                panic: Some(payload),
            },
        };
        self.engine.rollback_prepared();
        self.failure = Some(failure);
    }
}

/// A batch open on the stores and on its subscribers' summaries — the one
/// transaction every batch runs in, live, replayed or repaired. It holds
/// the registry and the subscribed engines until [`Self::commit`] or
/// [`Self::rollback`]; dropped without either, it rolls back, so every
/// early return after [`StoreRegistry::prepare_batch`] undoes the batch.
pub struct PreparedBatch<'r, 'e> {
    registry: &'r mut StoreRegistry,
    subs: Vec<Subscriber<'e>>,
    /// Whether the batch still needs closing (a drop rolls it back).
    open: bool,
}

impl PreparedBatch<'_, '_> {
    /// The summaries whose part failed — each rolled back already and out
    /// of the batch — with why, in the order they subscribed.
    pub fn failures(&self) -> impl Iterator<Item = (&SummaryEngine, &MaintainError)> {
        (self.subs.iter()).filter_map(|s| s.failure.as_ref().map(|f| (&*s.engine, &f.error)))
    }

    /// The stores, holding the batch uncommitted.
    pub fn registry(&self) -> &StoreRegistry {
        self.registry
    }

    /// The batch, if no summary's part failed. Otherwise the batch is
    /// rolled back everywhere and the failure propagates: the first panic
    /// a fold raised resumes its unwind, else the first error is returned.
    pub fn all_or_nothing(mut self) -> Result<Self> {
        let panic = self
            .subs
            .iter_mut()
            .find_map(|s| s.failure.as_mut()?.panic.take());
        if let Some(payload) = panic {
            self.undo();
            resume_unwind(payload);
        }
        let first = self.failures().next().map(|(_, e)| e.clone());
        match first {
            None => Ok(self),
            Some(e) => Err(e),
        }
    }

    /// Keeps the batch: the stores commit, and so does every summary whose
    /// part did not fail, each recording the LSNs of `lsns` it reads as
    /// committed. Returns how many summaries committed.
    pub fn commit(mut self, lsns: &[(TableId, u64)]) -> usize {
        self.open = false;
        self.registry.commit(lsns);
        let mut committed = 0;
        for sub in self.subs.iter_mut().filter(|s| s.alive()) {
            sub.engine.commit_batch(lsns);
            committed += 1;
        }
        committed
    }

    /// Undoes the batch in the stores and every summary.
    pub fn rollback(mut self) {
        self.undo();
    }

    /// Leaves the batch open on the registry and the engines, for a
    /// standalone engine whose caller closes it by hand.
    pub(crate) fn leave_open(mut self) {
        self.open = false;
    }

    fn undo(&mut self) {
        self.open = false;
        self.registry.rollback();
        for sub in &mut self.subs {
            sub.engine.rollback_prepared();
        }
    }
}

impl Drop for PreparedBatch<'_, '_> {
    fn drop(&mut self) {
        if self.open {
            self.undo();
        }
    }
}

impl StoreRegistry {
    /// Opens a batch: folds every table group of `groups`, in order, into
    /// each of `engines` that reads the group's table and into every store
    /// of the table still behind `lsn(table)` — a replayed frame skips the
    /// stores that committed it already.
    ///
    /// On `Ok` the stores hold the batch uncommitted, and so does every
    /// engine not among [`PreparedBatch::failures`]; a failed one has been
    /// rolled back. On `Err` — a store kernel failed, or a batch is already
    /// open — nothing of the batch remains anywhere.
    pub fn prepare_batch<'r, 'e>(
        &'r mut self,
        groups: &[(TableId, &[Change])],
        lsn: impl Fn(TableId) -> u64,
        engines: impl IntoIterator<Item = &'e mut SummaryEngine>,
    ) -> Result<PreparedBatch<'r, 'e>> {
        // A second prepare would restart every journal and strand the
        // first batch's mutations behind a rollback that cannot see them.
        if self.is_open() {
            return Err(MaintainError::InvariantViolation(
                "prepared batch still open on the auxiliary stores: commit or rollback \
                 must close it before the next prepare_batch"
                    .into(),
            ));
        }
        self.begin();
        let subs = engines.into_iter().map(|engine| Subscriber {
            engine,
            failure: None,
        });
        let mut batch = PreparedBatch {
            registry: self,
            subs: subs.collect(),
            open: true,
        };
        for sub in &mut batch.subs {
            sub.step(|engine| engine.begin_batch(groups));
        }
        for &(table, changes) in groups {
            (batch.registry).prepare_group(table, changes, lsn(table), &mut batch.subs)?;
        }
        Ok(batch)
    }

    fn prepare_group(
        &mut self,
        table: TableId,
        changes: &[Change],
        lsn: u64,
        subs: &mut [Subscriber<'_>],
    ) -> Result<()> {
        // Root role: each distinct root store groups and folds the group
        // once, and its runs go to every summary rooted here.
        let mut batches: Vec<(StoreId, RootBatch<'_>)> = Vec::new();
        for id in self.stores_of(table, true, lsn) {
            let batch = self
                .root_batch(id, changes)
                .map_err(|(i, e)| reject(self.catalog(), table, i, e))?;
            self.fold_root(id, &batch)
                .map_err(|(i, e)| reject(self.catalog(), table, i, e))?;
            batches.push((id, batch));
        }
        let registry = &*self;
        for sub in subs.iter_mut() {
            if sub.engine.plan().graph.root() != table {
                continue;
            }
            sub.step(|engine| {
                let shared = engine
                    .root_store()
                    .and_then(|id| batches.iter().find(|(b, _)| *b == id));
                engine.fold_root_group(table, changes, shared.map(|(_, b)| b), registry)
            });
        }

        // Dimension role: change by change, retract everywhere, apply
        // `ΔX_T` once per store, insert everywhere.
        let folded = self.stores_of(table, false, lsn);
        let mut dims: Vec<&mut Subscriber<'_>> = subs
            .iter_mut()
            .filter(|s| {
                let plan = s.engine.plan();
                s.alive() && plan.graph.root() != table && plan.view.tables.contains(&table)
            })
            .collect();
        if folded.is_empty() && dims.is_empty() {
            return Ok(());
        }
        // Every store the change reaches or a subscriber reads.
        let mut reached = folded.clone();
        for sub in &dims {
            if let Some(id) = sub.engine.store_of(table) {
                if !reached.contains(&id) {
                    reached.push(id);
                }
            }
        }
        let mut deltas: Vec<(StoreId, DimDelta<'_>)> = Vec::with_capacity(reached.len());
        let mut steps: Vec<Option<DimStep>> = dims.iter().map(|_| None).collect();
        for (i, change) in changes.iter().enumerate() {
            deltas.clear();
            for &id in &reached {
                let delta = self
                    .dim_delta(id, change)
                    .map_err(|e| reject(self.catalog(), table, Some(i), e))?;
                deltas.push((id, delta));
            }
            let registry = &*self;
            for (sub, step) in dims.iter_mut().zip(&mut steps) {
                sub.step(|engine| {
                    let id = engine.dim_store(table)?;
                    let (_, delta) = deltas.iter().find(|(d, _)| *d == id).expect("reached");
                    *step = engine.dim_retract(table, i, change, delta, registry)?;
                    Ok(())
                });
            }
            for (id, delta) in &deltas {
                if folded.contains(id) && !delta.is_empty() {
                    self.apply_dim(*id, delta)
                        .map_err(|e| reject(self.catalog(), table, Some(i), e))?;
                }
            }
            let registry = &*self;
            for (sub, step) in dims.iter_mut().zip(&mut steps) {
                if let Some(step) = step.take() {
                    sub.step(|engine| engine.dim_insert(table, i, step, registry));
                }
            }
        }
        for sub in &mut dims {
            sub.step(SummaryEngine::dim_flush);
        }
        Ok(())
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
