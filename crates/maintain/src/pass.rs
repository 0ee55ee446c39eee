//! One batch over the shared stores and the summaries that read them.
//!
//! A batch is first held to the catalog at the door (`Catalog::admit`):
//! every row of every change — both sides of an update — must fit its
//! table's schema, an update must keep its key and change only the
//! table's updatable columns, an insert-only table takes no delete and no
//! update, and a group of an unknown table is admitted nowhere. The first
//! change that is not admitted rejects the batch before anything is
//! opened. Every plan was compiled against the same schema when it was
//! resolved (`filter.rs`), so no condition, sum or `HAVING` a fold
//! evaluates can fail on a row past the door.
//!
//! The stores belong to the batch, the summaries each to themselves. Per
//! table group, in batch order, the group's occurrences are grouped once
//! (a `maintain.grouping` span) for every store of the table and every
//! summary without a root store rooted there, and then:
//!
//! 1. every summary that reads the table as a dimension reads `ΔX_T` off
//!    its store's runs and retracts the tuples the group joins, while the
//!    stores still hold the old rows;
//! 2. every store folds its runs, whichever role its readers give it;
//! 3. every summary rooted at the table folds its runs into its `V` — a
//!    summary with a root store the runs its store folded;
//! 4. every dimension reader inserts the same tuples under the new rows.
//!
//! So a table group is one grouping, one fold per store and one per
//! subscriber.
//!
//! The whole batch runs on the calling thread and stays open behind one
//! handle, [`PreparedBatch`], until the caller commits it or rolls it
//! back; dropping the handle rolls it back. What a fold can still raise
//! comes from a change the door admits but the sources could not have
//! sent — a count driven below zero, a second tuple under a key value a
//! keyed store holds, a group of a summary without `X_{R₀}` that no
//! longer joins — or from a fault (DESIGN §6a). A store kernel failing
//! rejects the batch: the stores and every summary are rolled back. A
//! summary failing — an error or a panic — is rolled back alone and sits
//! out the rest of the batch; the caller decides whether that rejects the
//! batch or quarantines the summary.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

use md_relation::{ChangeRef, RelationError, TableId};

use crate::engine::{reject, SummaryEngine};
use crate::error::{MaintainError, Result};
use crate::registry::{occurrences, ConsumerKey, StoreRegistry};

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
    /// rolled back. On `Err` — a change its table does not admit, a store
    /// kernel failed, or a batch is already open — nothing of the batch
    /// remains anywhere.
    pub fn prepare_batch<'r, 'e>(
        &'r mut self,
        groups: &[(TableId, &[ChangeRef<'_>])],
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
        // The door: the first change its table does not admit rejects the
        // batch before anything is opened.
        let catalog = self.catalog();
        for &(table, changes) in groups {
            let refused = |i, e: RelationError| reject(catalog, table, i, e.into());
            catalog.def(table).map_err(|e| refused(None, e))?;
            for (i, &change) in changes.iter().enumerate() {
                catalog
                    .admit(table, change)
                    .map_err(|e| refused(Some(i), e))?;
            }
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

    /// One table group: grouped once for every store of `table` behind
    /// `lsn` and every summary without a root store rooted there, then
    /// folded in the four steps of the module's docs. A store's refusal
    /// rejects the batch; a summary's fold fails that summary alone.
    fn prepare_group(
        &mut self,
        table: TableId,
        changes: &[ChangeRef<'_>],
        lsn: u64,
        subs: &mut [Subscriber<'_>],
    ) -> Result<()> {
        let rooted = |s: &Subscriber<'_>| s.engine.plan().graph.root() == table;
        let reads = |s: &Subscriber<'_>| s.engine.plan().view.tables.contains(&table);
        let dim = |s: &Subscriber<'_>| reads(s) && !rooted(s);
        let stores = self.stores_of(table, lsn);
        if stores.is_empty() && !subs.iter().any(reads) {
            return Ok(());
        }
        let nanos = self.grouping_nanos(table);
        let mut grouping = std::mem::take(&mut self.grouping);
        let def = self.catalog().def(table)?;
        let started = nanos.is_enabled().then(Instant::now);
        let span = self
            .obs()
            .span("maintain.grouping")
            .field("table", def.name.as_str());
        let omitted =
            |s: &Subscriber<'_>| rooted(s) && s.alive() && s.engine.root_store().is_none();
        let keys: Vec<ConsumerKey<'_>> = (stores.iter().map(|&id| self.consumer_key(id)))
            .chain(
                subs.iter()
                    .filter(|s| omitted(s))
                    .map(|s| s.engine.root_key()),
            )
            .collect();
        let grouped = grouping.group(&keys, occurrences(changes));
        let (occurrences, fine_runs, distinct, consumers) = grouped.shape();
        drop(
            span.field("occurrences", occurrences)
                .field("fine_runs", fine_runs)
                .field("keys", distinct)
                .field("consumers", consumers),
        );
        if let Some(started) = started {
            nanos.observe(started.elapsed().as_nanos() as u64);
        }
        drop(keys);
        // The runs of the store a summary reads `table` through.
        let store_runs = |engine: &SummaryEngine| {
            let id = engine.store_of(table)?;
            (stores.iter().position(|&s| s == id)).map(|k| grouped.batch(k))
        };

        let registry = &*self;
        for sub in subs.iter_mut().filter(|s| dim(s)) {
            sub.step(|engine| engine.dim_retract(table, changes, store_runs(engine), registry));
        }
        let folded = (stores.iter().enumerate())
            .try_for_each(|(k, &id)| self.fold_store(id, &grouped.batch(k)));
        if folded.is_ok() {
            let registry = &*self;
            let mut own = stores.len()..consumers;
            for sub in subs.iter_mut().filter(|s| rooted(s)) {
                let batch = match sub.engine.root_store() {
                    Some(_) => store_runs(sub.engine),
                    None if sub.alive() => own.next().map(|k| grouped.batch(k)),
                    None => None,
                };
                sub.step(|engine| engine.fold_root_group(table, changes, batch, registry));
            }
            for sub in subs.iter_mut().filter(|s| dim(s)) {
                sub.step(|engine| engine.dim_insert(table, registry));
            }
        }
        drop(grouped);
        self.grouping = grouping;
        folded
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
