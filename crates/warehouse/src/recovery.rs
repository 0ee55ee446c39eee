//! Crash recovery, and the one replay routine it shares with quarantine
//! repair: logged records go through the idempotent
//! [`md_maintain::MaintenanceEngine::apply_at`], and a record that no
//! longer applies becomes a [`DeadLetter`].

use md_maintain::{MaintainError, Wal, WalRecord};
use md_relation::{Catalog, Change, TableId};

use crate::builder::WarehouseBuilder;
use crate::error::Result;
use crate::warehouse::{DeadLetter, Warehouse};

impl DeadLetter {
    /// The one place a rejected change group becomes a dead letter. The
    /// offending change is named only on the group of the table `cause`
    /// attributes the failure to.
    pub(crate) fn rejected(
        catalog: &Catalog,
        table: TableId,
        lsn: u64,
        changes: Vec<Change>,
        cause: &MaintainError,
        reason: String,
    ) -> Self {
        let change_index = match cause {
            MaintainError::Rejected {
                table: failed,
                change_index,
                ..
            } if catalog.def(table).is_ok_and(|d| d.name == *failed) => *change_index,
            _ => None,
        };
        DeadLetter {
            table,
            lsn,
            changes,
            change_index,
            reason,
        }
    }
}

impl WarehouseBuilder {
    /// Crash recovery under this configuration: restores the latest
    /// [`Warehouse::save`] image and replays the change-log suffix it has
    /// not seen — every logged batch whose LSN exceeds the corresponding
    /// engine's committed mark. Replay is idempotent (committed batches
    /// are skipped per engine), tolerates a torn tail write in the log,
    /// and routes any batch that no longer applies to the dead-letter
    /// store rather than aborting, so a recovered warehouse always comes
    /// up serving.
    pub fn recover(
        self,
        catalog: &Catalog,
        snapshot: &[u8],
        wal_bytes: &[u8],
    ) -> Result<Warehouse> {
        let mut warnings: Vec<String> = Vec::new();
        // A missing/empty snapshot with a surviving log is a valid cold
        // start: replay from genesis. (The sequence numbers advance from
        // the log; summaries registered later initial-load at the
        // post-replay state.)
        let mut wh = if snapshot.is_empty() {
            warnings.push(
                "snapshot image is missing or empty; replaying the change log from genesis"
                    .to_owned(),
            );
            self.build(catalog)
        } else {
            self.restore(catalog, snapshot)?
        };
        // The reverse asymmetry — a snapshot but no log — silently loses
        // every batch committed after the snapshot. Come up serving, but
        // say so.
        if wal_bytes.is_empty() && !snapshot.is_empty() {
            warnings.push(
                "change log is missing or empty but a snapshot is present; batches \
                 committed after the snapshot cannot be replayed"
                    .to_owned(),
            );
        }
        if !wal_bytes.is_empty() {
            // Engines that already replayed a record keep it (each failed
            // engine rolled itself back); a record that no longer applies
            // goes to the dead-letter store for the operator.
            let (_, letters) = wh.replay(Wal::replay(wal_bytes)?.0, None);
            for letter in letters {
                wh.dead_letters.extend_sorted(vec![letter]);
            }
            // Adopt the surviving log so new batches append after its
            // valid prefix (any torn tail is truncated on the next append).
            wh.wal = Wal::open(wal_bytes.to_vec())?;
        }
        wh.recovery_warnings = warnings;
        Ok(wh)
    }
}

impl Warehouse {
    /// The one replay routine, shared by crash recovery (`only` = `None`:
    /// every engine) and quarantine repair (`only` = the repaired
    /// summary): feeds logged records, in log order, through the
    /// idempotent [`md_maintain::MaintenanceEngine::apply_at`], which skips
    /// what an engine already committed. Returns how many (record, engine)
    /// applications took effect, and one dead letter per record that no
    /// longer applies — the failed engine rolled itself back and the
    /// record's remaining engines are not attempted.
    pub(crate) fn replay(
        &mut self,
        records: Vec<WalRecord>,
        only: Option<&str>,
    ) -> (usize, Vec<DeadLetter>) {
        let mut applied = 0usize;
        let mut letters: Vec<DeadLetter> = Vec::new();
        for rec in records {
            let seq = self.table_seq.entry(rec.table).or_insert(0);
            *seq = (*seq).max(rec.lsn);
            let mut failure: Option<(&str, MaintainError)> = None;
            for (name, engine) in &mut self.engines {
                if only.is_some_and(|o| o != name)
                    || !engine.plan().view.tables.contains(&rec.table)
                {
                    continue;
                }
                match engine.apply_at(rec.table, &rec.changes, rec.lsn) {
                    Ok(took_effect) => applied += usize::from(took_effect),
                    Err(e) => {
                        failure = Some((name, e));
                        break;
                    }
                }
            }
            if let Some((name, e)) = failure {
                let reason = format!(
                    "replay of logged batch lsn {} into summary '{name}' failed: {e}",
                    rec.lsn
                );
                letters.push(DeadLetter::rejected(
                    &self.catalog,
                    rec.table,
                    rec.lsn,
                    rec.changes,
                    &e,
                    reason,
                ));
            }
        }
        (applied, letters)
    }

    /// Warnings the recovery path noticed (missing snapshot or change
    /// log); empty for a warehouse that was built or restored normally.
    pub fn recovery_warnings(&self) -> &[String] {
        &self.recovery_warnings
    }
}
