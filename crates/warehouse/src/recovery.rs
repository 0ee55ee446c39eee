//! Crash recovery, and the log pass it shares with quarantine repair:
//! one streaming pass over the log's frames verifies each frame, advances
//! the per-table sequence numbers, and — when some engine in scope has yet
//! to commit the frame — decodes it and applies it right away as a batch
//! of its own, into the stores that have yet to hold it and the engines
//! that have yet to commit it, before reading the next. A frame that no
//! longer applies becomes a [`DeadLetter`] — unless crash recovery runs
//! under quarantine and only some summaries failed it: then, as the live
//! batch did, the stores and the healthy summaries commit it and each
//! failed summary is quarantined behind it. What the pass holds in memory
//! is one frame's changes, whatever the length of the log.

use std::collections::BTreeMap;
use std::time::Instant;

use md_maintain::{FrameCursor, MaintainError, StoreRegistry, SummaryEngine, Wal};
use md_obs::Obs;
use md_relation::{Catalog, Change, ChangeRef, TableId};

use crate::builder::WarehouseBuilder;
use crate::error::Result;
use crate::quarantine::QuarantineEntry;
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

/// What one [`Warehouse::replay_log`] did.
#[derive(Debug, Default)]
pub(crate) struct LogPass {
    /// Valid frames walked.
    pub(crate) frames: u64,
    /// Bytes those frames occupy.
    pub(crate) bytes: u64,
    /// Frames whose changes were decoded and applied; the rest were
    /// verified and stepped over.
    pub(crate) decoded: u64,
    /// (frame, engine) applications that took effect.
    pub(crate) applied: usize,
    /// Wall time spent stepping over frames: the CRC and the skip walk of
    /// every frame, and the CRC and header of a decoded one.
    pub(crate) walk_ns: u64,
    /// Wall time spent building decoded frames' changes.
    pub(crate) decode_ns: u64,
    /// Wall time spent applying decoded frames (prepare, then commit or
    /// roll back and dead-letter).
    pub(crate) apply_ns: u64,
    /// One letter per decoded frame that no longer applies, in log order.
    pub(crate) letters: Vec<DeadLetter>,
    /// The summaries a frame quarantined, in log order (`isolate` only).
    pub(crate) quarantined: Vec<(String, QuarantineEntry)>,
}

impl WarehouseBuilder {
    /// Crash recovery under this configuration: restores the latest
    /// [`Warehouse::save`] image and replays the change-log suffix it has
    /// not seen — every logged batch whose LSN exceeds the corresponding
    /// engine's committed mark. Replay is idempotent (committed batches
    /// are skipped per engine), tolerates a torn tail write in the log,
    /// and routes any batch that no longer applies to the dead-letter
    /// store rather than aborting, so a recovered warehouse always comes
    /// up serving. Under [`Self::quarantine`] a batch that only some
    /// summaries fail is what it was live: the rest commit it, and each
    /// failed summary is quarantined behind it and sits out the frames
    /// after it.
    ///
    /// The log is read once, one frame at a time: every frame is verified
    /// and advances the per-table sequence numbers, a frame some restored
    /// engine has yet to commit is decoded and applied before the next is
    /// read, and where that one pass ends is the valid length new batches
    /// append after. Memory beyond the restored state and the log's own
    /// copy is one frame's changes.
    pub fn recover(
        self,
        catalog: &Catalog,
        snapshot: &[u8],
        wal_bytes: &[u8],
    ) -> Result<Warehouse> {
        let obs = Obs::new(self.obs);
        let _span = obs.span("warehouse.recover");
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
            self.build_observed(catalog, obs.clone())
        } else {
            let _restore = obs.span("recover.restore");
            self.restore_observed(catalog, snapshot, obs.clone())?
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
            let mut cursor = FrameCursor::new(wal_bytes)?;
            let span = obs.span("recover.log");
            let pass = Warehouse::replay_log(
                &mut wh.stores,
                &mut wh.engines,
                &mut wh.table_seq,
                &wh.catalog,
                &mut cursor,
                None,
                wh.config.quarantine,
            );
            wh.sched.recovery_frames_scanned.add(pass.frames);
            wh.sched.recovery_frames_replayed.add(pass.decoded);
            wh.sched.recovery_log_bytes_scanned.add(pass.bytes);
            wh.sched.recovery_walk_nanos.add(pass.walk_ns);
            wh.sched.recovery_decode_nanos.add(pass.decode_ns);
            wh.sched.recovery_apply_nanos.add(pass.apply_ns);
            drop(
                span.field("frames", pass.frames)
                    .field("bytes", pass.bytes)
                    .field("decoded", pass.decoded)
                    .field("skipped", pass.frames - pass.decoded)
                    .field("applied", pass.applied)
                    .field("walk_ns", pass.walk_ns)
                    .field("decode_ns", pass.decode_ns)
                    .field("apply_ns", pass.apply_ns),
            );
            // A frame that no longer applies is rolled back everywhere and
            // goes to the dead-letter store for the operator.
            for letter in pass.letters {
                wh.dead_letters.extend_sorted(vec![letter]);
            }
            for (name, entry) in pass.quarantined {
                wh.quarantine.insert(name, entry);
                wh.sched.quarantine_entered.incr();
            }
            // A torn tail is the end of the log, but a damaged frame with
            // valid frames behind it is corruption of committed batches:
            // they are not replayed, and the next append truncates them.
            let stranded = cursor.frames_past_the_stop();
            if stranded > 0 {
                warnings.push(format!(
                    "change log is corrupt at byte {}: {stranded} valid frame(s) follow the \
                     damaged frame and were not replayed; the next batch truncates them",
                    cursor.position()
                ));
            }
            // Adopt the surviving log where the pass ended, so new batches
            // append after its valid prefix (any torn tail is truncated on
            // the next append).
            wh.wal = Wal::adopt(cursor);
        }
        wh.recovery_warnings = warnings;
        Ok(wh)
    }
}

impl Warehouse {
    /// The one log pass, shared by crash recovery (`only` = `None`) and
    /// quarantine repair (`only` = the repaired summary): walks the rest
    /// of the log under `cursor`, frame by frame. Every valid frame
    /// advances its table's sequence number. A frame some engine in scope
    /// has yet to commit is decoded and applied, before the next frame is
    /// read, as a batch of its own, into every store of its table behind
    /// its LSN and every engine in scope that reads the table and is
    /// behind it. In repair the engine in scope is the repaired one, a
    /// plan that keeps no root store, and only for its root — its rebuild
    /// from the stores, which kept folding while it was out, brought it
    /// level with them on every other table; those stores are current, so
    /// the frame reaches none of them. Every other frame is verified and
    /// stepped over, never built. A frame that no longer applies is rolled
    /// back everywhere and becomes a dead letter — unless `isolate` (crash
    /// recovery under quarantine) and the stores took it: then the
    /// summaries that did not fail commit it, and each that did is
    /// quarantined behind the frame's LSN, from its offset, and sits out
    /// the rest of the pass.
    ///
    /// Takes the fields it works on rather than `self`, so that repair can
    /// walk the warehouse's own log in place.
    pub(crate) fn replay_log(
        stores: &mut StoreRegistry,
        engines: &mut BTreeMap<String, SummaryEngine>,
        table_seq: &mut BTreeMap<TableId, u64>,
        catalog: &Catalog,
        cursor: &mut FrameCursor<'_>,
        only: Option<&str>,
        isolate: bool,
    ) -> LogPass {
        let start = cursor.position();
        let mut pass = LogPass::default();
        // The clock is read where the pass turns from stepping over frames
        // to decoding one, and around each applied frame: never per
        // skipped frame.
        let mut lap = Instant::now();
        let mut split = |into: &mut u64| {
            let now = Instant::now();
            *into += u64::try_from((now - lap).as_nanos()).unwrap_or(u64::MAX);
            lap = now;
        };
        let wants = |stores: &StoreRegistry,
                     sitting_out: &[(String, _)],
                     name: &str,
                     engine: &SummaryEngine,
                     table,
                     lsn| {
            engine.plan().view.tables.contains(&table)
                && lsn > engine.applied_lsn(table, stores)
                && only.is_none_or(|o| o == name && engine.store_of(table).is_none())
                && !sitting_out.iter().any(|(n, _)| n == name)
        };
        loop {
            let offset = cursor.position();
            let next = cursor.next_frame(|table, lsn| {
                let mut all = engines.iter();
                let out = &pass.quarantined;
                let wanted = all.any(|(name, e)| wants(stores, out, name, e, table, lsn));
                if wanted {
                    split(&mut pass.walk_ns);
                }
                wanted
            });
            let Some(frame) = next else { break };
            pass.frames += 1;
            let seq = table_seq.entry(frame.table).or_insert(0);
            *seq = (*seq).max(frame.lsn);
            let Some(changes) = frame.changes else {
                continue;
            };
            split(&mut pass.decode_ns);
            pass.decoded += 1;
            let (table, lsn) = (frame.table, frame.lsn);
            let lent: Vec<ChangeRef<'_>> = changes.iter().map(ChangeRef::from).collect();
            let group = [(table, lent.as_slice())];
            let subscribers: Vec<&mut SummaryEngine> = (engines.iter_mut())
                .filter(|(name, engine)| wants(stores, &pass.quarantined, name, engine, table, lsn))
                .map(|(_, engine)| engine)
                .collect();
            let (name, e) = match stores.prepare_batch(&group, |_| lsn, subscribers) {
                Err(e) => (None, e),
                Ok(prepared) => {
                    let failed = prepared.failures().next();
                    match failed.map(|(engine, e)| (engine.name().to_owned(), e.clone())) {
                        Some((name, e)) if !isolate => {
                            prepared.rollback();
                            (Some(name), e)
                        }
                        _ => {
                            for (engine, cause) in prepared.failures() {
                                let entry =
                                    QuarantineEntry::new(engine, cause, &[(table, lsn)], offset);
                                pass.quarantined.push((engine.name().to_owned(), entry));
                            }
                            pass.applied += prepared.commit(&[(table, lsn)]);
                            split(&mut pass.apply_ns);
                            continue;
                        }
                    }
                }
            };
            let into = name
                .map(|n| format!(" into summary '{n}'"))
                .unwrap_or_default();
            let reason = format!("replay of logged batch lsn {lsn}{into} failed: {e}");
            drop(lent);
            pass.letters.push(DeadLetter::rejected(
                catalog, table, lsn, changes, &e, reason,
            ));
            split(&mut pass.apply_ns);
        }
        split(&mut pass.walk_ns);
        pass.bytes = (cursor.position() - start) as u64;
        pass
    }

    /// Warnings the recovery path noticed (a missing snapshot or change
    /// log, or a damaged frame with valid frames behind it); empty for a
    /// warehouse that was built or restored normally.
    pub fn recovery_warnings(&self) -> &[String] {
        &self.recovery_warnings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChangeBatch;
    use md_relation::row;
    use md_workload::{generate_retail, sale_changes, views, Contracts, RetailParams, UpdateMix};

    fn counter(wh: &Warehouse, name: &str) -> u64 {
        wh.obs.counter(name, &[]).get()
    }

    /// Checkpoint after 7 of 8 batches: recovery verifies all eight
    /// frames, builds one, and comes up where the live warehouse is — log
    /// position included. With the last frame torn at any byte it comes up
    /// at the checkpoint, and re-applying the lost batch heals the log to
    /// the live image.
    #[test]
    fn recovery_walks_the_log_once_and_replays_only_what_the_snapshot_lacks() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
        wh.add_summary_sql(views::DAILY_PRODUCT_SQL, &db).unwrap();
        let mut checkpoint = Vec::new();
        let mut last_frame = 0;
        let mut last_batch = ChangeBatch::new();
        for b in 0..8 {
            let changes = sale_changes(&mut db, &schema, 3, UpdateMix::balanced(), 60 + b);
            last_batch = ChangeBatch::single(schema.sale, changes);
            last_frame = wh.wal_bytes().unwrap().len();
            wh.apply_batch(&last_batch).unwrap();
            if b == 6 {
                checkpoint = wh.save().unwrap();
            }
        }
        let live = wh.save().unwrap();
        let log = wh.wal_bytes().unwrap().to_vec();

        let mut recovered = Warehouse::builder()
            .recover(db.catalog(), &checkpoint, &log)
            .unwrap();
        assert_eq!(counter(&recovered, "recovery.frames_scanned"), 8);
        assert_eq!(counter(&recovered, "recovery.frames_replayed"), 1);
        assert_eq!(
            counter(&recovered, "recovery.log_bytes_scanned"),
            log.len() as u64 - 5
        );
        assert!(recovered.dead_letters().is_empty());
        assert_eq!(recovered.save().unwrap(), live);
        assert_eq!(recovered.wal.valid_len(), log.len());
        // The next batch appends where the scan ended.
        let next = ChangeBatch::single(
            schema.sale,
            sale_changes(&mut db, &schema, 3, UpdateMix::balanced(), 99),
        );
        wh.apply_batch(&next).unwrap();
        recovered.apply_batch(&next).unwrap();
        assert_eq!(recovered.wal_bytes(), wh.wal_bytes());
        assert_eq!(recovered.save().unwrap(), wh.save().unwrap());

        for cut in last_frame..log.len() {
            let mut torn = Warehouse::builder()
                .recover(db.catalog(), &checkpoint, &log[..cut])
                .unwrap();
            assert_eq!(counter(&torn, "recovery.frames_scanned"), 7, "cut {cut}");
            assert_eq!(counter(&torn, "recovery.frames_replayed"), 0, "cut {cut}");
            assert_eq!(torn.wal.valid_len(), last_frame, "cut {cut}");
            assert_eq!(torn.wal_bytes().unwrap(), &log[..cut], "cut {cut}");
            assert_eq!(torn.save().unwrap(), checkpoint, "cut {cut}");
            torn.apply_batch(&last_batch).unwrap();
            assert_eq!(torn.wal_bytes().unwrap(), log, "cut {cut}");
            assert_eq!(torn.save().unwrap(), live, "cut {cut}");
        }
    }

    /// A damaged frame with committed frames behind it is corruption, not a
    /// torn tail: recovery still comes up, at the checkpoint, and says at
    /// which byte the log broke and how many valid frames it could not
    /// reach. A torn last frame, cut anywhere, draws no warning.
    #[test]
    fn a_damaged_frame_before_valid_ones_is_reported_and_a_torn_tail_is_not() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
        let mut checkpoint = Vec::new();
        let mut starts = Vec::new();
        for b in 0..8 {
            let changes = sale_changes(&mut db, &schema, 3, UpdateMix::balanced(), 60 + b);
            starts.push(wh.wal_bytes().unwrap().len());
            wh.apply_batch(&ChangeBatch::single(schema.sale, changes))
                .unwrap();
            if b == 6 {
                checkpoint = wh.save().unwrap();
            }
        }
        let log = wh.wal_bytes().unwrap().to_vec();
        let mut damaged = log.clone();
        damaged[starts[1] + 9] ^= 0x10;
        let recovered = Warehouse::builder()
            .recover(db.catalog(), &checkpoint, &damaged)
            .unwrap();
        assert_eq!(recovered.wal.valid_len(), starts[1]);
        assert_eq!(recovered.save().unwrap(), checkpoint);
        assert!(recovered.dead_letters().is_empty());
        assert_eq!(
            recovered.recovery_warnings(),
            [format!(
                "change log is corrupt at byte {}: 6 valid frame(s) follow the damaged \
                 frame and were not replayed; the next batch truncates them",
                starts[1]
            )]
        );
        for cut in starts[7]..log.len() {
            let torn = Warehouse::builder()
                .recover(db.catalog(), &checkpoint, &log[..cut])
                .unwrap();
            assert!(torn.recovery_warnings().is_empty(), "cut {cut}");
        }
    }

    /// A frame no restored engine reads is verified, counted and moves its
    /// table's sequence number, and is not built.
    #[test]
    fn frames_no_engine_reads_advance_the_sequence_numbers_unbuilt() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        // product_sales_max references only `sale`.
        wh.add_summary_sql(views::PRODUCT_SALES_MAX_SQL, &db)
            .unwrap();
        let genesis = wh.save().unwrap();
        let next_store = db.table(schema.store).len() as i64 + 1;
        let store = db
            .insert(schema.store, row![next_store, "x st", "city-x", "us", "m"])
            .unwrap();
        let mut batch = ChangeBatch::single(schema.store, vec![store]);
        batch.extend(
            schema.sale,
            sale_changes(&mut db, &schema, 4, UpdateMix::balanced(), 5),
        );
        wh.apply_batch(&batch).unwrap();

        let recovered = Warehouse::builder()
            .recover(db.catalog(), &genesis, wh.wal_bytes().unwrap())
            .unwrap();
        assert_eq!(counter(&recovered, "recovery.frames_scanned"), 2);
        assert_eq!(counter(&recovered, "recovery.frames_replayed"), 1);
        assert_eq!(recovered.table_seq(schema.store), 1);
        assert_eq!(recovered.table_seq(schema.sale), 1);
        assert_eq!(recovered.save().unwrap(), wh.save().unwrap());
    }

    #[test]
    fn recovery_records_its_spans() {
        let (mut db, schema) = generate_retail(RetailParams::tiny(), Contracts::Tight);
        let mut wh = Warehouse::new(db.catalog());
        wh.add_summary_sql(views::PRODUCT_SALES_SQL, &db).unwrap();
        let checkpoint = wh.save().unwrap();
        let changes = sale_changes(&mut db, &schema, 5, UpdateMix::balanced(), 1);
        wh.apply_batch(&ChangeBatch::single(schema.sale, changes))
            .unwrap();

        let recovered = Warehouse::builder()
            .observe(md_obs::ObsConfig::full())
            .recover(db.catalog(), &checkpoint, wh.wal_bytes().unwrap())
            .unwrap();
        let events = recovered.obs.tracer().events();
        let find = |name: &str| {
            events
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("no '{name}' span"))
        };
        let outer = find("warehouse.recover");
        for name in ["recover.restore", "recover.log"] {
            let inner = find(name);
            assert!(
                inner.start_ns >= outer.start_ns
                    && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns,
                "'{name}' is not inside warehouse.recover"
            );
        }
        for gone in ["recover.scan", "recover.replay"] {
            assert!(events.iter().all(|e| e.name != gone), "a '{gone}' span");
        }
        let field = |key: &str| {
            let log = find("recover.log");
            log.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
        };
        let log_bytes = wh.wal_bytes().unwrap().len() as u64 - 5;
        assert_eq!(field("frames"), Some(&md_obs::FieldValue::U64(1)));
        assert_eq!(field("bytes"), Some(&md_obs::FieldValue::U64(log_bytes)));
        assert_eq!(field("decoded"), Some(&md_obs::FieldValue::U64(1)));
        assert_eq!(field("applied"), Some(&md_obs::FieldValue::U64(1)));
        assert_eq!(field("skipped"), Some(&md_obs::FieldValue::U64(0)));
        // The pass's time, split three ways, within the span and summing
        // to no more than it.
        let log = find("recover.log");
        let mut split = 0;
        for key in ["walk_ns", "decode_ns", "apply_ns"] {
            match field(key) {
                Some(md_obs::FieldValue::U64(ns)) => split += ns,
                other => panic!("'{key}' is {other:?}"),
            }
        }
        assert!(
            split > 0 && split <= log.dur_ns,
            "{split} of {}",
            log.dur_ns
        );
        assert!(matches!(field("apply_ns"), Some(md_obs::FieldValue::U64(ns)) if *ns > 0));
        assert_eq!(
            counter(&recovered, "recovery.walk_nanos")
                + counter(&recovered, "recovery.decode_nanos")
                + counter(&recovered, "recovery.apply_nanos"),
            split
        );
    }
}
