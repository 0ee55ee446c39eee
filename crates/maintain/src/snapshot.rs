//! Snapshot & restore of engine state.
//!
//! The premise of the paper is that the sources are unreachable — so the
//! warehouse's state (the summary view with its value counts and the
//! auxiliary views) must survive process restarts *without* an
//! initial reload. [`SummaryEngine::snapshot`] serializes one summary and
//! the stores it reads that no earlier section of the same image holds
//! into a versioned binary image; [`SummaryEngine::restore`] rebuilds an
//! identical engine from it, given the same derived plan, sharing the
//! stores that earlier images of the same restore filled. A plan
//! fingerprint in the header (FNV-1a over the plan's canonical bytes,
//! decided in `canon.rs`) rejects images taken under a different view
//! definition, contracts or catalog. The image is state and nothing else:
//! no work counter is written, so two engines in one state save the same
//! bytes whatever their history.

use std::collections::HashSet;
use std::fmt;

use md_core::DerivedPlan;
use md_relation::{sort_by_row, Catalog, Decoder, Encoder, GroupKey, TableId};

use crate::canon::plan_fingerprint;
use crate::engine::SummaryEngine;
use crate::error::{MaintainError, Result};
use crate::exact::ExactSum;
use crate::registry::{StoreId, StoreRegistry};
use crate::store::AuxGroupState;
use crate::summary::{AggState, GroupState, SummaryStore, ValueCounts};

/// Magic bytes opening every engine snapshot.
pub(crate) const ENGINE_MAGIC: &[u8; 4] = b"MDWE";
/// Snapshot format version. v2 added the per-table committed-LSN vector
/// that recovery compares against the change log; v3 holds
/// `MIN`/`MAX`/`DISTINCT` states as value counts and drops the group
/// index they made unnecessary; v4 holds every `SUM`/`AVG` state and
/// auxiliary sum as an exact sum ([`ExactSum::encode`]) and drops the
/// `groups_recomputed` counter; v5 drops the other four work counters and
/// writes a store only in the section of the first summary reading it; v6
/// fingerprints the plan by FNV-1a over its canonical bytes and its tables'
/// column types, where v5 hashed its `Debug` text with std's unspecified
/// hasher; v7 drops the per-summary LSN vector: each store section carries
/// its store's LSN, and only a plan without `X_{R₀}` writes its root's; v8
/// spells group keys, counted values and the fingerprint's literals as the
/// change log spells rows and values, where v7 spelled them fixed-width.
/// The framing stays fixed-width, so every older image is refused by its
/// version byte.
pub const SNAPSHOT_VERSION: u8 = 8;

impl SummaryEngine {
    /// Serializes this summary's state — its summary, and those of its
    /// auxiliary stores in `registry` that `written` does not hold yet,
    /// which it then does, each with its LSN — into a self-describing
    /// binary image. An image of several summaries passes one `written` to
    /// each in name order, so a shared store is written once, by its first
    /// reader; a standalone image passes an empty one.
    pub fn snapshot(
        &self,
        registry: &StoreRegistry,
        written: &mut HashSet<StoreId>,
    ) -> Result<Vec<u8>> {
        self.encode(registry, written, self.summary())
    }

    /// The image of this summary as a rebuild from its stores would leave
    /// it (see [`SummaryEngine::rebuild_summary`]): how a quarantined
    /// summary is saved, so that no image holds a summary behind the
    /// stores it shares and a frame recovery replays reaches each store
    /// once.
    pub fn snapshot_rebuilt(
        &self,
        registry: &StoreRegistry,
        written: &mut HashSet<StoreId>,
    ) -> Result<Vec<u8>> {
        self.encode(registry, written, &self.reconstructed(registry)?)
    }

    fn encode(
        &self,
        registry: &StoreRegistry,
        written: &mut HashSet<StoreId>,
        summary: &SummaryStore,
    ) -> Result<Vec<u8>> {
        let mut e = Encoder::new();
        e.put_u8(ENGINE_MAGIC[0]);
        e.put_u8(ENGINE_MAGIC[1]);
        e.put_u8(ENGINE_MAGIC[2]);
        e.put_u8(ENGINE_MAGIC[3]);
        e.put_u8(SNAPSHOT_VERSION);
        e.put_u64(plan_fingerprint(self.plan(), registry.catalog())?);

        // The batches this image already contains: recovery replays only
        // change-log records past them. Of the root of a plan without
        // `X_{R₀}`, this summary's own mark; of every other table, the
        // mark of its store's section.
        let root = self.plan().graph.root();
        if self.store_of(root).is_none() {
            e.put_u64(self.applied_lsn(root, registry));
        }

        // The auxiliary stores no earlier section holds, ordered by table
        // id. Group keys are sorted so the image is *canonical*: the same
        // logical state always serializes to the same bytes, regardless
        // of hash-map history.
        let stores: Vec<_> = self
            .store_ids()
            .iter()
            .filter(|(_, id)| written.insert(*id))
            .map(|(_, id)| (registry.store(*id), registry.lsn(*id)))
            .collect();
        e.put_u32(stores.len() as u32);
        for (store, lsn) in stores {
            e.put_u32(store.def().table.0 as u32);
            e.put_u64(lsn);
            e.put_u32(store.len() as u32);
            let mut groups: Vec<_> = store.iter().collect();
            sort_by_row(&mut groups, |(key, _)| key.values());
            for (key, state) in groups {
                e.put_row(key.values());
                e.put_u32(state.sums.len() as u32);
                for sum in &state.sums {
                    sum.encode(&mut e);
                }
                e.put_u64(state.cnt);
            }
        }

        // Summary groups, in key order (canonical, as above).
        e.put_u32(summary.len() as u32);
        let mut summary_groups: Vec<_> = summary.iter().collect();
        sort_by_row(&mut summary_groups, |(key, _)| key.values());
        for (key, state) in summary_groups {
            e.put_row(key.values());
            e.put_u64(state.hidden_cnt);
            e.put_u32(state.aggs.len() as u32);
            for agg in &state.aggs {
                encode_agg_state(&mut e, agg);
            }
        }
        Ok(e.into_bytes())
    }

    /// Rebuilds a summary engine from an image into `registry`. `plan` and
    /// `catalog` must match the ones the image was taken under (checked
    /// via the plan fingerprint). Only a canonical image is accepted — one
    /// [`Self::snapshot`] could have written: the plan's auxiliary views
    /// that no earlier image of the same restore filled, in table order,
    /// and each auxiliary view and the summary in strictly increasing key
    /// order, so that the engine restored re-encodes to the very bytes it
    /// came from.
    ///
    /// A store the registry does not hold yet is filled from the image, at
    /// its section's LSN; a store an earlier image filled is shared and has
    /// no section here. Either way the summary holds the batches its
    /// stores hold.
    pub fn restore(
        plan: DerivedPlan,
        catalog: &Catalog,
        bytes: &[u8],
        registry: &mut StoreRegistry,
    ) -> Result<Self> {
        let mut d = Decoder::new(bytes);
        let magic = [
            d.take_u8().map_err(MaintainError::from)?,
            d.take_u8().map_err(MaintainError::from)?,
            d.take_u8().map_err(MaintainError::from)?,
            d.take_u8().map_err(MaintainError::from)?,
        ];
        if &magic != ENGINE_MAGIC {
            return Err(MaintainError::InvariantViolation(
                "not an engine snapshot (bad magic)".into(),
            ));
        }
        let version = d.take_u8().map_err(MaintainError::from)?;
        if version != SNAPSHOT_VERSION {
            return Err(MaintainError::InvariantViolation(format!(
                "unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        let fp = d.take_u64().map_err(MaintainError::from)?;
        if fp != plan_fingerprint(&plan, catalog)? {
            return Err(MaintainError::InvariantViolation(
                "snapshot was taken under a different view definition, contracts or \
                 catalog (plan fingerprint mismatch)"
                    .into(),
            ));
        }

        let mut engine = SummaryEngine::new(plan, catalog, registry)?;

        if engine.store_of(engine.plan().graph.root()).is_none() {
            engine.set_root_lsn(d.take_u64().map_err(MaintainError::from)?);
        }

        // The stores still waiting for their contents are this image's to
        // fill; the rest an earlier image of the same restore filled.
        let pending: Vec<(TableId, StoreId)> = engine
            .store_ids()
            .iter()
            .filter(|(_, id)| registry.is_pending(*id))
            .copied()
            .collect();
        let n_stores = d.take_u32().map_err(MaintainError::from)?;
        if n_stores as usize != pending.len() {
            return Err(MaintainError::InvariantViolation(format!(
                "corrupt snapshot: {n_stores} auxiliary views, the plan materializes {} no \
                 earlier summary holds",
                pending.len()
            )));
        }
        for (expected, id) in pending {
            let table = TableId(d.take_u32().map_err(MaintainError::from)? as usize);
            if table != expected {
                return Err(MaintainError::InvariantViolation(format!(
                    "corrupt snapshot: auxiliary data for {table} where the plan's next \
                     auxiliary view is {expected}"
                )));
            }
            let lsn = d.take_u64().map_err(MaintainError::from)?;
            let n_groups = d.take_u32().map_err(MaintainError::from)?;
            let room = room_for(n_groups, &d);
            let next_group = || -> Result<(GroupKey, AuxGroupState)> {
                let key = d.take_key().map_err(MaintainError::from)?;
                let n_sums = d.take_u32().map_err(MaintainError::from)?;
                let sums = (0..n_sums).map(|_| ExactSum::decode(&mut d));
                let sums = sums.collect::<Result<_>>()?;
                let cnt = d.take_u64().map_err(MaintainError::from)?;
                Ok((key, AuxGroupState { sums, cnt }))
            };
            registry.store_mut(id).bulk_fill(|store| {
                store.reserve(room);
                install_ascending(n_groups, "auxiliary view", next_group, |key, state| {
                    store.check_group(&key, &state)?;
                    store.install_group(key, state)
                })
            })?;
            registry.restored(id, lsn);
        }

        let n_summary = d.take_u32().map_err(MaintainError::from)?;
        let room = room_for(n_summary, &d);
        let next_group = || -> Result<(GroupKey, GroupState)> {
            let key = d.take_key().map_err(MaintainError::from)?;
            let hidden_cnt = d.take_u64().map_err(MaintainError::from)?;
            let n_aggs = d.take_u32().map_err(MaintainError::from)?;
            let aggs = (0..n_aggs).map(|_| decode_agg_state(&mut d));
            let aggs = aggs.collect::<Result<_>>()?;
            Ok((key, GroupState { aggs, hidden_cnt }))
        };
        let summary = engine.summary_mut();
        summary.reserve(room);
        install_ascending(n_summary, "summary", next_group, |key, state| {
            // The image is untrusted: a group of the wrong shape, or one
            // whose value counts do not add up, is refused rather than
            // served.
            summary.check_group(&key, &state)?;
            summary.install_group(key, state)
        })?;

        if !d.is_exhausted() {
            return Err(MaintainError::InvariantViolation(format!(
                "snapshot has {} trailing bytes",
                d.remaining()
            )));
        }
        Ok(engine)
    }
}

/// The fewest bytes an image spends on a group: a key's arity (a varint,
/// one byte for an empty key), an 8-byte count and the 4-byte number of
/// its sums (an auxiliary group) or of its aggregate states and an 8-byte
/// hidden count (a summary group): 1 + 8 + 4.
const MIN_GROUP_BYTES: usize = 13;

/// How many groups to make room for when a section announces `n`: no
/// more than the rest of the image can hold, so a forged count cannot
/// size the maps.
fn room_for(n: u32, d: &Decoder<'_>) -> usize {
    (n as usize).min(d.remaining() / MIN_GROUP_BYTES)
}

/// Decodes `n` entries with `next` and hands each to `install`, refusing
/// one whose key does not strictly follow the key before it — the order
/// [`SummaryEngine::snapshot`] writes, so a repeated key cannot
/// silently replace the entry it repeats. An entry is installed once its
/// successor has been checked against it: no key is cloned to remember it.
fn install_ascending<K: Ord + fmt::Display, V>(
    n: u32,
    section: &str,
    mut next: impl FnMut() -> Result<(K, V)>,
    mut install: impl FnMut(K, V) -> Result<()>,
) -> Result<()> {
    let mut held: Option<(K, V)> = None;
    for _ in 0..n {
        let (key, value) = next()?;
        if let Some((prev, prev_value)) = held.take() {
            if prev >= key {
                return Err(MaintainError::InvariantViolation(format!(
                    "corrupt snapshot: {section} key {key} does not follow {prev}"
                )));
            }
            install(prev, prev_value)?;
        }
        held = Some((key, value));
    }
    held.map_or(Ok(()), |(key, value)| install(key, value))
}

fn encode_agg_state(e: &mut Encoder, state: &AggState) {
    match state {
        AggState::Count => e.put_u8(0),
        AggState::Sum(sum) => {
            e.put_u8(1);
            sum.encode(e);
        }
        // In key order, which is the map's own: canonical.
        AggState::Values(counts) => {
            e.put_u8(2);
            e.put_u32(counts.len() as u32);
            for (value, n) in counts {
                e.put_value(value);
                e.put_u64(*n);
            }
        }
    }
}

fn decode_agg_state(d: &mut Decoder<'_>) -> Result<AggState> {
    Ok(match d.take_u8().map_err(MaintainError::from)? {
        0 => AggState::Count,
        1 => AggState::Sum(ExactSum::decode(d)?),
        2 => {
            // The length is untrusted; each entry consumes input, so a
            // lying prefix runs the decoder dry instead of allocating.
            let len = d.take_u32().map_err(MaintainError::from)?;
            let mut counts = ValueCounts::new();
            for _ in 0..len {
                let value = d.take_value().map_err(MaintainError::from)?;
                let n = d.take_u64().map_err(MaintainError::from)?;
                if counts
                    .last_key_value()
                    .is_some_and(|(last, _)| *last >= value)
                {
                    return Err(MaintainError::InvariantViolation(format!(
                        "corrupt snapshot: value counts out of key order at {value}"
                    )));
                }
                counts.insert(value, n);
            }
            AggState::Values(counts)
        }
        t => {
            return Err(MaintainError::InvariantViolation(format!(
                "corrupt snapshot: unknown aggregate-state tag {t}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_relation::Value;

    #[test]
    fn agg_state_round_trips() {
        let mut sum = ExactSum::default();
        sum.add(&Value::Double(12.5), 3).unwrap();
        let states = vec![
            AggState::Count,
            AggState::Sum(sum),
            AggState::Sum(ExactSum::default()),
            AggState::Values(ValueCounts::from([(Value::Int(3), 2), (Value::Int(9), 1)])),
        ];
        let mut e = Encoder::new();
        for s in &states {
            encode_agg_state(&mut e, s);
        }
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        for s in &states {
            assert_eq!(&decode_agg_state(&mut d).unwrap(), s);
        }
        assert!(d.is_exhausted());
    }

    #[test]
    fn value_counts_decode_in_strict_key_order_only() {
        let image = |entries: &[(i64, u64)], len: u32| {
            let mut e = Encoder::new();
            e.put_u8(2);
            e.put_u32(len);
            for (v, n) in entries {
                e.put_value(&Value::Int(*v));
                e.put_u64(*n);
            }
            e.into_bytes()
        };
        let decode = |bytes: &[u8]| decode_agg_state(&mut Decoder::new(bytes));
        assert!(decode(&image(&[(3, 2), (9, 1)], 2)).is_ok());
        for (what, bytes) in [
            ("duplicate key", image(&[(3, 2), (3, 1)], 2)),
            ("unsorted keys", image(&[(9, 1), (3, 2)], 2)),
            ("oversized length prefix", image(&[(3, 2)], u32::MAX)),
        ] {
            assert!(decode(&bytes).is_err(), "{what}");
        }
    }
}
