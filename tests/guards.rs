//! The structural guards. Beside the tests, the design's claims are held by
//! what the source may and must say: one store per definition, one sum
//! beside an oracle that does not share it, one walk from a tuple to `V`, a
//! load that reads a window at a time. Each guard is one row of [`GUARDS`];
//! a new guard is a new row.
//!
//! A row names the guard (the docs cite it by that name), the paths it
//! reads (a directory stands for every file under it, and a `*` segment for
//! every directory there), the part of each file that counts, a pattern
//! and a rule. A pattern is a list of alternatives, and a line matches when
//! any one does. An alternative is a literal, with `^` at its start for the
//! line's start, `\b` at either end of a part for a word boundary (as
//! grep's), and `…` between parts that must occur in that order on one
//! line. Nothing else is special: `(`, `.` and `|` are themselves. A path
//! that does not exist fails its row, so a moved file is not a passing
//! guard.
//!
//! Each row also carries a witness, an edit of the tree that must make the
//! row fire: a line inserted into a file's in-scope part (and each
//! alternative of the pattern must match that line on its own), the
//! matching lines removed, or a path added. The tree is read into memory
//! once. Every row is checked on it and again on its own witness-edited
//! copy, so no guard can pass vacuously.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

#[path = "source.rs"]
mod source;
use source::{non_test, repo_root};

/// This file: its table names every pattern, so it is not read.
const THIS_FILE: &str = "tests/guards.rs";

struct Guard {
    /// The guard's name, which the docs cite.
    name: &'static str,
    /// Files and directories read, relative to the repository root.
    paths: &'static [&'static str],
    /// Files left out of `paths`, and (`file:text`) lines left out that
    /// equal `text`.
    except: &'static [&'static str],
    scope: Scope,
    pattern: Pattern,
    rule: Rule,
    witness: Witness,
}

/// The part of each file that counts.
#[derive(Clone, Copy)]
struct Scope {
    /// Only the lines before the file's first `#[cfg(test)]` line.
    non_test: bool,
    region: Region,
    /// `//` comment lines skipped.
    code_only: bool,
}

#[derive(Clone, Copy)]
enum Region {
    All,
    /// The lines from one that matches the first pattern through the next
    /// that matches the second, at each start again (sed's `/a/,/b/p`).
    Inside(&'static str, &'static str),
    /// The lines not inside (sed's `/a/,/b/d`).
    Outside(&'static str, &'static str),
}

enum Pattern {
    Any(&'static [&'static str]),
    /// A field or parameter line, `[pub[(…)] ]name: T` with a lower-case
    /// name, whose type names this word before any `&`: a value owned, not
    /// borrowed.
    Owned(&'static str),
}

enum Rule {
    /// No in-scope line matches.
    Absent,
    /// Some in-scope line matches.
    Present,
    /// Exactly n in-scope lines match (grep -c).
    Lines(usize),
    /// Exactly n matches, none overlapping (grep -o).
    Matches(usize),
    /// Exactly n matches in the in-scope text with its spaces and line
    /// breaks removed.
    Squeezed(usize),
    /// No file or directory at any of the paths.
    NoPath,
    /// The directory holds exactly these names.
    Listing(&'static [&'static str]),
}

enum Witness {
    /// This line, inserted after the first in-scope line of this file.
    Insert(&'static str, &'static str),
    /// The in-scope lines that match, removed.
    Remove,
    /// A file at this path.
    Add(&'static str),
}

const WHOLE: Scope = Scope {
    non_test: false,
    region: Region::All,
    code_only: false,
};

const NON_TEST: Scope = Scope {
    non_test: true,
    ..WHOLE
};

/// md-maintain's oracle of the auxiliary views, which alone sums the
/// oracle's way and evaluates conditions through the algebra.
const ORACLE: (&str, &str) = ("^fn expected_aux_rows(", "^}");

/// What a row leaves unsaid: every file read whole, nothing excepted, and
/// nothing may match.
const ROW: Guard = Guard {
    name: "",
    paths: &[],
    except: &[],
    scope: WHOLE,
    pattern: Pattern::Any(&[]),
    rule: Rule::Absent,
    witness: Witness::Remove,
};

// ---------------------------------------------------------------- the guards

/// The guards, each under the comment that gives its reason; the rows of
/// one guard share its name.
const GUARDS: &[Guard] = &[
    // A local condition has one evaluator (Condition::eval). The chunk and
    // bitmap front end before the run kernels must not come back.
    Guard {
        name: "No columnar front end in the engine or the algebra",
        paths: &["crates/maintain/src", "crates/algebra/src"],
        pattern: Pattern::Any(&["ChunkBuilder", "Bitmap", "eval_local_mask"]),
        witness: Witness::Insert(
            "crates/algebra/src/eval.rs",
            "let mask: Bitmap = eval_local_mask(&ChunkBuilder::new(), cond);",
        ),
        ..ROW
    },
    // Coalescing and run grouping hash rows they borrow under md-relation's
    // SeededHasher, and recovery reads the log once, a frame at a time (the
    // pass that applies a frame is the pass that finds the log's valid
    // length, and no decoded tail is collected first). Neither SipHash-keyed
    // owned-row maps, nor the second decode, nor a scan into a record vector
    // may drift back; the reference coalesce under #[cfg(test)] keeps its
    // std map.
    Guard {
        name: "No SipHash row maps in the batch path, one log pass in recovery",
        paths: BATCH_PATH,
        pattern: Pattern::Any(&["DefaultHasher"]),
        witness: Witness::Insert(
            "crates/maintain/src/batch.rs",
            "use std::collections::hash_map::DefaultHasher;",
        ),
        ..ROW
    },
    Guard {
        name: "No SipHash row maps in the batch path, one log pass in recovery",
        paths: BATCH_PATH,
        scope: NON_TEST,
        pattern: Pattern::Any(&["HashMap<Row"]),
        witness: Witness::Insert(
            "crates/maintain/src/dimension.rs",
            "let mut net: HashMap<Row, i64> = HashMap::new();",
        ),
        ..ROW
    },
    Guard {
        name: "No SipHash row maps in the batch path, one log pass in recovery",
        paths: &["crates/warehouse/src/recovery.rs"],
        pattern: Pattern::Any(&["Wal::open("]),
        witness: Witness::Insert(
            "crates/warehouse/src/recovery.rs",
            "let wal = Wal::open(&path)?;",
        ),
        ..ROW
    },
    Guard {
        name: "No SipHash row maps in the batch path, one log pass in recovery",
        paths: &["crates/warehouse/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["fn scan(", "Vec<WalRecord>"]),
        witness: Witness::Insert(
            "crates/warehouse/src/recovery.rs",
            "fn scan(wal: &Wal) -> Vec<WalRecord> {",
        ),
        ..ROW
    },
    // Coalescing clones no row: the fold borrows every row from the
    // submitted batch and lends the survivors on as `ChangeRef`s, to the
    // door, the folds and the change log alike; only `ChangeBatch::coalesced`
    // (the owned batch) and a dead letter own them again, each through
    // `ChangeRef::to_change`.
    Guard {
        name: "Coalescing clones no row",
        paths: &["crates/maintain/src/batch.rs"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["Cow<", "Cow::", ".clone()", "Row::clone", "to_owned("]),
        witness: Witness::Insert(
            "crates/maintain/src/batch.rs",
            "let kept: Cow<'_, Row> = Cow::Owned(Row::clone(row).clone().to_owned());",
        ),
        ..ROW
    },
    // The resident maps — the groups (crates/maintain/src/groups.rs), the
    // key index, the fk index — hash under md-relation's per-map
    // SeededHasher, and the key index is written only when a group comes or
    // goes: the one `key_index.entry(` is the auxiliary store's one creation
    // hook (`Upkeep::created`), which refuses a key value another group
    // holds and which a fold, a rollback and an install all call, so no
    // `key_index.insert(` is left. The first-touch undo map survives under
    // #[cfg(test)] alone.
    Guard {
        name: "No SipHash resident maps, key index written on transitions only",
        paths: RESIDENT_MAPS,
        scope: NON_TEST,
        pattern: Pattern::Any(&["collections::…HashMap"]),
        witness: Witness::Insert(
            "crates/maintain/src/groups.rs",
            "use std::collections::{BTreeMap, HashMap};",
        ),
        ..ROW
    },
    Guard {
        name: "No SipHash resident maps, key index written on transitions only",
        paths: &["crates/maintain/src/engine.rs"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["HashSet<Row>"]),
        witness: Witness::Insert(
            "crates/maintain/src/engine.rs",
            "let mut touched: HashSet<Row> = HashSet::new();",
        ),
        ..ROW
    },
    Guard {
        name: "No SipHash resident maps, key index written on transitions only",
        paths: &["crates/maintain/src/store.rs"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["key_index.insert("]),
        rule: Rule::Squeezed(0),
        witness: Witness::Insert(
            "crates/maintain/src/store.rs",
            "self.key_index .insert(key.clone(), id);",
        ),
        ..ROW
    },
    Guard {
        name: "No SipHash resident maps, key index written on transitions only",
        paths: &["crates/maintain/src/store.rs"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["key_index.entry("]),
        rule: Rule::Squeezed(1),
        witness: Witness::Insert(
            "crates/maintain/src/store.rs",
            "let slot = self.key_index. entry(key);",
        ),
        ..ROW
    },
    // A dimension hop is one probe of the key index, which holds the joined
    // tuple's row: the resolver never reaches a store's groups — no
    // `get_key_value`, no state destructured off `lookup_by_key` — and
    // `lookup_by_key` itself reads the key index alone.
    Guard {
        name: "One probe per hop",
        paths: &["crates/maintain/src/resolve.rs"],
        scope: NON_TEST,
        pattern: Pattern::Any(&[
            "get_key_value",
            r".groups\b",
            "let (…lookup_by_key",
            "lookup_by_key…|(",
        ]),
        witness: Witness::Insert(
            "crates/maintain/src/resolve.rs",
            "let (key, state) = store.lookup_by_key(v).map(|(k, s)| (k, s)).or(store.groups.get_key_value(v));",
        ),
        ..ROW
    },
    Guard {
        name: "One probe per hop",
        paths: &["crates/maintain/src/store.rs"],
        scope: LOOKUP_BY_KEY,
        pattern: Pattern::Any(&["groups"]),
        witness: Witness::Insert(
            "crates/maintain/src/store.rs",
            "        let _ = self.groups.get(key);",
        ),
        ..ROW
    },
    Guard {
        name: "One probe per hop",
        paths: &["crates/maintain/src/store.rs"],
        scope: LOOKUP_BY_KEY,
        pattern: Pattern::Any(&["key_index.get(key)"]),
        rule: Rule::Present,
        witness: Witness::Remove,
        ..ROW
    },
    // A resident group sits in its map's bucket: the groups of both kinds
    // of store, the key index and the fk index sets are keyed by
    // md-relation's GroupKey (one or two values in place), and a group's
    // sums and aggregate states are the in-place Sums and AggStates — never
    // a heap Row key or a Vec of states behind the bucket. Both kinds of
    // store hold their groups in the one journaled Groups<S>: neither
    // declares a map of groups, a journal or an undo scope.
    Guard {
        name: "Group entries in place",
        paths: RESIDENT_MAPS,
        scope: NON_TEST,
        pattern: Pattern::Any(&[
            r"groups: SeededHashMap<Row\b",
            r"groups: SeededHashMap<Value, Row\b",
            r"key_index: SeededHashMap<Row\b",
            r"key_index: SeededHashMap<Value, Row\b",
            r"map: SeededHashMap<Row\b",
            r"map: SeededHashMap<Value, Row\b",
            r"SeededHashSet<Row\b",
            "pub sums: Vec<",
            "pub aggs: Vec<",
        ]),
        witness: Witness::Insert(
            "crates/maintain/src/summary.rs",
            "groups: SeededHashMap<Row, S>, key_index: SeededHashMap<Row, Id>, map: SeededHashMap<Row, u32>, \
             groups: SeededHashMap<Value, Row>, key_index: SeededHashMap<Value, Row>, map: SeededHashMap<Value, Row>, \
             fks: SeededHashSet<Row>, pub sums: Vec<ExactSum>, pub aggs: Vec<AggState>,",
        ),
        ..ROW
    },
    Guard {
        name: "Group entries in place",
        paths: &["crates/maintain/src/store.rs", "crates/maintain/src/summary.rs"],
        scope: NON_TEST,
        pattern: Pattern::Any(&[
            "SeededHashMap<GroupKey",
            r"\bJournal\b",
            r"\bjournal:",
            r"\bjournaling:",
        ]),
        witness: Witness::Insert(
            "crates/maintain/src/store.rs",
            "groups: SeededHashMap<GroupKey, S>, journal: Journal<S>, journaling: bool,",
        ),
        ..ROW
    },
    // A MIN/MAX/DISTINCT aggregate's value counts are keyed by its
    // argument column's type, fixed when the store compiles the view: a
    // number or a boolean by md-relation's order word, a string by itself.
    // No map keyed by Value is left to compare tagged 24-byte keys.
    Guard {
        name: "Value counts are keyed by their type",
        paths: &["crates/maintain/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["BTreeMap<Value"]),
        witness: Witness::Insert(
            "crates/maintain/src/summary.rs",
            "pub(crate) type ValueCounts = BTreeMap<Value, u64>;",
        ),
        ..ROW
    },
    // Every key-order listing — the image's sections, summary reads,
    // materialized auxiliary rows, bag listings — is md-relation's
    // normalized-prefix kernel, sort_by_row. A comparison sort of rows
    // survives only under #[cfg(test)] and on the oracle sides
    // (expected_aux_rows' BTreeMap, md-algebra's eval_view); a dimension
    // delta's root keys need no order at all (sums are exact).
    Guard {
        name: "One key order (sort_by_row), no comparison sort at its sites",
        paths: &[
            "crates/maintain/src/snapshot.rs",
            "crates/maintain/src/store.rs",
            "crates/maintain/src/groups.rs",
            "crates/relation/src/bag.rs",
        ],
        scope: NON_TEST,
        pattern: Pattern::Any(&[".sort(", ".sort_"]),
        witness: Witness::Insert(
            "crates/relation/src/bag.rs",
            "rows.sort(); keys.sort_unstable();",
        ),
        ..ROW
    },
    Guard {
        name: "One key order (sort_by_row), no comparison sort at its sites",
        paths: &["crates/warehouse/src/warehouse.rs"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["rows.sort", "rows.dedup"]),
        witness: Witness::Insert(
            "crates/warehouse/src/warehouse.rs",
            "rows.sort_by(cmp); rows.dedup();",
        ),
        ..ROW
    },
    Guard {
        name: "One key order (sort_by_row), no comparison sort at its sites",
        paths: &["crates/maintain/src/engine.rs", "crates/maintain/src/dimension.rs"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["root_keys.sort", "buckets.sort", "order.sort"]),
        witness: Witness::Insert(
            "crates/maintain/src/dimension.rs",
            "root_keys.sort(); buckets.sort_by(cmp); order.sort_unstable();",
        ),
        ..ROW
    },
    // Whether a definition is inside the GPSJ class is decided once per
    // concept — names in md-sql's resolver, shape and types in
    // GpsjView::validate, the tree in ExtendedJoinGraph::build — and
    // md-check translates defect kinds to codes. The mirror passes must not
    // come back, nor name lookup or join orientation in md-check.
    Guard {
        name: "One resolver, one graph builder",
        paths: &["crates/check/src/resolve_pass.rs", "crates/check/src/graph_pass.rs"],
        rule: Rule::NoPath,
        witness: Witness::Add("crates/check/src/graph_pass.rs"),
        ..ROW
    },
    Guard {
        name: "One resolver, one graph builder",
        paths: &["crates/check/src"],
        pattern: Pattern::Any(&["index_of(", ".table_id(", "key_col =="]),
        witness: Witness::Insert(
            "crates/check/src/plan_pass.rs",
            "let at = schema.index_of(col).or(view.table_id(name)).filter(|c| key_col == *c);",
        ),
        ..ROW
    },
    // Every SUM/AVG in the engine folds through md-maintain's ExactSum. The
    // float-summing paths it replaced stay gone; md-algebra's recompute
    // sums with an algorithm of its own (ExpansionSum) and never names the
    // engine's; and in md-maintain only the auxiliary views' oracle,
    // expected_aux_rows, sums the oracle's way.
    Guard {
        name: "One sum, and an oracle that does not share it",
        paths: &["crates/relation/src/value.rs"],
        pattern: Pattern::Any(&["pub fn add(", "pub fn sub(", "pub fn mul(", "pub fn zero_of("]),
        witness: Witness::Insert(
            "crates/relation/src/value.rs",
            "pub fn add(&self, o: &Value) {} pub fn sub(&self, o: &Value) {} pub fn mul(&self, k: i64) {} pub fn zero_of(t: ColumnType) {}",
        ),
        ..ROW
    },
    Guard {
        name: "One sum, and an oracle that does not share it",
        paths: &["crates"],
        pattern: Pattern::Any(&["RebuildAcc", "AggState::Avg", "fn scaled("]),
        witness: Witness::Insert(
            "crates/maintain/src/summary.rs",
            "let acc = RebuildAcc::from(AggState::Avg(s)); fn scaled(x: f64, k: i64) -> f64 { x }",
        ),
        ..ROW
    },
    Guard {
        name: "One sum, and an oracle that does not share it",
        paths: &["crates/algebra"],
        pattern: Pattern::Any(&["ExactSum"]),
        witness: Witness::Insert("crates/algebra/src/agg.rs", "use md_maintain::ExactSum;"),
        ..ROW
    },
    Guard {
        name: "One sum, and an oracle that does not share it",
        paths: &["crates/maintain/src"],
        scope: Scope {
            region: Region::Outside(ORACLE.0, ORACLE.1),
            ..NON_TEST
        },
        pattern: Pattern::Any(&["ExpansionSum"]),
        witness: Witness::Insert(
            "crates/maintain/src/engine.rs",
            "let mut sum = ExpansionSum::default();",
        ),
        ..ROW
    },
    Guard {
        name: "One sum, and an oracle that does not share it",
        paths: &["crates/maintain/src/engine.rs"],
        scope: Scope {
            region: Region::Inside(ORACLE.0, ORACLE.1),
            ..NON_TEST
        },
        pattern: Pattern::Any(&["ExpansionSum"]),
        rule: Rule::Present,
        witness: Witness::Remove,
        ..ROW
    },
    // A dimension delta is ΔX_T ⋈ X_root, retracted and inserted a bucket
    // (summary group + raw arguments) at a time through the summary kernel
    // (crates/maintain/src/dimension.rs). The per-tuple move — an owned
    // contribution per root tuple, built before and after the store
    // mutation and compared — must not come back. Nor must the per-change
    // walk: a dimension table group is retracted and re-inserted once per
    // subscriber, under the union of its keys, and the insert ends at the
    // flush fault point — no step takes one change, and no separate flush
    // follows the group.
    Guard {
        name: "One dimension path, bucketed through the summary kernel",
        paths: &["crates/maintain/src"],
        pattern: Pattern::Any(&[
            r"\bContribution\b",
            r"\bHeldArg\b",
            "fn contribution(",
            "fn contributions(",
        ]),
        witness: Witness::Insert(
            "crates/maintain/src/dimension.rs",
            "fn contribution(t: &Row) -> Contribution { .. } fn contributions(a: HeldArg) {}",
        ),
        ..ROW
    },
    Guard {
        name: "One dimension path, bucketed through the summary kernel",
        paths: &["crates/maintain/src/dimension.rs"],
        pattern: Pattern::Any(&[r"fn dim_flush\b", r"\bchange: &Change\b"]),
        witness: Witness::Insert(
            "crates/maintain/src/dimension.rs",
            "fn dim_flush(change: &Change) {}",
        ),
        ..ROW
    },
    // The auxiliary stores live in the warehouse's StoreRegistry, one per
    // canonical definition (crates/maintain/src/registry.rs); a summary's
    // engine borrows them by StoreId. A store owned by an engine again — a
    // field of type AuxStore, or the old per-table map — would mean a copy
    // per summary, loaded and folded once per summary. No test clones the
    // stores into a map of its own either: the reconstruction reads a
    // summary's stores in the registry.
    Guard {
        name: "One store per definition",
        paths: &["crates/maintain/src/engine.rs", "crates/maintain/src/dimension.rs"],
        pattern: Pattern::Owned("AuxStore"),
        witness: Witness::Insert(
            "crates/maintain/src/engine.rs",
            "    pub(crate) stores: BTreeMap<StoreId, AuxStore>,",
        ),
        ..ROW
    },
    Guard {
        name: "One store per definition",
        paths: &["crates", "tests"],
        pattern: Pattern::Any(&["BTreeMap<TableId, AuxStore>"]),
        witness: Witness::Insert(
            "tests/shared_stores.rs",
            "let copies: BTreeMap<TableId, AuxStore> = BTreeMap::new();",
        ),
        ..ROW
    },
    // A save() image is the maintained state and nothing else: a shared
    // store is written once (by its first reader in name order), so there
    // are no copies to compare on restore, and no work counter is in it, so
    // nothing rewinds a counter on rollback or restore. Every counter is a
    // process-local measurement that only counts up.
    Guard {
        name: "The image holds state, once; counters only count up",
        paths: &["crates"],
        pattern: Pattern::Any(&[
            r"\bSharedCopies\b",
            r"\bDivergentCopies\b",
            r"\bset_logical\b",
            r"Counter::set\b",
            r"Histogram::restore\b",
        ]),
        witness: Witness::Insert(
            "crates/maintain/src/snapshot.rs",
            "SharedCopies::check(DivergentCopies(n))?; engine.set_logical(w); Counter::set(c, 0); Histogram::restore(h, s);",
        ),
        ..ROW
    },
    Guard {
        name: "The image holds state, once; counters only count up",
        paths: &["crates/obs/src/metrics.rs"],
        scope: Scope {
            region: Region::Inside("^impl Counter {", "^}"),
            ..WHOLE
        },
        pattern: Pattern::Any(&[r"fn set\b"]),
        witness: Witness::Insert(
            "crates/obs/src/metrics.rs",
            "    pub fn set(&self, value: u64) {}",
        ),
        ..ROW
    },
    Guard {
        name: "The image holds state, once; counters only count up",
        paths: &["crates/obs/src/metrics.rs"],
        scope: Scope {
            region: Region::Inside("^impl Histogram {", "^}"),
            ..WHOLE
        },
        pattern: Pattern::Any(&[r"fn restore\b"]),
        witness: Witness::Insert(
            "crates/obs/src/metrics.rs",
            "    pub fn restore(&self, buckets: &[u64]) {}",
        ),
        ..ROW
    },
    // Each measurement is recorded once, in the md-obs registry. A summary's
    // prepare and commit time are its histograms' sums, with no counter
    // repeating them; MaintStats and SchedulerStats hold only the fields the
    // frozen benchmark reads, and MaintStats compares every field it has.
    Guard {
        name: "Stats structs are the benchmark's views",
        paths: &["crates/*/src"],
        pattern: Pattern::Any(&[
            "prepare_nanos_total",
            "commit_nanos_total",
            "\"maintain.groups_recomputed\"",
        ]),
        witness: Witness::Insert(
            "crates/maintain/src/engine.rs",
            "stats.prepare_nanos_total += p; stats.commit_nanos_total += c; counter(\"maintain.groups_recomputed\");",
        ),
        ..ROW
    },
    Guard {
        name: "Stats structs are the benchmark's views",
        paths: &["crates"],
        pattern: Pattern::Any(&["impl PartialEq for MaintStats"]),
        witness: Witness::Insert("crates/maintain/src/engine.rs", "impl PartialEq for MaintStats {"),
        ..ROW
    },
    // What identifies a plan and a store is decided in one place,
    // crates/maintain/src/canon.rs: an image's plan fingerprint is FNV-1a
    // over the plan's canonical codec bytes, and a store's key is a typed
    // value. std documents neither its hasher's algorithm nor derived
    // `Debug` output as stable, so neither may identify a plan or a store
    // again: a toolchain bump would refuse every saved image.
    Guard {
        name: "One canonical plan encoding",
        paths: &["crates/maintain/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["DefaultHasher"]),
        witness: Witness::Insert(
            "crates/maintain/src/canon.rs",
            "let mut h = std::collections::hash_map::DefaultHasher::new();",
        ),
        ..ROW
    },
    Guard {
        name: "One canonical plan encoding",
        paths: &[
            "crates/maintain/src/canon.rs",
            "crates/maintain/src/snapshot.rs",
            "crates/maintain/src/registry.rs",
        ],
        scope: NON_TEST,
        pattern: Pattern::Any(&[":?}", ":#?}"]),
        witness: Witness::Insert(
            "crates/maintain/src/registry.rs",
            "let key = format!(\"{def:?}/{plan:#?}\");",
        ),
        ..ROW
    },
    Guard {
        name: "One canonical plan encoding",
        paths: &["crates"],
        pattern: Pattern::Any(&["StoreKey(String)"]),
        witness: Witness::Insert("crates/maintain/src/canon.rs", "pub(crate) struct StoreKey(String);"),
        ..ROW
    },
    // A summary holds the batches its stores hold (V is a function of X,
    // Section 3.2): of a table it keeps a store of, its committed LSN is the
    // store's, written once in that store's image section. Only the root of
    // a plan without X_{R0} keeps a mark of its own. No per-summary LSN
    // vector, no step realigning one with the stores and no restore check
    // comparing the two may come back.
    Guard {
        name: "One LSN per store",
        paths: &["crates/*/src"],
        pattern: Pattern::Any(&[
            "applied_lsn: BTreeMap",
            r"fn align_lsns\b",
            r"fn lsn_vector\b",
            r"fn set_applied_lsn\b",
            "lists committed LSN",
        ]),
        witness: Witness::Insert(
            "crates/maintain/src/engine.rs",
            "applied_lsn: BTreeMap<TableId, u64>, // fn align_lsns, fn lsn_vector and fn set_applied_lsn: the image lists committed LSN per summary",
        ),
        ..ROW
    },
    // A load is `ΔR = +R` read one window of rows at a time
    // (`BaseTable::scan`, through registry.rs' `load_windows`): set-up holds
    // a window of a fact table, never a copy of it. The recompute oracle
    // walks `rows()` one row at a time; nothing collects them.
    Guard {
        name: "A load reads a window at a time",
        paths: &["crates/maintain/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["rows().collect", "Vec<Row> = db."]),
        witness: Witness::Insert(
            "crates/maintain/src/registry.rs",
            "let rows: Vec<Row> = db.table(t).rows().collect();",
        ),
        ..ROW
    },
    Guard {
        name: "A load reads a window at a time",
        paths: &["crates/maintain/src/registry.rs", "crates/maintain/src/engine.rs"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["load_windows(db.table("]),
        rule: Rule::Lines(2),
        witness: Witness::Insert(
            "crates/maintain/src/engine.rs",
            "load_windows(db.table(root), &mut fill)?;",
        ),
        ..ROW
    },
    // A table group is grouped once for every store of the table and every
    // summary without a root store rooted there: each consumer's runs are
    // read off the one grouping's fine runs, which one constructor hands
    // out, and the grouping each consumer once made alone is a test-only
    // reference. A change is held to its table's schema and contract once,
    // at prepare_batch's door (`Catalog::admit`), so the grouping refuses
    // no row of its own.
    Guard {
        name: "One grouping per table group",
        paths: &["crates/maintain/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["RunBatch::build("]),
        rule: Rule::Lines(1),
        witness: Witness::Insert(
            "crates/maintain/src/engine.rs",
            "let batch = RunBatch::build(&group, &consumers);",
        ),
        ..ROW
    },
    Guard {
        name: "One grouping per table group",
        paths: &["crates/maintain/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["admit("]),
        rule: Rule::Lines(1),
        witness: Witness::Insert("crates/maintain/src/registry.rs", "catalog.admit(&change)?;"),
        ..ROW
    },
    Guard {
        name: "One grouping per table group",
        paths: &["crates/maintain/src/pass.rs"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["admit("]),
        rule: Rule::Lines(1),
        witness: Witness::Insert("crates/maintain/src/pass.rs", "catalog.admit(&change)?;"),
        ..ROW
    },
    Guard {
        name: "One grouping per table group",
        paths: &["crates/maintain/src/registry.rs"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["expect_err("]),
        witness: Witness::Insert(
            "crates/maintain/src/registry.rs",
            "let refusal = grouping.expect_err(\"a refused row\");",
        ),
        ..ROW
    },
    // One fold per store: every store folds a table group as the runs the
    // group's one grouping hands it, whether its readers take it as their
    // root or as a dimension, and a dimension reader reads ΔX_T off the
    // same runs. The per-change path — a ΔX_T pair of owned key rows per
    // store and change, applied change by change — must not come back, nor
    // a role in the key a store is held under, which made two stores of
    // one definition.
    Guard {
        name: "One fold per store",
        paths: &["crates/maintain/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&[r"\bDimDelta\b", r"\bdim_delta\b", r"\bapply_dim\b"]),
        witness: Witness::Insert(
            "crates/maintain/src/registry.rs",
            "let delta: DimDelta<'_> = self.dim_delta(id, change); self.apply_dim(id, &delta)?;",
        ),
        ..ROW
    },
    Guard {
        name: "One fold per store",
        paths: &["crates/maintain/src/canon.rs"],
        scope: Scope {
            region: Region::Inside("^pub(crate) struct StoreKey {", "^}"),
            ..NON_TEST
        },
        pattern: Pattern::Any(&[r"\broot\b"]),
        witness: Witness::Insert("crates/maintain/src/canon.rs", "    root: bool,"),
        ..ROW
    },
    // A run is one weight: a root-delta run reaches a kernel as one
    // weighted `ΔX_{R₀}` tuple, its occurrences' summed sign and the lowest
    // their running sum falls to (`net`, `low`), never as a slice of signs
    // the kernel walks one at a time.
    Guard {
        name: "A run is one weight",
        paths: &["crates/maintain/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["signs: &[i64]"]),
        witness: Witness::Insert("crates/maintain/src/registry.rs", "    signs: &[i64],"),
        ..ROW
    },
    Guard {
        name: "A run is one weight",
        paths: &["crates/maintain/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&[".signs"]),
        witness: Witness::Insert(
            "crates/maintain/src/registry.rs",
            "let len = run.signs.len();",
        ),
        ..ROW
    },
    // Typed once, checked once: a plan's comparisons and sums are compiled
    // against the schema when it is resolved (filter.rs), and a change is
    // held to its table's schema and contract at the door, so no fold
    // carries an error only a forged plan raises. The engine evaluates no
    // condition through the algebra: only the oracle `expected_aux_rows`
    // does, and no grouping refusal comes back.
    Guard {
        name: "Typed once, checked once",
        paths: &["crates/maintain/src"],
        scope: Scope {
            region: Region::Outside(ORACLE.0, ORACLE.1),
            code_only: true,
            ..NON_TEST
        },
        pattern: Pattern::Any(&[
            r"\beval_all\b",
            r"\bhaving_passes\b",
            r"\btry_cmp\b",
            r"\bRefusal\b",
            "Condition::eval",
            ".eval(",
        ]),
        witness: Witness::Insert(
            "crates/maintain/src/summary.rs",
            "let ok = eval_all(&conds, row)? && having_passes(g) && a.try_cmp(&b).is_ok() && Condition::eval(c, row) && cond.eval(row) || refuse(Refusal::Forged);",
        ),
        ..ROW
    },
    // A batch is prepared on the calling thread: one worker beat two on the
    // one workload that ran two. Neither the worker fan-out, nor the
    // executor seam it ran behind, nor the schedule explorer that checked
    // it may come back, and no non-test code in md-maintain or md-warehouse
    // names std::thread at all (nothing sleeps or spawns).
    Guard {
        name: "One thread per batch",
        paths: &["crates/race"],
        rule: Rule::NoPath,
        witness: Witness::Add("crates/race"),
        ..ROW
    },
    Guard {
        name: "One thread per batch",
        paths: &["crates/maintain/src", "crates/warehouse/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&[
            r"std::thread\b",
            r"\bExecutor\b",
            r"\byield_point\b",
            r"\bSchedEvent\b",
            r"\bFanout\b",
        ]),
        witness: Witness::Insert(
            "crates/warehouse/src/warehouse.rs",
            "std::thread::scope(|s| Executor::run(s, Fanout::new(), yield_point, SchedEvent::Start));",
        ),
        ..ROW
    },
    // md-bench is the shell and nothing else. The paper's tables are value
    // assertions in the tests (EXPERIMENTS.md names the test for each), not
    // printers whose output nothing checks.
    Guard {
        name: "md-bench is the shell",
        paths: &["crates/bench/src/bin"],
        rule: Rule::Listing(&["mindetail.rs"]),
        witness: Witness::Add("crates/bench/src/bin/report_tables.rs"),
        ..ROW
    },
    Guard {
        name: "md-bench is the shell",
        paths: &[".github/workflows/ci.yml"],
        pattern: Pattern::Any(&["report_"]),
        witness: Witness::Insert(
            ".github/workflows/ci.yml",
            "        run: cargo run --release -p md-bench --bin report_tables",
        ),
        ..ROW
    },
    // The warehouse and every test run one engine API: a StoreRegistry and
    // its SummaryEngines, a batch through PreparedBatch. The standalone
    // MaintenanceEngine lives in one doc-hidden module for the frozen
    // benchmark alone (ROADMAP item 1). Every map keyed by source values
    // hashes under a per-map key (SeededHasher), and a root store's fk index
    // rolls back through the store's own journal.
    Guard {
        name: "One engine API",
        paths: &["crates", "tests"],
        except: &[
            "crates/maintain/src/standalone.rs",
            "crates/maintain/src/lib.rs:pub use standalone::MaintenanceEngine;",
        ],
        pattern: Pattern::Any(&["MaintenanceEngine"]),
        witness: Witness::Insert(
            "crates/maintain/src/lib.rs",
            "pub use standalone::MaintenanceEngine as Engine;",
        ),
        ..ROW
    },
    Guard {
        name: "One engine API",
        paths: &["crates"],
        pattern: Pattern::Any(&[r"\bRowHasher\b", r"\bRowBuildHasher\b", r"\bRowHashMap\b"]),
        witness: Witness::Insert(
            "crates/relation/src/hash.rs",
            "pub type RowHashMap<V> = HashMap<Row, V, RowBuildHasher>; pub struct RowHasher;",
        ),
        ..ROW
    },
    Guard {
        name: "One engine API",
        paths: &["crates/maintain/src/registry.rs"],
        pattern: Pattern::Any(&["fk_journal"]),
        witness: Witness::Insert("crates/maintain/src/registry.rs", "    fk_journal: Vec<FkUndo>,"),
        ..ROW
    },
    // A batch is applied in one place: Warehouse::apply_batch is one linear
    // pass over the PreparedBatch handle (crates/maintain/src/pass.rs), and
    // recovery and repair commit or roll back through the same handle. The
    // method chain with a rollback at every exit, the per-summary Subscriber
    // outside md-maintain, a rollback over a list of summary names, and the
    // two builder knobs nothing set must not come back.
    Guard {
        name: "One batch path",
        paths: &["crates/warehouse/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&[
            r"fn try_apply_batch\b",
            r"fn wal_phase\b",
            r"fn commit_phase\b",
            r"\bSubscriber\b",
            "rollback_prepared(&",
            "retry_policy(",
            "dead_letter_capacity(",
        ]),
        witness: Witness::Insert(
            "crates/warehouse/src/warehouse.rs",
            "fn try_apply_batch() {} fn wal_phase() {} fn commit_phase(s: &Subscriber) { self.rollback_prepared(&names); b.retry_policy(p).dead_letter_capacity(8); }",
        ),
        ..ROW
    },
    // A storage fault has one shape: a crash at a log or save point rejects
    // the batch (or the save), rolls it back and dead-letters it, the first
    // time it fires. A retried fsync that succeeds proves nothing, so neither
    // the retry ladder nor the transient-I/O taxonomy it retried may come
    // back.
    Guard {
        name: "Crash, panic, reject",
        paths: &["crates", "tests"],
        pattern: Pattern::Any(&[
            "RetryPolicy",
            "IoFaultKind",
            "arm_transient",
            "is_retryable_io",
            r"MaintainError::Io\b",
            "wal.retries",
            "save.retries",
        ]),
        witness: Witness::Insert(
            "tests/fault_injection.rs",
            "faults.arm_transient(IoFaultKind::Fsync, RetryPolicy::default()); is_retryable_io(&MaintainError::Io(e)); count(\"wal.retries\", \"save.retries\");",
        ),
        ..ROW
    },
    // V is rebuilt from X in one place, SummaryEngine::reconstructed: the
    // reconstruction query over a summary's stores in the registry. The
    // executor over a map of cloned stores, the lookup trait that served
    // both, and the quarantine entry's counts of groups "awaiting replay"
    // (repair of a plan with a root store reads no log) must not come back;
    // the reconstruction and resolution modules stay private, and
    // md-relation's unused Delta stays gone.
    Guard {
        name: "Repair is the reconstruction query",
        paths: &["crates", "tests"],
        pattern: Pattern::Any(&[
            "pending_groups",
            "pending_changes",
            "note_logged",
            "StoreLookup",
            "ReconExecutor::new",
        ]),
        witness: Witness::Insert(
            "tests/quarantine_repair.rs",
            "let exec = ReconExecutor::new(&stores as &dyn StoreLookup); q.note_logged(n); (e.pending_groups, e.pending_changes)",
        ),
        ..ROW
    },
    Guard {
        name: "Repair is the reconstruction query",
        paths: &["crates/maintain/src/lib.rs"],
        pattern: Pattern::Any(&[
            "pub mod reconstruct",
            "pub mod resolve",
            "pub use reconstruct",
            "pub use resolve",
        ]),
        witness: Witness::Insert(
            "crates/maintain/src/lib.rs",
            "pub mod reconstruct; pub mod resolve; pub use reconstruct::ReconExecutor; pub use resolve::Resolver;",
        ),
        ..ROW
    },
    Guard {
        name: "Repair is the reconstruction query",
        paths: &["crates/relation/src"],
        pattern: Pattern::Any(&["pub struct Delta"]),
        witness: Witness::Insert("crates/relation/src/delta.rs", "pub struct Delta {"),
        ..ROW
    },
    // A group of a summary without X_{R₀} is a compressed root tuple: the
    // one walk of the reconstruction query takes it to V, for the rebuild,
    // the audit and a dimension delta alike. The hand-written remap, the
    // whole-group journal record it needed and the error variant nothing
    // constructed must not come back. A root-delta run is a signed
    // compressed root tuple too: the root batch sums it once, no kernel
    // argument reads a source row's column, and the engine walks to V only
    // through ReconExecutor::share_of.
    Guard {
        name: "One walk from a tuple to V",
        paths: &["crates"],
        pattern: Pattern::Any(&[
            "remap_groups",
            "resolve_group_dims",
            "RemapContext",
            "pinned_key_position",
            "Undo::Whole",
            "BadDeltaRow",
        ]),
        witness: Witness::Insert(
            "crates/maintain/src/dimension.rs",
            "remap_groups(&RemapContext { pos: pinned_key_position(k) }, resolve_group_dims(g)); undo.push(Undo::Whole(g)); Err(BadDeltaRow)",
        ),
        ..ROW
    },
    Guard {
        name: "One walk from a tuple to V",
        paths: &["crates/maintain/src"],
        pattern: Pattern::Any(&["RunArg::Column"]),
        witness: Witness::Insert("crates/maintain/src/summary.rs", "RunArg::Column(at) => row[at].clone(),"),
        ..ROW
    },
    Guard {
        name: "One walk from a tuple to V",
        paths: &["crates/maintain/src/engine.rs"],
        pattern: Pattern::Any(&[".resolve("]),
        witness: Witness::Insert("crates/maintain/src/engine.rs", "let dims = resolver.resolve(&row)?;"),
        ..ROW
    },
    // Each aggregate's input is derived once, by md-maintain's `agg_inputs`
    // from Table 2 (`md_core::rewrite`), and read by the root-delta runs and
    // the reconstruction walk alike. md-core's reconstruction plan nobody
    // read, its translation, the root-omitted rule beside it and the
    // root-delta path's own rule must not come back.
    Guard {
        name: "One rule for an aggregate's input",
        paths: &["crates", "tests"],
        pattern: Pattern::Any(&[
            "ReconstructionPlan",
            "ReconItem",
            "SumSource",
            "AuxJoin",
            "build_reconstruction",
            "of_groups",
            "plan.reconstruction",
            "ArgSource",
            "AggSource",
        ]),
        witness: Witness::Insert(
            "crates/core/src/derive.rs",
            "let r: ReconstructionPlan = build_reconstruction(&plan.reconstruction, AuxJoin, ReconItem::of_groups(SumSource::Aux, ArgSource::Root, AggSource::Aux));",
        ),
        ..ROW
    },
    // Section 2.2's depends relation is decided in one place:
    // ExtendedJoinGraph::build classifies each edge once (a dependency, or
    // blocked for want of RI and/or by the target's exposed columns), and
    // derive records every reason an auxiliary view is kept or omitted.
    // md-check reads that record (MD040) and the graph's RI verdicts
    // (MD033); the engine reads the graph's verdicts. Neither re-runs
    // Algorithm 3.2's elimination test nor asks the catalog for a foreign
    // key.
    Guard {
        name: "One depends relation",
        paths: &["crates/check/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&[
            "transitively_depends_on_all",
            "in_need_of_another",
            "blocking_non_csmas_columns",
            "depends_on_all_via_fk",
            "foreign_key(",
        ]),
        witness: Witness::Insert(
            "crates/check/src/plan_pass.rs",
            "transitively_depends_on_all(g) || in_need_of_another(t) || blocking_non_csmas_columns(t).is_empty() || depends_on_all_via_fk(c.foreign_key(t))",
        ),
        ..ROW
    },
    Guard {
        name: "One depends relation",
        paths: &["crates/maintain/src"],
        scope: NON_TEST,
        pattern: Pattern::Any(&["edge_is_dependency", "foreign_key("]),
        witness: Witness::Insert(
            "crates/maintain/src/registry.rs",
            "if edge_is_dependency(catalog.foreign_key(t, u)) {",
        ),
        ..ROW
    },
    // The one `unsafe` block is the call into the carry-less-multiply
    // CRC-32, behind its runtime CPU check (crates/relation/src/codec/
    // clmul.rs). No other library source may use `unsafe`; the counting
    // allocators of tests under a crate's tests/ are not library source.
    Guard {
        name: "Unsafe in one place",
        paths: &["crates/*/src"],
        except: &[CLMUL],
        pattern: Pattern::Any(&[r"\bunsafe\b"]),
        witness: Witness::Insert("crates/relation/src/codec.rs", "let byte = unsafe { *ptr };"),
        ..ROW
    },
    Guard {
        name: "Unsafe in one place",
        paths: &[CLMUL],
        pattern: Pattern::Any(&[
            r"\bunsafe {",
            r"\bunsafe fn",
            r"\bunsafe impl",
            r"\bunsafe trait",
            r"\bunsafe extern",
        ]),
        rule: Rule::Matches(1),
        witness: Witness::Insert(
            CLMUL,
            "unsafe fn f() { unsafe { g() } } unsafe impl Send for K {} unsafe trait T {} unsafe extern \"C\" {}",
        ),
        ..ROW
    },
    // What nothing calls is deleted: no library source silences the
    // dead-code or unused lints (`#![warn(unreachable_pub)]` and
    // `#![warn(unnameable_types)]` in each lib.rs keep the surface to the
    // ledger).
    Guard {
        name: "Dead code is deleted, not allowed",
        paths: &["crates/*/src"],
        pattern: Pattern::Any(&["allow(dead_code", "allow(unused"]),
        witness: Witness::Insert(
            "crates/core/src/lib.rs",
            "#![allow(unused_imports)] #[allow(dead_code)]",
        ),
        ..ROW
    },
    // A value, row, group key and change have one spelling, the change
    // log's (format version 2): md-relation's put_value / put_row /
    // put_change and take_value / take_row / take_key / take_change /
    // skip_changes write and read the log, engine images (snapshot version
    // 8) and plan fingerprints alike. No second, fixed-width writer or
    // reader of them may come back beside it, nor a log_-named twin; framing
    // (u8/u32/u64, put_bytes/put_str) stays fixed-width.
    Guard {
        name: "One spelling of a value",
        paths: &["crates/relation/src"],
        pattern: Pattern::Any(&[
            "fn put_log_",
            "fn take_log_",
            "fn skip_log_",
            "fn put_i64",
            "fn take_i64",
            "fn take_arity",
        ]),
        witness: Witness::Insert(
            "crates/relation/src/codec.rs",
            "fn put_log_value() {} fn take_log_row() {} fn skip_log_changes() {} fn put_i64() {} fn take_i64() {} fn take_arity() {}",
        ),
        ..ROW
    },
];

/// The batch path's row maps: coalescing, run grouping, dimension deltas.
const BATCH_PATH: &[&str] = &[
    "crates/maintain/src/batch.rs",
    "crates/maintain/src/engine.rs",
    "crates/maintain/src/dimension.rs",
];

/// The resident maps of both kinds of store and their groups.
const RESIDENT_MAPS: &[&str] = &[
    "crates/maintain/src/store.rs",
    "crates/maintain/src/summary.rs",
    "crates/maintain/src/groups.rs",
];

/// `AuxStore::lookup_by_key`, up to the close of its body.
const LOOKUP_BY_KEY: Scope = Scope {
    region: Region::Inside("fn lookup_by_key", "^    }"),
    ..WHOLE
};

const CLMUL: &str = "crates/relation/src/codec/clmul.rs";

// ---------------------------------------------------------------- the matcher

/// A pattern ready to match a line.
enum Matcher {
    Any(Vec<Alt>),
    Owned(&'static str),
}

/// One alternative: `anchored` at the line's start, its parts in order.
struct Alt {
    anchored: bool,
    parts: Vec<Lit>,
}

/// A literal, with a word boundary asked for at its start or its end.
struct Lit {
    text: &'static str,
    word_start: bool,
    word_end: bool,
}

impl Alt {
    fn parse(alt: &'static str) -> Self {
        let (anchored, body) = match alt.strip_prefix('^') {
            Some(body) => (true, body),
            None => (false, alt),
        };
        let parts = body.split('…').map(|part| {
            let (word_start, part) = match part.strip_prefix(r"\b") {
                Some(part) => (true, part),
                None => (false, part),
            };
            let (word_end, text) = match part.strip_suffix(r"\b") {
                Some(text) => (true, text),
                None => (false, part),
            };
            assert!(!text.is_empty(), "an empty part in the pattern {alt:?}");
            Lit {
                text,
                word_start,
                word_end,
            }
        });
        Alt {
            anchored,
            parts: parts.collect(),
        }
    }

    /// `(start, end)` of each match in `line`, the longest from each start.
    fn spans<'l>(&'l self, line: &'l str) -> impl Iterator<Item = (usize, usize)> + 'l {
        let (first, rest) = self.parts.split_first().expect("an alternative has a part");
        let starts = occurrences(line, first, 0).filter(move |&at| !self.anchored || at == 0);
        starts.filter_map(move |start| {
            let mut end = start + first.text.len();
            for (i, part) in rest.iter().enumerate() {
                let mut found = occurrences(line, part, end);
                // The last part as late as it occurs, the ones between as
                // early: the longest match from `start`.
                let at = if i + 1 == rest.len() {
                    found.last()
                } else {
                    found.next()
                }?;
                end = at + part.text.len();
            }
            Some((start, end))
        })
    }
}

/// The positions at or after `from` where `lit` occurs, overlaps included.
fn occurrences<'l>(line: &'l str, lit: &'l Lit, from: usize) -> impl Iterator<Item = usize> + 'l {
    let step = lit.text.chars().next().map_or(1, char::len_utf8);
    let mut next = from;
    let found = std::iter::from_fn(move || {
        let at = next + line.get(next..)?.find(lit.text)?;
        next = at + step;
        Some(at)
    });
    found.filter(move |&at| {
        (!lit.word_start || word_boundary(line, at))
            && (!lit.word_end || word_boundary(line, at + lit.text.len()))
    })
}

/// grep's `\b`: a word character on one side of `at` and not the other.
fn word_boundary(line: &str, at: usize) -> bool {
    let is_word = |b: Option<&u8>| b.is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
    let bytes = line.as_bytes();
    is_word(at.checked_sub(1).and_then(|i| bytes.get(i))) != is_word(bytes.get(at))
}

/// grep's `\s`.
const SPACE: [char; 5] = [' ', '\t', '\x0b', '\x0c', '\r'];

/// `^\s*(pub(\([a-z]+\))? )?[a-z_][a-z0-9_]*: [^&]*\bWORD\b`: a line that
/// gives a lower-case name a type naming `word` before any `&`.
fn owns(line: &str, word: &'static str) -> bool {
    let body = line.trim_start_matches(SPACE);
    let mut heads = vec![body];
    if let Some(rest) = body.strip_prefix("pub ") {
        heads.push(rest);
    }
    if let Some((within, rest)) = body.strip_prefix("pub(").and_then(|r| r.split_once(") ")) {
        if !within.is_empty() && within.bytes().all(|b| b.is_ascii_lowercase()) {
            heads.push(rest);
        }
    }
    let word = Lit {
        text: word,
        word_start: true,
        word_end: true,
    };
    heads.into_iter().any(|head| {
        let is_name = |b: &u8| b.is_ascii_lowercase() || b.is_ascii_digit() || *b == b'_';
        let name = head.bytes().take_while(is_name).count();
        if name == 0 || head.as_bytes()[0].is_ascii_digit() {
            return false;
        }
        let Some(ty) = head[name..].strip_prefix(": ") else {
            return false;
        };
        let from = line.len() - ty.len();
        let borrow = from + ty.find('&').unwrap_or(ty.len());
        occurrences(line, &word, from).any(|at| at < borrow)
    })
}

impl Pattern {
    fn matcher(&self) -> Matcher {
        match *self {
            Pattern::Any(alts) => Matcher::Any(alts.iter().map(|a| Alt::parse(a)).collect()),
            Pattern::Owned(word) => Matcher::Owned(word),
        }
    }

    /// Each alternative as a matcher of its own.
    fn alternatives(&self) -> Vec<(&'static str, Matcher)> {
        match *self {
            Pattern::Any(alts) => alts
                .iter()
                .map(|a| (*a, Matcher::Any(vec![Alt::parse(a)])))
                .collect(),
            Pattern::Owned(word) => vec![(word, Matcher::Owned(word))],
        }
    }
}

impl Matcher {
    fn is_match(&self, line: &str) -> bool {
        match self {
            Matcher::Any(alts) => alts.iter().any(|alt| alt.spans(line).next().is_some()),
            Matcher::Owned(word) => owns(line, word),
        }
    }

    /// The matches in `line` that grep -o prints: leftmost first, the
    /// longest at each start, none overlapping.
    fn count(&self, line: &str) -> usize {
        let Matcher::Any(alts) = self else {
            return usize::from(self.is_match(line));
        };
        let mut spans: Vec<(usize, usize)> = alts.iter().flat_map(|alt| alt.spans(line)).collect();
        spans.sort_by_key(|&(start, end)| (start, std::cmp::Reverse(end)));
        let mut next = 0;
        let mut n = 0;
        for (start, end) in spans {
            if start >= next {
                n += 1;
                next = end;
            }
        }
        n
    }
}

// ---------------------------------------------------------------- the tree

/// The files and directories under the top-level paths the guards read.
#[derive(Clone, Default)]
struct Tree {
    /// Contents by path relative to the repository root, `/`-separated.
    files: BTreeMap<String, String>,
    dirs: BTreeSet<String>,
}

impl Tree {
    fn read(root: &Path, tops: BTreeSet<&str>) -> Tree {
        fn walk(root: &Path, rel: &str, tree: &mut Tree) {
            let path = root.join(rel);
            if path.is_dir() {
                tree.dirs.insert(rel.to_string());
                for entry in fs::read_dir(&path).unwrap().flatten() {
                    let name = entry.file_name();
                    walk(root, &format!("{rel}/{}", name.to_string_lossy()), tree);
                }
            } else if path.is_file() && rel != THIS_FILE {
                let bytes = fs::read(&path).unwrap();
                let text = String::from_utf8_lossy(&bytes).into_owned();
                tree.files.insert(rel.to_string(), text);
            }
        }
        let mut tree = Tree::default();
        for top in tops {
            walk(root, top, &mut tree);
        }
        tree
    }

    fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path) || self.dirs.contains(path)
    }

    /// The names directly under `dir`.
    fn children(&self, dir: &str) -> BTreeSet<&str> {
        let prefix = format!("{dir}/");
        let paths = self.files.keys().chain(&self.dirs);
        let under = paths.filter_map(|p| p.strip_prefix(prefix.as_str()));
        under.filter(|rest| !rest.contains('/')).collect()
    }

    /// The existing paths `path` names, each `*` segment standing for
    /// every directory there.
    fn expand(&self, path: &str) -> Vec<String> {
        let mut found = vec![String::new()];
        for segment in path.split('/') {
            let join = |base: &str, name: &str| match base {
                "" => name.to_string(),
                _ => format!("{base}/{name}"),
            };
            found = (found.iter())
                .flat_map(|base| match segment {
                    "*" => (self.children(base).into_iter())
                        .map(|name| join(base, name))
                        .filter(|p| self.dirs.contains(p))
                        .collect(),
                    _ => vec![join(base, segment)],
                })
                .collect();
        }
        found.retain(|p| self.exists(p));
        found
    }

    /// The files `g` reads, less its exceptions. A path that does not exist
    /// is an error.
    fn files_of<'t>(&'t self, g: &Guard) -> Result<Vec<(&'t str, &'t str)>, String> {
        let mut out = BTreeMap::new();
        for path in g.paths {
            let found = self.expand(path);
            if found.is_empty() {
                return Err(format!("{path} does not exist"));
            }
            for p in found {
                let under = format!("{p}/");
                let files = self
                    .files
                    .iter()
                    .filter(|(f, _)| **f == p || f.starts_with(&under));
                out.extend(files.map(|(f, text)| (f.as_str(), text.as_str())));
            }
        }
        out.retain(|f, _| !g.except.contains(f));
        Ok(out.into_iter().collect())
    }
}

/// The in-scope lines of `file`, numbered from 1.
fn scoped<'t>(g: &Guard, file: &str, text: &'t str) -> Vec<(usize, &'t str)> {
    let text = if g.scope.non_test {
        non_test(text)
    } else {
        text
    };
    let excepted: Vec<&str> = (g.except.iter())
        .filter_map(|e| e.strip_prefix(file)?.strip_prefix(':'))
        .collect();
    let region = match g.scope.region {
        Region::All => None,
        Region::Inside(from, to) => Some((true, Alt::parse(from), Alt::parse(to))),
        Region::Outside(from, to) => Some((false, Alt::parse(from), Alt::parse(to))),
    };
    let mut inside = false;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let keep = match &region {
            None => true,
            Some((keep_inside, from, to)) => {
                // sed's range: its end is looked for from the line after
                // its start.
                let in_range = if inside {
                    inside = to.spans(line).next().is_none();
                    true
                } else {
                    inside = from.spans(line).next().is_some();
                    inside
                };
                in_range == *keep_inside
            }
        };
        let comment = g.scope.code_only && line.trim_start_matches(SPACE).starts_with("//");
        if keep && !comment && !excepted.contains(&line) {
            out.push((i + 1, line));
        }
    }
    out
}

// ---------------------------------------------------------------- checking

/// Whether `g` holds on `tree`; the error says where it fires.
fn check(g: &Guard, tree: &Tree) -> Result<(), String> {
    match g.rule {
        Rule::NoPath => {
            return match g.paths.iter().find(|p| tree.exists(p)) {
                Some(p) => Err(format!("{p} exists")),
                None => Ok(()),
            };
        }
        Rule::Listing(names) => {
            let dir = g.paths[0];
            if !tree.dirs.contains(dir) {
                return Err(format!("{dir} does not exist"));
            }
            let found: Vec<&str> = tree.children(dir).into_iter().collect();
            return match found == names {
                true => Ok(()),
                false => Err(format!("{dir} holds {found:?}, not {names:?}")),
            };
        }
        _ => {}
    }
    let matcher = g.pattern.matcher();
    let mut count = 0;
    let mut hits = Vec::new();
    for (file, text) in tree.files_of(g)? {
        let lines = scoped(g, file, text);
        if let Rule::Squeezed(_) = g.rule {
            let squeezed: String = lines
                .iter()
                .flat_map(|(_, l)| l.chars())
                .filter(|&c| c != ' ')
                .collect();
            let n = matcher.count(&squeezed);
            count += n;
            if n > 0 {
                hits.push(format!("{file}: {n} with spaces and line breaks removed"));
            }
            continue;
        }
        for (n, line) in lines {
            let found = match g.rule {
                Rule::Matches(_) => matcher.count(line),
                _ => usize::from(matcher.is_match(line)),
            };
            if found > 0 {
                count += found;
                hits.push(format!("{file}:{n}: {}", line.trim()));
            }
        }
    }
    let (holds, wanted) = match g.rule {
        Rule::Absent => (count == 0, "none".to_string()),
        Rule::Present => (count > 0, "at least one".to_string()),
        Rule::Lines(n) => (count == n, format!("{n} line(s)")),
        Rule::Matches(n) | Rule::Squeezed(n) => (count == n, format!("{n}")),
        Rule::NoPath | Rule::Listing(_) => unreachable!("checked above"),
    };
    match holds {
        true => Ok(()),
        false => Err(format!(
            "{count} found, {wanted} wanted\n    {}",
            hits.join("\n    ")
        )),
    }
}

/// `tree` with `g`'s witness applied.
fn witnessed(g: &Guard, tree: &Tree) -> Result<Tree, String> {
    let mut edited = tree.clone();
    match g.witness {
        Witness::Insert(file, line) => {
            let text = tree
                .files
                .get(file)
                .ok_or(format!("{file} does not exist"))?;
            let Some(&(after, _)) = scoped(g, file, text).first() else {
                return Err(format!("{file} has no in-scope line"));
            };
            let mut lines: Vec<&str> = text.lines().collect();
            lines.insert(after, line);
            edited
                .files
                .insert(file.to_string(), lines.join("\n") + "\n");
        }
        Witness::Remove => {
            let matcher = g.pattern.matcher();
            for (file, text) in tree.files_of(g)? {
                let scope = scoped(g, file, text);
                let hits: BTreeSet<usize> = (scope.into_iter())
                    .filter(|(_, line)| matcher.is_match(line))
                    .map(|(n, _)| n)
                    .collect();
                let kept = (text.lines().enumerate()).filter(|(i, _)| !hits.contains(&(i + 1)));
                let kept: Vec<&str> = kept.map(|(_, line)| line).collect();
                edited
                    .files
                    .insert(file.to_string(), kept.join("\n") + "\n");
            }
        }
        Witness::Add(path) => {
            edited.files.insert(path.to_string(), String::new());
        }
    }
    Ok(edited)
}

/// What is wrong with `g` on `tree`, each line naming the guard: it fails
/// on the tree, it does not fire on its witness, or an alternative of its
/// pattern does not match its inserted line.
fn failures(g: &Guard, tree: &Tree) -> Vec<String> {
    let mut out = Vec::new();
    if let Err(e) = check(g, tree) {
        out.push(format!("guard \"{}\" fails: {e}", g.name));
    }
    match witnessed(g, tree) {
        Err(e) => out.push(format!(
            "guard \"{}\": its witness cannot be applied: {e}",
            g.name
        )),
        Ok(edited) if check(g, &edited).is_ok() => {
            out.push(format!("guard \"{}\" does not fire on its witness", g.name));
        }
        Ok(_) => {}
    }
    if let Witness::Insert(_, line) = g.witness {
        let line = match g.rule {
            Rule::Squeezed(_) => line.replace(' ', ""),
            _ => line.to_string(),
        };
        for (alt, matcher) in g.pattern.alternatives() {
            if !matcher.is_match(&line) {
                out.push(format!(
                    "guard \"{}\": {alt:?} does not match its witness",
                    g.name
                ));
            }
        }
    }
    out
}

#[test]
fn every_guard_holds_and_fires_on_its_witness() {
    let tops = GUARDS
        .iter()
        .flat_map(|g| g.paths)
        .map(|p| p.split('/').next().unwrap());
    let tree = Tree::read(&repo_root(), tops.collect());
    let failed: Vec<String> = GUARDS.iter().flat_map(|g| failures(g, &tree)).collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

// ---------------------------------------------------------------- unit tests

fn tree_of(files: &[(&str, &str)]) -> Tree {
    let mut tree = Tree::default();
    for (path, text) in files {
        tree.files.insert(path.to_string(), text.to_string());
        let mut dir = *path;
        while let Some((parent, _)) = dir.rsplit_once('/') {
            tree.dirs.insert(parent.to_string());
            dir = parent;
        }
    }
    tree
}

#[test]
fn the_matcher_reads_the_shell_forms_in_use() {
    let hits =
        |alts: &'static [&'static str], line: &str| Pattern::Any(alts).matcher().is_match(line);
    // grep -E "ChunkBuilder|Bitmap": alternation
    assert!(hits(
        &["ChunkBuilder", "Bitmap"],
        "let b = Bitmap::ones(n);"
    ));
    assert!(!hits(&["ChunkBuilder", "Bitmap"], "let b = Chunk::new();"));
    // `(`, `.` and `|` are themselves, as `\(`, `\.` and `\|` were
    assert!(hits(&[".sort("], "rows.sort();"));
    assert!(!hits(&[".sort("], "rows_sort();"));
    // \b at either end
    assert!(hits(&[r"\bJournal\b"], "journal: Journal<S>,"));
    assert!(!hits(&[r"\bJournal\b"], "struct GroupJournal; Journaled"));
    assert!(hits(&[r".groups\b"], "self.groups.get(k)"));
    assert!(!hits(&[r".groups\b"], "self.groups_len"));
    assert!(hits(&[r"std::thread\b"], "use std::thread;"));
    assert!(!hits(&[r"std::thread\b"], "std::thread_local!"));
    // ^: the line's start
    assert!(hits(
        &["^fn expected_aux_rows("],
        "fn expected_aux_rows(plan: &Plan)"
    ));
    assert!(!hits(
        &["^fn expected_aux_rows("],
        "    fn expected_aux_rows("
    ));
    // A.*B: both on one line, in that order
    assert!(hits(
        &["collections::…HashMap"],
        "use std::collections::{BTreeMap, HashMap};"
    ));
    assert!(!hits(
        &["collections::…HashMap"],
        "HashMap from std::collections::"
    ));
    assert!(hits(
        &["lookup_by_key…|("],
        "s.lookup_by_key(v).map(|(k, _)| k)"
    ));
    assert!(hits(
        &["let (…lookup_by_key"],
        "let (key, state) = s.lookup_by_key(v)?;"
    ));
    // `(^|[^d])HashSet<Row>` is the literal: every line the class matched,
    // and `SeededHashSet<Row>` besides
    for line in [
        "HashSet<Row>",
        "x: HashSet<Row>",
        "Vec<HashSet<Row>>",
        "FxHashSet<Row>",
        "SeededHashSet<Row>",
    ] {
        assert!(hits(&["HashSet<Row>"], line), "{line}");
    }
    // `:#?\?\}`: an optional character as two alternatives
    assert!(hits(&[":?}", ":#?}"], "format!(\"{plan:?}\")"));
    assert!(hits(&[":?}", ":#?}"], "format!(\"{plan:#?}\")"));
    assert!(!hits(&[":?}", ":#?}"], "format!(\"{plan}\")"));
    // grep -o counts matches, not lines, and no two overlap
    let count =
        |alts: &'static [&'static str], line: &str| Pattern::Any(alts).matcher().count(line);
    assert_eq!(
        count(
            &[r"\bunsafe {", r"\bunsafe fn"],
            "unsafe fn f() { unsafe { g() } }"
        ),
        2
    );
    assert_eq!(count(&["aa"], "aaaa"), 2);
    assert_eq!(count(&["a…b"], "a b a b"), 1);
    // the "One store per definition" field: AuxStore owned, not borrowed
    let owned = |line: &str| Pattern::Owned("AuxStore").matcher().is_match(line);
    assert!(owned("    stores: BTreeMap<StoreId, AuxStore>,"));
    assert!(owned("    pub(crate) store: AuxStore,"));
    assert!(owned("pub store: Option<AuxStore>"));
    assert!(!owned("    store: &'a AuxStore,"));
    assert!(!owned("    stores: &BTreeMap<StoreId, AuxStore>,"));
    assert!(!owned(
        "    let held: usize = stores.map(AuxStore::undo_weight).sum();"
    ));
    assert!(!owned("    fn f(store: AuxStore)"));
    assert!(!owned("    stores: Vec<AuxStoreId>,"));
}

#[test]
fn a_scope_cuts_each_file_as_the_shell_did() {
    let src = "//! doc\nfn expected_aux_rows(x) {\n    ExpansionSum\n}\n// ExpansionSum\n\
               let s = ExpansionSum;\n#[cfg(test)]\nmod tests { ExpansionSum }\n";
    let tree = tree_of(&[("m/src/a.rs", src)]);
    let row = |scope, rule| Guard {
        name: "row",
        paths: &["m/src"],
        scope,
        pattern: Pattern::Any(&["ExpansionSum"]),
        rule,
        ..ROW
    };
    let oracle = Region::Outside(ORACLE.0, ORACLE.1);
    assert!(check(&row(WHOLE, Rule::Lines(4)), &tree).is_ok());
    assert!(check(&row(NON_TEST, Rule::Lines(3)), &tree).is_ok());
    let without = Scope {
        region: oracle,
        ..NON_TEST
    };
    assert!(check(&row(without, Rule::Lines(2)), &tree).is_ok());
    let code = Scope {
        code_only: true,
        ..without
    };
    assert!(check(&row(code, Rule::Lines(1)), &tree).is_ok());
    let inside = Scope {
        region: Region::Inside(ORACLE.0, ORACLE.1),
        ..NON_TEST
    };
    assert!(check(&row(inside, Rule::Lines(1)), &tree).is_ok());
    // `tr -d ' \n'`: a call split over lines still counts
    let split = tree_of(&[("m/src/a.rs", "self.key_index\n    .entry(k)\n")]);
    let squeezed = Guard {
        pattern: Pattern::Any(&["key_index.entry("]),
        ..row(WHOLE, Rule::Squeezed(1))
    };
    assert!(check(&squeezed, &split).is_ok());
}

#[test]
fn a_moved_path_fails_its_row_by_name() {
    let tree = tree_of(&[("crates/maintain/src/resolve.rs", "fn hop() {}\n")]);
    let moved: [&[&str]; 3] = [
        &["crates/maintain/src/resolver.rs"],
        &["crates/maintain/srcs"],
        &["crates/*/lib"],
    ];
    for paths in moved {
        let path = paths[0];
        let moved = Guard {
            name: "One probe per hop",
            paths,
            pattern: Pattern::Any(&["get_key_value"]),
            witness: Witness::Insert(path, "get_key_value"),
            ..ROW
        };
        let failed = failures(&moved, &tree);
        let named = format!("guard \"One probe per hop\" fails: {path} does not exist");
        assert!(
            failed.first().is_some_and(|f| f.starts_with(&named)),
            "{failed:?}"
        );
    }
}
