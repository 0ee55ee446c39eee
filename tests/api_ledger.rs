//! The public surface is a ledger: `api/<crate>.txt` lists, for each of the
//! nine library crates, every public path and every inherent public method,
//! one per line, and each entry has a caller outside its own crate.
//!
//! The ledger is computed by a source scan (std only). A crate's modules
//! are private, so its surface is what its `lib.rs` re-exports (`pub use`,
//! nested braces, `self` and `as` included), the items `lib.rs` defines, the
//! items of a remaining `pub mod` namespace, `#[macro_export]` macros, and
//! the `pub fn`s of inherent `impl` blocks of listed types. Trait impls,
//! fields and variants are not listed. Each file is read up to its first
//! `#[cfg(test)]` line, and `pub(crate)`, `pub(super)` and `pub(in …)` items
//! are skipped.
//!
//! A caller is a file of another crate's `src` or `tests`, of
//! `crates/bench`, `examples/`, the root `tests/` or `benchmark/src` that
//! reaches the entry; a crate's own tests are not callers of its surface.
//! A name at a crate root is reached through its path (`md_core::derive`,
//! `md_core::{…, derive}`), so a re-export of another crate's item
//! (md-warehouse's facade) is called only through the facade. A method or a
//! namespace item is reached by its last segment (comments and strings do
//! not count): that check is by name, so a common method name (`new`,
//! `len`) always finds a caller. An entry without a caller
//! carries one trailing reason, `# kept: <reason>`; an entry whose only
//! callers are under `benchmark/` carries `# waits for [benchmark]`, and
//! only such an entry does. A `kept` reason on an entry that has a caller is
//! stale.
//!
//! On a difference the test writes the computed ledger under
//! `CARGO_TARGET_TMPDIR/api/` (reasons carried over) and prints the added and
//! removed lines. A `pub mod` that its `lib.rs` also re-exports from fails
//! as well: its names would have two paths.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

#[path = "source.rs"]
mod source;
use source::{non_test, repo_root};

/// `(directory under crates/, package name)` of each ledgered crate.
const CRATES: [(&str, &str); 9] = [
    ("relation", "md-relation"),
    ("algebra", "md-algebra"),
    ("core", "md-core"),
    ("maintain", "md-maintain"),
    ("warehouse", "md-warehouse"),
    ("obs", "md-obs"),
    ("sqlgpsj", "md-sql"),
    ("check", "md-check"),
    ("workload", "md-workload"),
];

const WAITS: &str = "waits for [benchmark]";

// ---------------------------------------------------------------- lexing

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
    /// A string, char or number literal; its content never matters here.
    Lit,
}

fn is_ident(t: Option<&Tok>, name: &str) -> bool {
    matches!(t, Some(Tok::Ident(s)) if s == name)
}

fn is_punct(t: Option<&Tok>, c: char) -> bool {
    t == Some(&Tok::Punct(c))
}

/// Tokens of `src` with comments dropped and literals opaque, so braces
/// inside strings or chars never count and a name in a doc comment is not a
/// caller.
fn lex(src: &str) -> Vec<Tok> {
    let cs: Vec<char> = src.chars().collect();
    let at = |i: usize| cs.get(i).copied().unwrap_or('\0');
    let mut out = Vec::new();
    let mut i = 0;
    while i < cs.len() {
        let c = cs[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '/' && at(i + 1) == '/' {
            while i < cs.len() && cs[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < cs.len() {
                if cs[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if cs[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            i = skip_string(&cs, i + 1);
            out.push(Tok::Lit);
        } else if c == '\'' {
            if at(i + 1) == '\\' {
                i += 3;
                while i < cs.len() && cs[i] != '\'' {
                    i += 1;
                }
                i += 1;
                out.push(Tok::Lit);
            } else if at(i + 2) == '\'' {
                i += 3;
                out.push(Tok::Lit);
            } else {
                // A lifetime or a label: neither names an item.
                i += 1;
                while at(i).is_alphanumeric() || at(i) == '_' {
                    i += 1;
                }
            }
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while at(i).is_alphanumeric() || at(i) == '_' {
                i += 1;
            }
            let word: String = cs[start..i].iter().collect();
            let raw_prefix = matches!(word.as_str(), "r" | "br" | "cr");
            if matches!(word.as_str(), "b" | "c") && at(i) == '"' {
                i = skip_string(&cs, i + 1);
                out.push(Tok::Lit);
            } else if word == "b" && at(i) == '\'' {
                i += 1;
                if at(i) == '\\' {
                    i += 1;
                }
                i += 1;
                while i < cs.len() && cs[i] != '\'' {
                    i += 1;
                }
                i += 1;
                out.push(Tok::Lit);
            } else if raw_prefix && (at(i) == '"' || (at(i) == '#' && at(i + 1) != '\0')) {
                let mut hashes = 0;
                while at(i) == '#' {
                    hashes += 1;
                    i += 1;
                }
                if at(i) != '"' {
                    // `r#ident`: a raw identifier.
                    let start = i;
                    while at(i).is_alphanumeric() || at(i) == '_' {
                        i += 1;
                    }
                    out.push(Tok::Ident(cs[start..i].iter().collect()));
                    continue;
                }
                i += 1;
                loop {
                    if i >= cs.len() {
                        break;
                    }
                    if cs[i] == '"' && (1..=hashes).all(|k| at(i + k) == '#') {
                        i += 1 + hashes;
                        break;
                    }
                    i += 1;
                }
                out.push(Tok::Lit);
            } else {
                out.push(Tok::Ident(word));
            }
        } else if c.is_ascii_digit() {
            while at(i).is_alphanumeric()
                || at(i) == '_'
                || (at(i) == '.' && at(i + 1).is_ascii_digit())
            {
                i += 1;
            }
            out.push(Tok::Lit);
        } else {
            out.push(Tok::Punct(c));
            i += 1;
        }
    }
    out
}

/// The index just past the `"` that closes a string whose body starts at `i`.
fn skip_string(cs: &[char], mut i: usize) -> usize {
    while i < cs.len() {
        match cs[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

// ---------------------------------------------------------------- items

#[derive(Debug, Clone, Copy, PartialEq)]
enum Vis {
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` and no `pub` at all.
    Narrow,
}

#[derive(Debug)]
struct Item {
    attrs: Vec<String>,
    vis: Vis,
    /// `fn`, `struct`, `enum`, `union`, `trait`, `type`, `const`, `static`,
    /// `mod`, `use`, `impl`, `macro_rules`, or empty for anything else.
    kind: String,
    name: String,
    /// `use`: the tree; `impl`: the header between `impl` and `{`.
    head: Vec<Tok>,
    /// The tokens inside the item's braces, if it has a brace body.
    body: Vec<Tok>,
}

impl Item {
    fn has_attr(&self, attr: &str) -> bool {
        self.attrs.iter().any(|a| a == attr)
    }
}

/// The index of the token that closes the group opened at `open`.
fn close_of(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

fn attr_text(toks: &[Tok]) -> String {
    toks.iter()
        .map(|t| match t {
            Tok::Ident(s) => s.clone(),
            Tok::Punct(c) => c.to_string(),
            Tok::Lit => "\"\"".to_string(),
        })
        .collect()
}

/// The items at the top level of `toks` (a file, or an `impl` body).
fn items(toks: &[Tok]) -> Vec<Item> {
    let mut out = Vec::new();
    let mut attrs = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_punct(toks.get(i), '#') {
            let inner = is_punct(toks.get(i + 1), '!');
            let open = if inner { i + 2 } else { i + 1 };
            let close = close_of(toks, open);
            if !inner {
                attrs.push(attr_text(&toks[open + 1..close]));
            }
            i = close + 1;
            continue;
        }
        let mut vis = Vis::Narrow;
        if is_ident(toks.get(i), "pub") {
            i += 1;
            if is_punct(toks.get(i), '(') {
                i = close_of(toks, i) + 1;
            } else {
                vis = Vis::Pub;
            }
        }
        loop {
            let qualifier = match toks.get(i) {
                Some(Tok::Ident(s)) => match s.as_str() {
                    "unsafe" | "async" | "default" | "extern" => true,
                    "const" => ["fn", "unsafe", "async", "extern"]
                        .iter()
                        .any(|k| is_ident(toks.get(i + 1), k)),
                    _ => false,
                },
                Some(Tok::Lit) => i > 0 && is_ident(toks.get(i - 1), "extern"),
                _ => false,
            };
            if !qualifier {
                break;
            }
            i += 1;
        }
        let mut item = Item {
            attrs: std::mem::take(&mut attrs),
            vis,
            kind: String::new(),
            name: String::new(),
            head: Vec::new(),
            body: Vec::new(),
        };
        let mut semi_only = false;
        match toks.get(i) {
            Some(Tok::Ident(k)) => match k.as_str() {
                "fn" | "struct" | "enum" | "union" | "trait" | "type" | "const" | "static"
                | "mod" => {
                    item.kind = k.clone();
                    i += 1;
                    if is_ident(toks.get(i), "mut") {
                        i += 1;
                    }
                    if let Some(Tok::Ident(name)) = toks.get(i) {
                        item.name = name.clone();
                    }
                    semi_only = matches!(k.as_str(), "type" | "const" | "static");
                }
                "use" => {
                    item.kind = k.clone();
                    i += 1;
                    let start = i;
                    while i < toks.len() && !is_punct(toks.get(i), ';') {
                        i += 1;
                    }
                    item.head = toks[start..i].to_vec();
                }
                "impl" => {
                    item.kind = k.clone();
                    i += 1;
                    let start = i;
                    while i < toks.len() && !is_punct(toks.get(i), '{') {
                        if matches!(toks[i], Tok::Punct('(' | '[')) {
                            i = close_of(toks, i);
                        }
                        i += 1;
                    }
                    item.head = toks[start..i].to_vec();
                }
                "macro_rules" if is_punct(toks.get(i + 1), '!') => {
                    item.kind = k.clone();
                    i += 2;
                    if let Some(Tok::Ident(name)) = toks.get(i) {
                        item.name = name.clone();
                    }
                }
                _ => {}
            },
            None => break,
            _ => {}
        }
        // The item ends at `;` or at the close of its first brace group.
        while i < toks.len() {
            match toks[i] {
                Tok::Punct(';') => break,
                Tok::Punct('{') if !semi_only => {
                    let close = close_of(toks, i);
                    item.body = toks[i + 1..close.min(toks.len())].to_vec();
                    i = close;
                    break;
                }
                Tok::Punct('(' | '[' | '{') => i = close_of(toks, i) + 1,
                _ => i += 1,
            }
        }
        i += 1;
        out.push(item);
    }
    out
}

/// `(path, bound name)` of each leaf of a `use` tree; `as _` binds nothing.
fn use_leaves(tree: &[Tok]) -> Vec<(Vec<String>, Option<String>)> {
    fn walk(
        toks: &[Tok],
        i: &mut usize,
        prefix: Vec<String>,
        out: &mut Vec<(Vec<String>, Option<String>)>,
    ) {
        let mut path = prefix;
        loop {
            match toks.get(*i) {
                Some(Tok::Punct(':')) => *i += 1,
                Some(Tok::Punct('{')) => {
                    *i += 1;
                    while *i < toks.len() && !is_punct(toks.get(*i), '}') {
                        walk(toks, i, path.clone(), out);
                        if is_punct(toks.get(*i), ',') {
                            *i += 1;
                        }
                    }
                    *i += 1;
                    return;
                }
                Some(Tok::Punct('*')) => {
                    *i += 1;
                    path.push("*".to_string());
                    out.push((path, None));
                    return;
                }
                Some(Tok::Ident(seg)) => {
                    path.push(seg.clone());
                    *i += 1;
                    if is_punct(toks.get(*i), ':') {
                        continue;
                    }
                    if path.last().map(String::as_str) == Some("self") {
                        path.pop();
                    }
                    let mut bound = path.last().cloned();
                    if is_ident(toks.get(*i), "as") {
                        bound = match toks.get(*i + 1) {
                            Some(Tok::Ident(alias)) if alias != "_" => Some(alias.clone()),
                            _ => None,
                        };
                        *i += 2;
                    }
                    out.push((path, bound));
                    return;
                }
                _ => {
                    *i += 1;
                    return;
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut i = 0;
    while i < tree.len() {
        walk(tree, &mut i, Vec::new(), &mut out);
    }
    out
}

/// The self type of an inherent `impl` header, `None` for a trait impl.
fn inherent_self_type(head: &[Tok]) -> Option<String> {
    let mut i = 0;
    if is_punct(head.first(), '<') {
        let mut depth = 0;
        while i < head.len() {
            match head[i] {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') if !is_punct(head.get(i.wrapping_sub(1)), '-') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i += 1;
    }
    let mut depth = 0;
    let mut name = None;
    for t in &head[i.min(head.len())..] {
        match t {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => depth -= 1,
            Tok::Ident(s) if depth == 0 && s == "for" => return None,
            Tok::Ident(s) if depth == 0 && s == "where" => break,
            Tok::Ident(s) if depth == 0 => name = Some(s.clone()),
            _ => {}
        }
    }
    name
}

// ---------------------------------------------------------------- listing

/// Lists the crate `lib` whose source files are `files` (paths relative to
/// its `src/`, `/`-separated).
fn list_crate(lib: &str, files: &BTreeMap<String, String>) -> BTreeSet<String> {
    let parsed: BTreeMap<&str, Vec<Item>> = files
        .iter()
        .map(|(path, src)| (path.as_str(), items(&lex(non_test(src)))))
        .collect();
    let mut listing = BTreeSet::new();
    // (entry path, name the item is defined under)
    let mut defs: Vec<(String, String)> = Vec::new();
    list_module(&parsed, "lib.rs", lib, &mut listing, &mut defs);
    let mut methods: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for file_items in parsed.values() {
        for item in file_items {
            if item.kind == "macro_rules" && item.has_attr("macro_export") {
                listing.insert(format!("{lib}::{}", item.name));
            }
            if item.kind != "impl" || item.has_attr("cfg(test)") {
                continue;
            }
            let Some(ty) = inherent_self_type(&item.head) else {
                continue;
            };
            for m in items(&item.body) {
                if m.vis == Vis::Pub && m.kind == "fn" && !m.has_attr("cfg(test)") {
                    methods.entry(ty.clone()).or_default().insert(m.name);
                }
            }
        }
    }
    for (path, def) in defs {
        for m in methods.get(&def).into_iter().flatten() {
            listing.insert(format!("{path}::{m}"));
        }
    }
    listing
}

/// The file a `mod name;` declared in `file` lives in.
fn module_file(parsed: &BTreeMap<&str, Vec<Item>>, file: &str, name: &str) -> Option<String> {
    let dir = match file.rsplit_once('/') {
        Some((d, "mod.rs")) => format!("{d}/"),
        Some((d, base)) => format!("{d}/{}/", base.trim_end_matches(".rs")),
        None if file == "lib.rs" || file == "mod.rs" => String::new(),
        None => format!("{}/", file.trim_end_matches(".rs")),
    };
    [format!("{dir}{name}.rs"), format!("{dir}{name}/mod.rs")]
        .into_iter()
        .find(|f| parsed.contains_key(f.as_str()))
}

fn list_module(
    parsed: &BTreeMap<&str, Vec<Item>>,
    file: &str,
    public_path: &str,
    listing: &mut BTreeSet<String>,
    defs: &mut Vec<(String, String)>,
) {
    let Some(file_items) = parsed.get(file) else {
        return;
    };
    let local_mods: BTreeSet<&str> = file_items
        .iter()
        .filter(|it| it.kind == "mod")
        .map(|it| it.name.as_str())
        .collect();
    for item in file_items {
        if item.vis != Vis::Pub || item.has_attr("cfg(test)") {
            continue;
        }
        match item.kind.as_str() {
            "use" => {
                for (path, bound) in use_leaves(&item.head) {
                    assert!(
                        path.last().map(String::as_str) != Some("*"),
                        "{file}: a glob re-export hides which names are public"
                    );
                    let Some(bound) = bound else { continue };
                    let entry = format!("{public_path}::{bound}");
                    let first = path[0].as_str();
                    if matches!(first, "crate" | "self" | "super") || local_mods.contains(first) {
                        defs.push((entry.clone(), path.last().unwrap().clone()));
                    }
                    listing.insert(entry);
                }
            }
            "mod" => {
                if let Some(sub) = module_file(parsed, file, &item.name) {
                    let path = format!("{public_path}::{}", item.name);
                    list_module(parsed, &sub, &path, listing, defs);
                }
            }
            "fn" | "struct" | "enum" | "union" | "trait" | "type" | "const" | "static" => {
                let entry = format!("{public_path}::{}", item.name);
                defs.push((entry.clone(), item.name.clone()));
                listing.insert(entry);
            }
            _ => {}
        }
    }
}

/// Every `.rs` file under `dir`, keyed by its path relative to `dir`.
fn rust_files(dir: &Path) -> BTreeMap<String, String> {
    fn walk(base: &Path, dir: &Path, out: &mut BTreeMap<String, String>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(base, &path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(base).unwrap();
                let rel = rel.to_string_lossy().replace('\\', "/");
                out.insert(rel, fs::read_to_string(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn lib_name(package: &str) -> String {
    package.replace('-', "_")
}

// ---------------------------------------------------------------- ledger files

/// A checked-in ledger line: the entry and its reason, if any.
fn parse_line(line: &str) -> (&str, Option<&str>) {
    match line.split_once(" # ") {
        Some((path, reason)) => (path.trim_end(), Some(reason.trim())),
        None => (line.trim_end(), None),
    }
}

#[test]
fn the_ledger_matches_the_source() {
    let root = repo_root();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("api");
    let mut failures = Vec::new();
    for (dir, package) in CRATES {
        let listing = list_crate(
            &lib_name(package),
            &rust_files(&root.join("crates").join(dir).join("src")),
        );
        let ledger_path = root.join("api").join(format!("{package}.txt"));
        let checked_in = fs::read_to_string(&ledger_path).unwrap_or_default();
        let reasons: BTreeMap<&str, &str> = checked_in
            .lines()
            .filter_map(|l| match parse_line(l) {
                (path, Some(reason)) => Some((path, reason)),
                _ => None,
            })
            .collect();
        let listed: BTreeSet<&str> = checked_in.lines().map(|l| parse_line(l).0).collect();
        let computed: BTreeSet<&str> = listing.iter().map(String::as_str).collect();
        if listed == computed {
            continue;
        }
        let mut text = String::new();
        for entry in &computed {
            text.push_str(entry);
            if let Some(reason) = reasons.get(entry) {
                text.push_str("  # ");
                text.push_str(reason);
            }
            text.push('\n');
        }
        fs::create_dir_all(&out_dir).unwrap();
        let written = out_dir.join(format!("{package}.txt"));
        fs::write(&written, text).unwrap();
        let mut msg = format!(
            "api/{package}.txt differs from the source ({} computed, {} listed); computed ledger written to {}",
            computed.len(),
            listed.len(),
            written.display()
        );
        for added in computed.difference(&listed) {
            msg.push_str(&format!("\n  + {added}"));
        }
        for removed in listed.difference(&computed) {
            msg.push_str(&format!("\n  - {removed}"));
        }
        failures.push(msg);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The modules `lib` declares `pub mod` and also re-exports from: a `pub
/// mod` stays only as a namespace whose items are not re-exported
/// (`md_workload::views`), or its names have two paths. The whole file
/// counts, its test tail included.
fn two_path_modules(lib: &str) -> Vec<String> {
    let items = items(&lex(lib));
    let public =
        |kind: &'static str| (items.iter()).filter(move |it| it.vis == Vis::Pub && it.kind == kind);
    let re_exported: BTreeSet<String> = public("use")
        .flat_map(|it| use_leaves(&it.head))
        .filter_map(|(path, _)| {
            let skip = usize::from(path.first().is_some_and(|s| s == "self"));
            path.get(skip).cloned()
        })
        .collect();
    public("mod")
        .filter(|it| re_exported.contains(&it.name))
        .map(|it| it.name.clone())
        .collect()
}

#[test]
fn no_public_module_is_also_re_exported() {
    let mut failures = Vec::new();
    for entry in fs::read_dir(repo_root().join("crates")).unwrap().flatten() {
        let lib = entry.path().join("src/lib.rs");
        let Ok(src) = fs::read_to_string(&lib) else {
            continue;
        };
        for module in two_path_modules(&src) {
            failures.push(format!(
                "{}: module {module} is public and re-exported",
                lib.display()
            ));
        }
    }
    assert!(failures.is_empty(), "two paths:\n{}", failures.join("\n"));
}

#[test]
fn a_public_module_that_is_re_exported_is_found() {
    let lib = "pub mod views;\npub mod a;\nmod c;\npub use a::X;\npub use self::b::Y;\n\
               pub use c::{Z, views};\npub mod b {}\n#[cfg(test)]\npub mod d;\npub use {d::W};\n";
    assert_eq!(two_path_modules(lib), ["a", "b", "d"]);
}

// ---------------------------------------------------------------- callers

/// A file that can call into the library crates.
struct CallerFile {
    path: String,
    /// The ledgered crate whose `src` or `tests` holds the file, if any.
    owner: Option<String>,
    under_benchmark: bool,
    /// Every identifier of the file and of the files it includes by
    /// `#[path]`, comments and literals excluded.
    idents: BTreeSet<String>,
    /// `krate::Name` for each name the file reaches through a crate's root
    /// path (`krate::Name`, `krate::{A, B}`).
    root_paths: BTreeSet<String>,
}

fn root_paths(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        let at_root = i == 0 || !is_punct(toks.get(i - 1), ':');
        let path_sep = is_punct(toks.get(i + 1), ':') && is_punct(toks.get(i + 2), ':');
        if let (Tok::Ident(krate), true, true) = (&toks[i], at_root, path_sep) {
            match toks.get(i + 3) {
                Some(Tok::Ident(name)) => {
                    out.insert(format!("{krate}::{name}"));
                }
                Some(Tok::Punct('{')) => {
                    let close = close_of(toks, i + 3).min(toks.len());
                    for (path, _) in use_leaves(&toks[i + 4..close]) {
                        if let Some(first) = path.first() {
                            out.insert(format!("{krate}::{first}"));
                        }
                    }
                    i = close;
                }
                _ => {}
            }
        }
        i += 1;
    }
    out
}

fn caller_files(root: &Path) -> Vec<CallerFile> {
    let mut dirs: Vec<(String, Option<String>)> = Vec::new();
    for (dir, package) in CRATES {
        for part in ["src", "tests"] {
            dirs.push((format!("crates/{dir}/{part}"), Some(lib_name(package))));
        }
    }
    for dir in ["crates/bench", "examples", "tests", "benchmark/src"] {
        dirs.push((dir.to_string(), None));
    }
    let mut out = Vec::new();
    for (dir, owner) in dirs {
        for (rel, src) in rust_files(&root.join(&dir)) {
            let path = format!("{dir}/{rel}");
            let mut text = src.clone();
            let parent = root.join(&path).parent().unwrap().to_path_buf();
            for line in src.lines() {
                if let Some(included) = line.trim().strip_prefix("#[path = \"") {
                    let included = included.split('"').next().unwrap();
                    text.push_str(&fs::read_to_string(parent.join(included)).unwrap_or_default());
                }
            }
            let toks = lex(&text);
            let idents = (toks.iter())
                .filter_map(|t| match t {
                    Tok::Ident(s) => Some(s.clone()),
                    _ => None,
                })
                .collect();
            out.push(CallerFile {
                under_benchmark: dir.starts_with("benchmark/"),
                path,
                owner: owner.clone(),
                idents,
                root_paths: root_paths(&toks),
            });
        }
    }
    out
}

/// The files outside `entry`'s crate that call it: through its path for
/// a name at the crate root, by its last segment for a method or a
/// namespace item.
fn callers_of<'f>(entry: &str, files: &'f [CallerFile]) -> Vec<&'f CallerFile> {
    let segments: Vec<&str> = entry.split("::").collect();
    (files.iter())
        .filter(|f| f.owner.as_deref() != Some(segments[0]))
        .filter(|f| match segments.len() {
            2 => f.root_paths.contains(entry),
            _ => f.idents.contains(*segments.last().unwrap()),
        })
        .collect()
}

#[test]
fn every_entry_has_a_caller_or_one_reason() {
    let root = repo_root();
    let files = caller_files(&root);
    let mut failures = Vec::new();
    for (_, package) in CRATES {
        let ledger =
            fs::read_to_string(root.join("api").join(format!("{package}.txt"))).unwrap_or_default();
        for line in ledger.lines() {
            let (entry, reason) = parse_line(line);
            let callers = callers_of(entry, &files);
            let outside_benchmark: Vec<&str> = callers
                .iter()
                .filter(|f| !f.under_benchmark)
                .map(|f| f.path.as_str())
                .collect();
            let problem = match reason {
                None if callers.is_empty() => Some("no caller outside its crate".to_string()),
                None if outside_benchmark.is_empty() => {
                    Some(format!("only benchmark/ calls it: mark it `# {WAITS}`"))
                }
                None => None,
                Some(WAITS) if callers.is_empty() => {
                    Some("no caller, not even in benchmark/".to_string())
                }
                Some(WAITS) if !outside_benchmark.is_empty() => Some(format!(
                    "marked `{WAITS}` but called from {}",
                    outside_benchmark.join(", ")
                )),
                Some(WAITS) => None,
                Some(kept)
                    if kept
                        .strip_prefix("kept:")
                        .is_some_and(|r| !r.trim().is_empty()) =>
                {
                    (!callers.is_empty())
                        .then(|| format!("stale reason: called from {}", callers[0].path))
                }
                Some(other) => Some(format!("unknown reason `{other}`")),
            };
            if let Some(problem) = problem {
                failures.push(format!("api/{package}.txt: {entry}: {problem}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

// ---------------------------------------------------------------- test tails

/// The items after `src`'s first `#[cfg(test)]` line that are not test
/// code themselves (`#[cfg(test)]`, or `#[cfg(all(test, …))]`): production
/// code that every reader of a file's non-test part (this ledger, the
/// guards of `tests/guards.rs`, line counts) would skip.
fn untested_tail(src: &str) -> Vec<String> {
    let tail = &src[non_test(src).len()..];
    let is_test = |item: &Item| {
        (item.attrs.iter()).any(|a| a == "cfg(test)" || a.starts_with("cfg(all(test,"))
    };
    let items = items(&lex(tail)).into_iter();
    let untested = items.filter(|item| !is_test(item));
    untested
        .map(|item| format!("{} {}{}", item.kind, item.name, attr_text(&item.head)))
        .collect()
}

#[test]
fn every_item_after_the_first_cfg_test_line_is_test_code() {
    let crates = repo_root().join("crates");
    let mut failures = Vec::new();
    for entry in fs::read_dir(&crates).unwrap().flatten() {
        for (file, src) in rust_files(&entry.path().join("src")) {
            for item in untested_tail(&src) {
                let krate = entry.file_name();
                let krate = krate.to_string_lossy();
                failures.push(format!("crates/{krate}/src/{file}: {item}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "items after a file's first #[cfg(test)] line without #[cfg(test)]:\n{}",
        failures.join("\n")
    );
}

#[test]
fn an_item_after_the_test_tail_is_found() {
    let src = "pub fn kept() {}\n#[cfg(test)]\nimpl S {\n    fn helper() {}\n}\n\
               fn after() {}\n#[cfg(test)]\nmod tests {}\nimpl T for S {}\n";
    assert_eq!(untested_tail(src), ["fn after", "impl TforS"]);
    let tail = "fn a() {}\n#[cfg(test)]\n#[derive(Debug)]\nstruct B;\n\
                #[cfg(all(test, feature = \"proptests\"))]\nmod proptests {}\n";
    assert!(untested_tail(tail).is_empty());
}

// ---------------------------------------------------------------- the lister

fn listed(files: &[(&str, &str)]) -> Vec<String> {
    let files = files
        .iter()
        .map(|(path, src)| (path.to_string(), src.to_string()))
        .collect();
    list_crate("x", &files).into_iter().collect()
}

#[test]
fn nested_use_lists_bind_each_leaf_self_and_rename() {
    let lib = "mod a;\npub use a::{b, c::{d as e, f}, self};\npub use md_y::{Z as W, V as _};\n";
    assert_eq!(
        listed(&[("lib.rs", lib)]),
        ["x::W", "x::a", "x::b", "x::e", "x::f"]
    );
}

#[test]
fn a_file_is_read_up_to_its_cfg_test_tail() {
    let lib = "pub fn kept() {}\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\npub fn after() {}\n";
    assert_eq!(listed(&[("lib.rs", lib)]), ["x::kept"]);
}

#[test]
fn restricted_visibility_is_not_public() {
    let lib = "pub(crate) fn a() {}\npub(in crate::m) fn b() {}\npub(super) fn c() {}\n\
               fn d() {}\npub(crate) use m::E;\npub fn f() {}\n";
    assert_eq!(listed(&[("lib.rs", lib)]), ["x::f"]);
}

#[test]
fn a_doc_hidden_reexport_is_public() {
    let lib = "mod standalone;\n#[doc(hidden)]\npub use standalone::Engine;\n";
    let engine = "pub struct Engine;\nimpl Engine {\n    pub fn run(&self) {}\n}\n";
    assert_eq!(
        listed(&[("lib.rs", lib), ("standalone.rs", engine)]),
        ["x::Engine", "x::Engine::run"]
    );
    // md-maintain's one doc-hidden re-export is ledgered, and waits for the
    // benchmark, its only caller.
    let lib = fs::read_to_string(repo_root().join("crates/maintain/src/lib.rs")).unwrap();
    let hidden = items(&lex(non_test(&lib)))
        .into_iter()
        .find(|it| it.kind == "use" && it.has_attr("doc(hidden)"))
        .unwrap();
    let name = use_leaves(&hidden.head)[0].1.clone().unwrap();
    let maintain = fs::read_to_string(repo_root().join("api/md-maintain.txt")).unwrap();
    let line = format!("md_maintain::{name}  # {WAITS}");
    assert!(maintain.lines().any(|l| l == line), "{line}");
}

#[test]
fn inherent_methods_are_listed_trait_methods_are_not() {
    let lib = "mod t;\npub use t::{Plain, Tr};\n";
    let t = r##"
pub struct Plain<'a> { pub field: &'a str }
pub trait Tr { fn required(&self); fn provided(&self) {} }
impl<'a> Plain<'a> {
    pub fn own(&self) -> char { let _ = "}"; let _ = r#"{"#; '{' }
    fn private(&self) {}
    pub(crate) fn narrow(&self) {}
    #[cfg(test)]
    pub fn test_only(&self) {}
    pub const fn constant() -> u8 { b'}' }
}
impl<'a> Tr for Plain<'a> { fn required(&self) {} }
impl<'a> Clone for Plain<'a> { fn clone(&self) -> Self { Plain { field: self.field } } }
struct Private;
impl Private { pub fn hidden(&self) {} }
"##;
    assert_eq!(
        listed(&[("lib.rs", lib), ("t.rs", t)]),
        ["x::Plain", "x::Plain::constant", "x::Plain::own", "x::Tr"]
    );
}

#[test]
fn a_namespace_module_lists_its_items_under_its_path() {
    let lib = "pub mod views;\n#[macro_export]\nmacro_rules! row { () => {}; }\n";
    let views = "pub const SQL: &str = \"{\";\nconst PRIVATE: u8 = 0;\n";
    assert_eq!(
        listed(&[("lib.rs", lib), ("views.rs", views)]),
        ["x::row", "x::views::SQL"]
    );
}

#[test]
fn a_reexport_is_called_only_through_its_path() {
    let toks = lex("use md_w::{Warehouse, nested::{Deep}};\nuse md_r::Row;\nfn f() { md_w::Value::Int(1); x::md_w::Hidden; }");
    let paths: Vec<String> = root_paths(&toks).into_iter().collect();
    assert_eq!(
        paths,
        [
            "md_r::Row",
            "md_w::Value",
            "md_w::Warehouse",
            "md_w::nested",
            "x::md_w"
        ]
    );
}
